"""Covert communication over state-dependent channels: one-shot bounds,
asymptotic rate regions, and exact protocol simulation at desk scale."""

from .config import DEFAULT, Numerics
from .divergences import (
    DivergenceValue,
    fidelity,
    holevo_mutual_info,
    purified_distance,
    relative_entropy,
    sandwiched_renyi,
    trace_distance,
    von_neumann_entropy,
)
from .oneshot import (
    BoundReport,
    ProtocolRates,
    bound_report,
    decoding_test_bounds,
    resolvability_bound,
)
from .protocol import Codebook, DecoderPOVM, SimulationReport, monte_carlo_verify
from .regions import (
    AuxiliaryPolicy,
    ClassicalProblem,
    RateRegion,
    cc_csk_region,
    classical_region_evaluate,
    corollary_rates,
    csc_csk_region,
    fm_check,
    superposition_transform,
)
from .states import (
    CQState,
    DensityMatrix,
    ProblemInstance,
    QuantumChannel,
    apply_channel,
    check_csi_consistency,
    induced_cq_output,
    innocent_output,
    marginals,
)

__version__ = "0.1.0"
