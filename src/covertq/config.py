"""Shared numerical tolerances, size caps, and the protocol rate container.

Every tolerance that appears in a contract lives here so spec files can
override them in one place (see ``specio``).  Support and grouping
tolerances are *relative* to the largest eigenvalue of the operator they
are applied to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import CapExceeded, RunParameterError


@dataclass(frozen=True)
class Numerics:
    herm_tol: float = 1e-10          # max |M - M^dag| entry allowed
    psd_tol: float = 1e-10           # eigenvalue floor for state validation
    trace_tol: float = 1e-10         # |tr - 1| allowed for states
    support_tol: float = 1e-10       # relative eigenvalue cutoff defining supports
    group_tol: float = 1e-8          # relative gap below which eigenvalues merge
    support_mass_tol: float = 1e-9   # probability mass outside a support treated as zero
    prob_tol: float = 1e-12          # distribution normalization slack
    csi_tol: float = 1e-8            # trace-distance slack for CSI consistency
    covert_tol: float = 1e-6         # trace-distance / TV slack for covertness feasibility
    povm_tol: float = 1e-8           # completeness slack for decoder POVMs
    codebook_cap: int = 4096         # max number of codebook entries
    trial_cap: int = 100000          # max Monte Carlo trials of one simulate run
    warden_cap: int = 65536          # element budget of every classical evaluation buffer
    exact_resolvability_cap: int = 10**6  # max codebook configurations enumerated exactly

    def replaced(self, **kw) -> "Numerics":
        return replace(self, **kw)


DEFAULT = Numerics()

# Slack of the sum of a probability law: channel rows, policy rows, joint
# tables and codeword laws.  ClassicalProblem holds q_s to within
# min(prob_tol, LAW_SLACK) of one, so a spec that raises prob_tol still
# yields laws within this slack, or fails as it loads.
LAW_SLACK = 1e-9


def pow2(x: float) -> float:
    """``2.0 ** x``; raises :class:`CapExceeded` when it is not a finite
    float (it overflows, or ``x`` is inf or NaN), so an absurd rate ends
    with the cap exit code instead of a traceback."""
    try:
        y = 2.0 ** x
    except OverflowError:
        y = math.inf
    if not math.isfinite(y):
        raise CapExceeded(f"2^{x:g} exceeds every cap")
    return y


def code_size(bits: float) -> int:
    """Code size floor(2^bits), at least 1."""
    return max(1, int(pow2(bits)))


def check_codebook_cap(sizes, cfg: Numerics) -> None:
    """Raise :class:`CapExceeded` when a codebook of ``sizes`` (|J|, |K|, |M|)
    holds more than ``cfg.codebook_cap`` entries."""
    entries = math.prod(sizes)
    if entries > cfg.codebook_cap:
        raise CapExceeded(f"codebook with {entries} entries exceeds cap {cfg.codebook_cap}")


@dataclass(frozen=True)
class ProtocolRates:
    """Message, key, and local-randomness rates in bits plus the Renyi knob.

    ``alpha`` must lie strictly inside (0, 1/2).  Rates are nonnegative
    reals; the simulator floors 2^rate when it needs integer code sizes.
    """

    R: float
    R_K: float
    R_J: float
    alpha: float

    def __post_init__(self):
        for name in ("R", "R_K", "R_J"):
            if getattr(self, name) < 0.0:
                raise RunParameterError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not (0.0 < self.alpha < 0.5):
            raise RunParameterError(f"alpha must lie in (0, 1/2), got {self.alpha}")

    @property
    def total(self) -> float:
        return self.R + self.R_K + self.R_J

    def sizes(self) -> tuple[int, int, int]:
        """Floor code sizes (|J|, |K|, |M|)."""
        return code_size(self.R_J), code_size(self.R_K), code_size(self.R)
