"""Closed-form one-shot achievability bounds with alpha / R_J optimization.

Bound values are plain upper-bound evaluations in bits; nothing here
samples codebooks.  ``protocol`` consumes the same expressions as Monte
Carlo verification targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT, Numerics, code_size, pow2
from .divergences import (
    DivergenceValue,
    cq_sandwiched_renyi,
    trace_distance,
)
from .errors import CsiMismatch, EmptyFeasibleSet, SupportViolation
from .pinching import distinct_eigenspaces
from .states import (
    CQState,
    DensityMatrix,
    ProblemInstance,
    QuantumChannel,
    check_csi_consistency,
    induced_cq_output,
    innocent_output,
)

__all__ = [
    "ProtocolRates",
    "InducedStates",
    "BoundReport",
    "induced_states",
    "one_shot_error_bound",
    "one_shot_covert_bound",
    "one_shot_secure_covert_bound",
    "resolvability_bound",
    "decoding_test_bounds",
    "verification_bounds",
    "bound_report",
    "optimize_bound",
    "default_alpha_grid",
]

LN2 = math.log(2.0)


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
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not (0.0 < self.alpha < 0.5):
            raise ValueError(f"alpha must lie in (0, 1/2), got {self.alpha}")

    @property
    def total(self) -> float:
        return self.R + self.R_K + self.R_J

    def sizes(self) -> tuple[int, int, int]:
        """Floor code sizes (|J|, |K|, |M|)."""
        return code_size(self.R_J), code_size(self.R_K), code_size(self.R)


@dataclass(eq=False)
class InducedStates:
    """Marginals, eigenvalue counts, and divergence cache for one ensemble."""

    cq_us: CQState
    cq_ub: CQState
    cq_ue: CQState
    rho_s: DensityMatrix
    rho_b: DensityMatrix
    rho_e: DensityMatrix
    v_s: int
    v_b: int
    v_e: int
    cfg: Numerics = DEFAULT
    _cache: dict = field(default_factory=dict, repr=False)

    def divergence(self, which: str, order: float) -> DivergenceValue:
        """Cached sandwiched divergence of a marginal cq state vs its product."""
        key = (which, order)
        if key not in self._cache:
            cq = {"S": self.cq_us, "B": self.cq_ub, "E": self.cq_ue}[which]
            self._cache[key] = cq_sandwiched_renyi(cq, order, self.cfg)
        return self._cache[key]

    def finite_divergence(self, which: str, order: float) -> float:
        dv = self.divergence(which, order)
        if not dv.is_finite:
            raise SupportViolation(f"divergence for {which} at order {order} is infinite")
        return dv.value

    def covert_gap(self, rho0: DensityMatrix) -> tuple[float, bool]:
        """Trace distance of the warden marginal from the innocent output
        ``rho0``, and whether it is within ``covert_tol``: the covert target
        is matched."""
        dev = trace_distance(self.rho_e, rho0, self.cfg)
        return dev, bool(dev <= self.cfg.covert_tol)


def induced_states(ensemble: CQState, channel: QuantumChannel,
                   cfg: Numerics = DEFAULT) -> InducedStates:
    """Derive all channel-output marginals used by the bounds."""
    (b_name, _), (e_name, _) = channel.out_factors
    cq_ube = induced_cq_output(channel, ensemble)
    cqs = (ensemble.marginal_cq("S"), cq_ube.marginal_cq(b_name), cq_ube.marginal_cq(e_name))
    rhos = [cq.average() for cq in cqs]
    return InducedStates(*cqs, *rhos, *(distinct_eigenspaces(r, cfg=cfg).v for r in rhos),
                         cfg=cfg)


def _checked_states(ensemble: CQState, channel: QuantumChannel,
                    instance: ProblemInstance | None, states: InducedStates | None,
                    cfg: Numerics) -> InducedStates:
    """``states``, or those the ensemble induces, once the ensemble's
    S-marginal is checked against the shared state of ``instance``."""
    if instance is not None:
        ok, dev = check_csi_consistency(ensemble, instance, cfg=cfg)
        if not ok:
            raise CsiMismatch(f"ensemble S-marginal deviates from shared state by {dev:.3e}")
    return states or induced_states(ensemble, channel, cfg)


def one_shot_error_bound(ensemble: CQState, channel: QuantumChannel,
                         rates: ProtocolRates, *,
                         instance: ProblemInstance | None = None,
                         states: InducedStates | None = None,
                         cfg: Numerics = DEFAULT) -> float:
    """Upper bound on the decoding error of the one-shot scheme.

    Sum of the encoding-mismatch term (decaying in R_J + R_K) and the
    decoding term (growing in the total rate).
    """
    st = _checked_states(ensemble, channel, instance, states, cfg)
    return verification_bounds(st, rates)["error_split"]


def one_shot_covert_bound(ensemble: CQState, channel: QuantumChannel,
                          rates: ProtocolRates, *,
                          instance: ProblemInstance | None = None,
                          states: InducedStates | None = None,
                          cfg: Numerics = DEFAULT) -> float:
    """Upper bound on the key-covertness trace distance.

    Uses the conservative 2*sqrt(2) prefactor; the tighter prefactor-2
    variant is exposed through :func:`verification_bounds`.
    """
    st = _checked_states(ensemble, channel, instance, states, cfg)
    return verification_bounds(st, rates)["key_trace"]


def one_shot_secure_covert_bound(ensemble: CQState, channel: QuantumChannel,
                                 rates: ProtocolRates, *,
                                 instance: ProblemInstance | None = None,
                                 states: InducedStates | None = None,
                                 cfg: Numerics = DEFAULT) -> float:
    """Upper bound on the joint message-key covertness trace distance.

    Only the local randomness R_J backs the resolvability exponent here;
    the message no longer counts as usable randomness because it must be
    secret itself.
    """
    st = _checked_states(ensemble, channel, instance, states, cfg)
    return verification_bounds(st, rates)["message_key_trace"]


def resolvability_bound(cq_ue: CQState, rate: float, alpha: float,
                        cfg: Numerics = DEFAULT) -> float:
    """Expected sandwiched divergence of a size-2^rate random mixture.

    Bounds E[ D_(1+alpha)(mixture || average) ] for codewords drawn iid
    from the ensemble distribution.
    """
    if not (0.0 < alpha < 0.5):
        raise ValueError(f"alpha must lie in (0, 1/2), got {alpha}")
    dv = cq_sandwiched_renyi(cq_ue, 1.0 + alpha, cfg)
    if not dv.is_finite:
        raise SupportViolation("conditional outputs leave the average support")
    v_e = distinct_eigenspaces(cq_ue.average(), cfg=cfg).v
    return (v_e ** alpha / (alpha * LN2)) * pow2(alpha * (-rate + dv.value))


def decoding_test_bounds(cq_ub: CQState, rates: ProtocolRates,
                         cfg: Numerics = DEFAULT) -> tuple[float, float]:
    """Upper bounds for the two decoding-projector traces.

    First value bounds the miss probability tr[(I - Pi) rho_UB], second
    the false-alarm trace tr[Pi (rho_U x rho_B)].
    """
    a = rates.alpha
    dv = cq_sandwiched_renyi(cq_ub, 1.0 - a, cfg)
    if not dv.is_finite:
        raise SupportViolation("divergence at order 1 - alpha is infinite")
    v_b = distinct_eigenspaces(cq_ub.average(), cfg=cfg).v
    common = v_b ** a * pow2(-a * dv.value)
    return (common * pow2(a * rates.total),
            common * pow2(-(1.0 - a) * rates.total))


def verification_bounds(st: InducedStates, rates: ProtocolRates) -> dict[str, float]:
    """Every closed-form bound of Theorems 1 and 5 at one rate point.

    The one place the exponents and prefactors are evaluated: the bound
    functions, :func:`bound_report` and the Monte Carlo verifier read this
    table.  Raises :class:`SupportViolation` when D_(1+a)(U;S),
    D_(1-a)(U;B) or D_(1+a)(U;E) is infinite.
    """
    a = rates.alpha
    d_s = st.finite_divergence("S", 1.0 + a)
    d_b = st.finite_divergence("B", 1.0 - a)
    d_e = st.finite_divergence("E", 1.0 + a)
    enc = (2.0 * st.v_s ** a / a) * pow2(a * (-(rates.R_J + rates.R_K) + d_s))
    dec = 12.0 * st.v_b ** a * pow2(a * (rates.total - d_b))
    p2 = 2.0 * st.v_e ** a / a
    base = st.v_e ** (a / 2.0) / math.sqrt(a)
    strict, loose = 2.0 * math.sqrt(2.0) * base, 2.0 * base
    key_expo = -(rates.R_J + rates.R) + d_e
    msg_expo = -rates.R_J + d_e
    return {
        "error_split": enc + dec,
        "error_encoding": enc,
        "error_decoding": dec,
        "key_p2": p2 * pow2(a * key_expo),
        "message_key_p2": p2 * pow2(a * msg_expo),
        "key_trace": strict * pow2((a / 2.0) * key_expo),
        "key_trace_loose": loose * pow2((a / 2.0) * key_expo),
        "message_key_trace": loose * pow2((a / 2.0) * msg_expo),
    }


@dataclass(frozen=True)
class BoundReport:
    """Evaluated one-shot bounds with their ingredients."""

    pe_bound: float
    covert_bound: float
    secure_covert_bound: float
    components: dict[str, float]
    divergences: dict[str, float]
    eigencounts: dict[str, int]
    flags: dict[str, bool]
    rates: ProtocolRates


def bound_report(ensemble: CQState, instance: ProblemInstance,
                 rates: ProtocolRates, cfg: Numerics = DEFAULT, *,
                 states: InducedStates | None = None) -> BoundReport:
    """Evaluate every one-shot bound for one ensemble and rate point."""
    st = _checked_states(ensemble, instance.channel, instance, states, cfg)
    a = rates.alpha
    vb = verification_bounds(st, rates)
    _, matched = st.covert_gap(innocent_output(instance, cfg))
    return BoundReport(
        pe_bound=vb["error_split"],
        covert_bound=vb["key_trace"],
        secure_covert_bound=vb["message_key_trace"],
        components={"encoding": vb["error_encoding"], "decoding": vb["error_decoding"],
                    "covert_loose_prefactor": vb["key_trace_loose"]},
        divergences={
            "D_state": st.finite_divergence("S", 1.0 + a),
            "D_receiver": st.finite_divergence("B", 1.0 - a),
            "D_warden": st.finite_divergence("E", 1.0 + a),
        },
        eigencounts={"v_S": st.v_s, "v_B": st.v_b, "v_E": st.v_e},
        flags={
            "covert_target_matched": matched,
            "pe_vacuous": vb["error_split"] > 1.0,
            "covert_vacuous": vb["key_trace"] > 2.0,
        },
        rates=rates,
    )


def default_alpha_grid(points: int = 24) -> np.ndarray:
    """Log-spaced alpha grid over (0, 1/2); bounds blow up at both ends."""
    return np.geomspace(1e-3, 0.499, points)


def optimize_bound(evaluate, alpha_grid, rj_grid, feasible=None
                   ) -> tuple[float, float, float]:
    """Grid argmin of a bound over (alpha, R_J).

    ``evaluate(alpha, rj)`` returns the bound value; points raising
    :class:`SupportViolation` or failing ``feasible`` are skipped.  Ties
    break toward the smallest alpha then the smallest R_J.
    """
    best = None
    for a in sorted(float(x) for x in alpha_grid):
        for rj in sorted(float(x) for x in rj_grid):
            if feasible is not None and not feasible(a, rj):
                continue
            try:
                val = evaluate(a, rj)
            except SupportViolation:
                continue
            if not math.isfinite(val):
                continue
            if best is None or val < best[2]:
                best = (a, rj, val)
    if best is None:
        raise EmptyFeasibleSet("no feasible (alpha, R_J) grid point")
    return best
