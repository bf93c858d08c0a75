"""Closed-form one-shot achievability bounds with alpha / R_J optimization.

Bound values are plain upper-bound evaluations in bits; nothing here
samples codebooks.  Each bound is one row of the table ``config.ROWS``,
read by ``protocol`` too, as its Monte Carlo verification targets, and by
``classical`` for its resolvability bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import (DEFAULT, ROWS, SPLIT, THEOREM_ROWS, Numerics, ProtocolRates,
                     bound_orders, vacuous)
from .divergences import (
    DivergenceValue,
    cq_sandwiched_renyi,
    trace_distance,
)
from .errors import CsiMismatch, EmptyFeasibleSet, SupportViolation
from .pinching import eigencount
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
    "resolvability_bound",
    "decoding_test_bounds",
    "verification_bounds",
    "bound_report",
    "optimize_bound",
    "default_alpha_grid",
]


@dataclass(eq=False)
class InducedStates:
    """Marginals of one ensemble, with their divergences and eigenvalue
    counts, each computed on first read and cached."""

    cq_us: CQState
    cq_ub: CQState
    cq_ue: CQState
    rho_s: DensityMatrix
    rho_b: DensityMatrix
    rho_e: DensityMatrix
    cfg: Numerics = DEFAULT
    _cache: dict = field(default_factory=dict, repr=False)
    _counts: dict = field(default_factory=dict, repr=False)

    def eigencount(self, which: str) -> int:
        """Distinct eigenvalue count of the average state of a marginal (S, B
        or E), counted on first read."""
        if which not in self._counts:
            rho = {"S": self.rho_s, "B": self.rho_b, "E": self.rho_e}[which]
            self._counts[which] = eigencount(rho, self.cfg)
        return self._counts[which]

    v_s = property(lambda self: self.eigencount("S"))
    v_b = property(lambda self: self.eigencount("B"))
    v_e = property(lambda self: self.eigencount("E"))

    def fill(self, which: str, orders) -> None:
        """Cache one marginal's divergences at the orders not cached yet, in one call."""
        todo = [o for o in dict.fromkeys(orders) if (which, o) not in self._cache]
        if todo:
            cq = {"S": self.cq_us, "B": self.cq_ub, "E": self.cq_ue}[which]
            dv = cq_sandwiched_renyi(cq, np.array(todo), self.cfg)
            for o, v, bad in zip(todo, dv.value.tolist(), dv.support_violation.tolist()):
                self._cache[(which, o)] = DivergenceValue(v, bad)

    def divergence(self, which: str, order: float) -> DivergenceValue:
        """Cached sandwiched divergence of a marginal cq state vs its product."""
        if (which, order) not in self._cache:
            self.fill(which, [order])
        return self._cache[(which, order)]

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
    return InducedStates(*cqs, *(cq.average() for cq in cqs), cfg=cfg)


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


def verification_bounds(st: InducedStates, rates: ProtocolRates,
                        rows=THEOREM_ROWS) -> dict[str, float]:
    """The bounds ``rows`` (of :data:`ROWS`, or ``error_split``) at one rate
    point: the one evaluator of a one-shot bound.  Only those rows are
    evaluated, after every divergence they read is fetched (S, B, E), so an
    infinite one raises :class:`SupportViolation` before an overflow can."""
    names = dict.fromkeys(p for n in rows for p in (SPLIT if n == "error_split" else (n,)))
    need = {ROWS[n][0] for n in names}
    d = {m: st.finite_divergence(m, o) for m, o in zip("SBE", bound_orders(rates.alpha))
         if m in need}
    vals = {n: ROWS[n][2](st.eigencount(ROWS[n][0]), rates.alpha, rates, d[ROWS[n][0]])
            for n in names}
    return {n: vals[SPLIT[0]] + vals[SPLIT[1]] if n == "error_split" else vals[n] for n in rows}


def _one_marginal(cq: CQState, rates: ProtocolRates, rows, cfg: Numerics) -> list[float]:
    """The bounds ``rows`` of one marginal, whose cq state ``cq`` stands for all three."""
    rho = cq.average()
    st = InducedStates(cq, cq, cq, rho, rho, rho, cfg)
    return list(verification_bounds(st, rates, rows).values())


def resolvability_bound(cq_ue: CQState, rate: float, alpha: float,
                        cfg: Numerics = DEFAULT) -> float:
    """Lemma 1: bounds E[ D_(1+alpha)(mixture || average) ] for a mixture of
    2^rate codewords drawn iid from the ensemble distribution."""
    return _one_marginal(cq_ue, ProtocolRates(rate, 0.0, 0.0, alpha), ("resolvability",), cfg)[0]


def decoding_test_bounds(cq_ub: CQState, rates: ProtocolRates,
                         cfg: Numerics = DEFAULT) -> tuple[float, float]:
    """Lemma 2: bounds on the miss probability tr[(I - Pi) rho_UB] and the
    false-alarm trace tr[Pi (rho_U x rho_B)] of the decoding projector."""
    return tuple(_one_marginal(cq_ub, rates, ("miss", "false_alarm"), cfg))


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
    vb = verification_bounds(st, rates)
    over = vacuous(vb)
    _, matched = st.covert_gap(innocent_output(instance))
    return BoundReport(
        pe_bound=vb["error_split"],
        covert_bound=vb["key_trace"],
        secure_covert_bound=vb["message_key_trace"],
        components={"encoding": vb["error_encoding"], "decoding": vb["error_decoding"],
                    "covert_loose_prefactor": vb["key_trace_loose"]},
        divergences={name: st.finite_divergence(w, o) for name, w, o in zip(
            ("D_state", "D_receiver", "D_warden"), "SBE", bound_orders(rates.alpha))},
        eigencounts={"v_S": st.v_s, "v_B": st.v_b, "v_E": st.v_e},
        flags={"covert_target_matched": matched, "pe_vacuous": over["error_split"],
               "covert_vacuous": over["key_trace"]},
        rates=rates,
    )


def default_alpha_grid(points: int = 24) -> np.ndarray:
    """Log-spaced alpha grid over (0, 1/2); bounds blow up at both ends."""
    return np.geomspace(1e-3, 0.499, points)


def optimize_bound(evaluate, alpha_grid, rj_grid) -> tuple[float, float, float]:
    """Grid argmin of a bound over (alpha, R_J).

    ``evaluate(alpha, rj)`` returns the bound value; points raising
    :class:`SupportViolation` are skipped.  Ties break toward the smallest
    alpha then the smallest R_J.
    """
    best = None
    for a in sorted(float(x) for x in alpha_grid):
        for rj in sorted(float(x) for x in rj_grid):
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
