"""Asymptotic achievable regions, classical capacities, and the
Fourier-Motzkin projection check.

Quantum regions are evaluated from Holevo information terms of a given
ensemble; classical regions from entropic terms of a joint table built
out of a state distribution, an auxiliary policy, and the channel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT, Numerics
from .divergences import classical_info_terms, entropy_of_table, holevo_mutual_info
from .errors import CovertInfeasible
from .states import (AuxiliaryPolicy, ClassicalProblem, CQState, ProblemInstance,
                     QuantumChannel, check_policy, innocent_output)

__all__ = [
    "ClassicalProblem",
    "AuxiliaryPolicy",
    "RateRegion",
    "cc_csk_region",
    "csc_csk_region",
    "corollary_rates",
    "check_policy",
    "joint_table",
    "total_variation",
    "classical_region_evaluate",
    "degradedness_residual",
    "superposition_transform",
    "causal_rate",
    "fm_check",
    "fm_projection_grid",
]


@dataclass(frozen=True)
class RateRegion:
    """Constraint list and boundary vertices of a 2-D (R, R_K) region."""

    constraints: tuple[tuple[str, tuple[float, float], float], ...]
    boundary: tuple[tuple[float, float], ...]
    clamped: bool = False
    meta: dict = field(default_factory=dict)

    def contains(self, r: float, rk: float, tol: float = 1e-9) -> bool:
        if r < -tol or rk < -tol:
            return False
        if self.clamped:
            return r <= tol and rk <= tol
        return all(wr * r + wk * rk <= b + tol
                   for _, (wr, wk), b in self.constraints)

    def scalarized_max(self, w_r: float, w_rk: float) -> tuple[float, tuple[float, float]]:
        """Maximum of w_r*R + w_rk*R_K over the region (over its vertices)."""
        best, arg = 0.0, (0.0, 0.0)
        for r, rk in self.boundary:
            val = w_r * r + w_rk * rk
            if val > best + 1e-15:
                best, arg = val, (r, rk)
        return best, arg

    def to_dict(self) -> dict:
        return {
            "constraints": [
                {"label": lab, "coeff": list(co), "bound": b}
                for lab, co, b in self.constraints
            ],
            "boundary": [list(p) for p in self.boundary],
            "clamped": self.clamped,
            "meta": dict(self.meta),
        }


def _vertices(cons: list[tuple[float, float, float]], tol: float = 1e-9
              ) -> tuple[tuple[float, float], ...]:
    """Vertices of {(R,RK) >= 0 : wr R + wk RK <= b for all constraints}."""
    full = list(cons) + [(-1.0, 0.0, 0.0), (0.0, -1.0, 0.0)]
    pts: list[tuple[float, float]] = []
    for i in range(len(full)):
        a1, b1, c1 = full[i]
        for j in range(i + 1, len(full)):
            a2, b2, c2 = full[j]
            det = a1 * b2 - a2 * b1
            if abs(det) < 1e-12:
                continue
            r = (c1 * b2 - c2 * b1) / det
            k = (a1 * c2 - a2 * c1) / det
            if all(ar * r + bk * k <= c + tol for ar, bk, c in full):
                pts.append((max(r, 0.0), max(k, 0.0)))
    uniq = sorted({(round(r, 10), round(k, 10)) for r, k in pts})
    return tuple(uniq)


def _build_region(named: list[tuple[str, tuple[float, float], float]],
                  meta: dict) -> RateRegion:
    if any(b < -1e-12 for _, _, b in named):
        return RateRegion(tuple(named), ((0.0, 0.0),), clamped=True,
                          meta={**meta, "clamped_reason": "negative constraint bound"})
    verts = _vertices([(co[0], co[1], b) for _, co, b in named])
    return RateRegion(tuple(named), verts, clamped=False, meta=meta)


# ---------------------------------------------------------------------------
# Quantum regions

def _quantum_terms(ensemble: CQState, channel: QuantumChannel,
                   instance: ProblemInstance | None, stealth: bool,
                   cfg: Numerics) -> tuple[dict[str, float], dict]:
    """I(U;B), I(U;S), I(U;E) of the ensemble, and the region meta (terms and flags).

    With an instance, the CSI guard runs and, unless ``stealth``, the
    induced warden marginal must match the innocent output.
    """
    from .oneshot import _checked_states  # only the quantum regions need oneshot
    st = _checked_states(ensemble, channel, instance, None, cfg)
    terms = {"I(U;B)": holevo_mutual_info(st.cq_ub, cfg),
             "I(U;S)": holevo_mutual_info(st.cq_us, cfg),
             "I(U;E)": holevo_mutual_info(st.cq_ue, cfg)}
    flags = {"stealth": stealth}
    if instance is not None and not stealth:
        dev0, flags["covert_target_matched"] = st.covert_gap(innocent_output(instance))
        if not flags["covert_target_matched"]:
            raise CovertInfeasible(
                f"induced warden marginal is {dev0:.3e} from the innocent output")
    return terms, {**terms, **flags}


def _quantum_rows(which: str, terms: dict[str, float]) -> list:
    """The (label, coefficients, bound) rows of the cc_csk or csc_csk region of ``terms``."""
    iub, ius, iue = terms["I(U;B)"], terms["I(U;S)"], terms["I(U;E)"]
    if which == "cc_csk":
        return [("R", (1.0, 0.0), iub - ius), ("R_K", (0.0, 1.0), iub - iue),
                ("R+R_K", (1.0, 1.0), iub)]
    return [("R", (1.0, 0.0), iub - ius), ("R+R_K", (1.0, 1.0), iub - iue)]


def cc_csk_region(ensemble: CQState, channel: QuantumChannel, *,
                  instance: ProblemInstance | None = None, stealth: bool = False,
                  cfg: Numerics = DEFAULT) -> RateRegion:
    """Message/key region for covert communication with key generation.

    Constraints: R bounded by I(U;B) - I(U;S), R_K by I(U;B) - I(U;E),
    and the sum by I(U;B).
    """
    terms, meta = _quantum_terms(ensemble, channel, instance, stealth, cfg)
    return _build_region(_quantum_rows("cc_csk", terms), meta)


def csc_csk_region(ensemble: CQState, channel: QuantumChannel, *,
                   instance: ProblemInstance | None = None, stealth: bool = False,
                   cfg: Numerics = DEFAULT) -> RateRegion:
    """Message/key region when the message must itself stay secret.

    Constraints: R bounded by I(U;B) - I(U;S) and the sum by
    I(U;B) - I(U;E); always nested inside the cc_csk region.
    """
    terms, meta = _quantum_terms(ensemble, channel, instance, stealth, cfg)
    return _build_region(_quantum_rows("csc_csk", terms), meta)


def corollary_rates(ensemble: CQState, channel: QuantumChannel, *,
                    instance: ProblemInstance | None = None, stealth: bool = False,
                    cfg: Numerics = DEFAULT) -> dict:
    """Scalar rate lower bounds from projecting the regions onto the axes.

    R_CC needs I(U;B) >= I(U;E) and R_CSK needs I(U;B) >= I(U;S); the
    side-condition flags report whether the given ensemble satisfies them.
    """
    terms, _ = _quantum_terms(ensemble, channel, instance, stealth, cfg)
    iub, ius, iue = terms["I(U;B)"], terms["I(U;S)"], terms["I(U;E)"]
    return {
        "R_CC": max(0.0, iub - ius),
        "R_CSK": max(0.0, iub - iue),
        "R_CSC": max(0.0, iub - max(ius, iue)),
        "side_R_CC_ok": iub >= iue - 1e-12,
        "side_R_CSK_ok": iub >= ius - 1e-12,
        **terms,
    }


# ---------------------------------------------------------------------------
# Classical joint tables and regions

def joint_table(problem: ClassicalProblem, policy: AuxiliaryPolicy) -> np.ndarray:
    """Joint distribution table with axes (U, S, B, E)."""
    check_policy(problem, policy)
    return np.einsum("s,su,usa,asbe->usbe", problem.q_s, policy.p_u_s,
                     policy.p_a_us, problem.w, optimize=True)


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    """0.5 * sum |p - q| (half the L1 distance)."""
    return 0.5 * float(np.sum(np.abs(np.asarray(p) - np.asarray(q))))


def degradedness_residual(problem: ClassicalProblem) -> float:
    """Least-squares residual of fitting warden = post-processing(receiver).

    Searches for a stochastic map T with W_E = T applied to W_B via
    projected least squares; a residual above 1e-6 means the channel is
    not degraded toward the warden.
    """
    na, ns, nb, ne = problem.w.shape
    a_mat = problem.w_b().reshape(na * ns, nb)
    y = problem.w_e().reshape(na * ns, ne)
    t, *_ = np.linalg.lstsq(a_mat, y, rcond=None)
    step = 1.0 / max(np.linalg.norm(a_mat.T @ a_mat), 1e-12)
    for i in range(201):  # 200 projected gradient steps, then the last projection
        t = np.maximum(t, 0.0)
        rows = t.sum(axis=1, keepdims=True)
        t = np.where(rows > 0, t / rows, 1.0 / ne)
        if i < 200:
            t = t - step * (a_mat.T @ (a_mat @ t - y))
    return float(np.max(np.abs(a_mat @ t - y)))


def classical_region_evaluate(problem: ClassicalProblem, policy: AuxiliaryPolicy,
                              which: str, *, stealth: bool = False,
                              cfg: Numerics = DEFAULT):
    """Evaluate one classical capacity expression for a fixed policy.

    ``which`` is "thm3" (scalar key capacity with full receiver CSI),
    "thm4_degraded" (message/key region for degraded wardens), or "thm6"
    (secure message/key region): thm6 is the csc_csk region of the merged
    terms (:func:`_merged_terms`), thm3 its R+R_K bound, and thm4 their cc_csk
    region with the R_K row I(U;B|E,S) + H(S|E).  Covertness of the induced
    warden distribution is enforced unless ``stealth`` is set.
    """
    joint = joint_table(problem, policy)
    tv = total_variation(joint.sum(axis=(0, 1, 2)), problem.q0())
    if not stealth and tv > cfg.covert_tol:
        raise CovertInfeasible(f"induced warden distribution is {tv:.3e} from q0 in TV")
    terms = classical_info_terms(joint, cfg)
    meta = {**terms, "stealth": stealth, "covert_deviation_tv": tv,
            "policy": {"p_u_s": policy.p_u_s.tolist(), "p_a_us": policy.p_a_us.tolist()}}
    named = _quantum_rows("cc_csk" if which == "thm4_degraded" else "csc_csk",
                          _merged_terms(terms))
    if which == "thm3":
        return named[-1][2]
    if which == "thm4_degraded":  # cc_csk's R_K row is this one for a degraded warden only
        meta["degradedness_residual"] = degradedness_residual(problem)
        meta["degraded"] = meta["degradedness_residual"] <= 1e-6
        named[1] = ("R_K", (0.0, 1.0), terms["I(U;B|E,S)"] + terms["H(S|E)"])
    elif which != "thm6":
        raise ValueError(f"unknown region selector {which!r}")
    return _build_region(named, meta)


def _merged_terms(terms: dict[str, float]) -> dict[str, float]:
    """I(U;B), I(U;S), I(U;E) of the classical ``terms`` after U -> (U, S), B -> (B, S)."""
    return {"I(U;B)": terms["I(U;B|S)"] + terms["H(S)"],
            "I(U;S)": terms["H(S)"],
            "I(U;E)": terms["I(U;E|S)"] + terms["H(S)"] - terms["H(S|E)"]}


def _mutual_info_2d(p: np.ndarray) -> float:
    return entropy_of_table(p.sum(axis=1)) + entropy_of_table(p.sum(axis=0)) \
        - entropy_of_table(p)


def superposition_transform(problem: ClassicalProblem, policy: AuxiliaryPolicy,
                            cfg: Numerics = DEFAULT) -> dict:
    """Evaluate the region terms after stacking the codebook on the state.

    With the receiver knowing the state, substituting U -> (U, S) and
    B -> (B, S) turns the unconditional information terms into conditional
    ones plus state-entropy corrections; both the raw merged-variable
    values and their decompositions are returned (they agree to float
    precision).
    """
    p = joint_table(problem, policy)  # (u, s, b, e)
    nu, ns, nb, ne = p.shape
    terms = classical_info_terms(p, cfg)

    # (U, S) -> U * ns + S and (B, S) -> B * ns + S; both copies of S agree
    eye_s = np.eye(ns, dtype=bool)
    merged_b = np.where(eye_s[None, :, None, :], p.sum(axis=3)[:, :, :, None], 0.0)
    merged_b = merged_b.reshape(nu * ns, nb * ns)
    merged_s = np.where(eye_s, p.sum(axis=(2, 3))[:, :, None], 0.0).reshape(nu * ns, ns)
    p_use = p.sum(axis=2)
    merged_e = p_use.reshape(nu * ns, ne)

    raw = {
        "I(U;B)": _mutual_info_2d(merged_b),
        "I(U;S)": _mutual_info_2d(merged_s),
        "I(U;E)": _mutual_info_2d(merged_e),
    }
    decomposed = _merged_terms(terms)
    return {
        "raw": raw,
        "decomposed": decomposed,
        "identity_deviation": max(abs(raw[k] - decomposed[k]) for k in raw),
        "key_capacity_value": raw["I(U;B)"] - raw["I(U;E)"],
        "key_capacity_direct": terms["I(U;B|S)"] - terms["I(U;E|S)"] + terms["H(S|E)"],
        "terms": terms,
    }


# ---------------------------------------------------------------------------
# Causal rate

def causal_rate(problem: ClassicalProblem, candidates, *, stealth: bool = False,
                cfg: Numerics = DEFAULT) -> dict:
    """Best causal-policy rate over explicit (p_u, w_a_us) candidates.

    Causality means the auxiliary symbol is drawn before the state is
    seen, so P(u|s) = p_u; each candidate contributes I(U;B) when it is
    covert-feasible and satisfies I(U;B) > I(U;E).
    """
    ns = problem.sizes["S"]
    pairs = []  # (I(U;B), I(U;E)) of the kept candidates
    for p_u, w_a_us in candidates:
        pol = AuxiliaryPolicy(np.tile(p_u, (ns, 1)), w_a_us, cfg)
        joint = joint_table(problem, pol)
        if stealth or total_variation(joint.sum(axis=(0, 1, 2)), problem.q0()) <= cfg.covert_tol:
            terms = classical_info_terms(joint, cfg)
            pairs.append((terms["I(U;B)"], terms["I(U;E)"]))
    if not pairs and not stealth:
        raise CovertInfeasible("no candidate policy is covert-feasible")
    side = [iub for iub, iue in pairs if iub > iue - 1e-12]
    return {"rate": max([0.0, *side]), "side_condition_met": bool(side),
            "covert_feasible": bool(pairs)}


# ---------------------------------------------------------------------------
# Fourier-Motzkin projection check

def fm_projection_grid(a: float, b: float, c: float, step: float
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Grid membership masks for the raw three-rate system and its projection.

    The raw system over (R_J, R_K, R) requires R_J + R_K >= a,
    R_J + R_K + R <= b and R_J + R >= c (closures of the strict coding
    constraints); the sweep eliminates R_J by brute force.  The projected
    description is R <= b - a, R_K <= b - c, R + R_K <= b.

    The sweep runs on integer grid indices i, k, j of R, R_K, R_J.  Each
    threshold becomes an index bound once: ceil((a - tol) / step),
    floor((b + tol) / step) and ceil((c - tol) / step).  The comparisons
    on index sums are then integer-exact.  The rule matches the float
    comparison of grid sums it replaces (j*step + k*step >= a - tol, ...)
    unless a scaled threshold lies within rounding error of an integer,
    which the slack of tol keeps clear of grid-aligned thresholds.
    """
    tol = 1e-9  # slack for the rounding of grid sums
    n = int(round(max(b, 0.0) / step)) + 1
    r = np.arange(n) * step
    rk = np.arange(n) * step
    top = 3 * (n - 1)  # the largest index sum

    def bound(x: float) -> int:
        # bounds beyond the reach of the index sums clip to one past it
        return int(min(max(x, -1), top + 1))

    lo_k = bound(np.ceil((a - tol) / step))
    hi = bound(np.floor((b + tol) / step))
    lo_r = bound(np.ceil((c - tol) / step))
    idx = np.arange(n, dtype=np.result_type(np.int8, np.min_scalar_type(top)))
    pair = idx[:, None] + idx  # j + k and j + i: the sum of two index axes
    # j + k <= hi - i, each (j, k) below lo_k pushed past every bound and each
    # (j, i) below lo_r given the bound -1; R_J is swept along the cube's axis j
    jk = np.where(pair >= lo_k, pair, hi + 1)
    ji = np.where(pair >= lo_r, hi - idx, -1)
    swept = (jk[:, None, :] <= ji[:, :, None]).any(axis=0)
    direct = ((r[:, None] <= b - a + tol) & (rk <= b - c + tol)
              & (r[:, None] + rk <= b + tol))
    return r, rk, swept, direct


def fm_check(a: float, b: float, c: float, step: float = 0.02) -> bool:
    """Grid equality of the eliminated projection and its closed form.

    Both inclusions are checked per grid point.  Intended for grid-aligned
    (a, b, c); off-grid thresholds can round a boundary row differently on
    the two sides.
    """
    if not all(x >= 0.0 for x in (a, b, c)):  # NaN fails too
        raise ValueError("thresholds must be nonnegative")
    if b <= 0.0:
        return True  # both sides empty (or the origin only, on both sides)
    _, _, swept, direct = fm_projection_grid(a, b, c, step)
    return bool(np.array_equal(swept, direct))
