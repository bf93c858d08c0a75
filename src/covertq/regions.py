"""Asymptotic achievable regions, classical capacities, and the
Fourier-Motzkin projection check.

Quantum regions are evaluated from Holevo information terms of a given
ensemble; classical regions from entropic terms of a joint table built
out of a state distribution, an auxiliary policy, and the channel.  The
auxiliary-policy optimizer is a seeded random-restart search with
coordinate-exchange refinement, reporting best-found values (lower bounds
on the suprema).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT, Numerics
from .divergences import classical_info_terms, entropy_of_table, holevo_mutual_info
from .errors import CovertInfeasible, DimMismatch, NotADistribution
from .linalg import require_finite
from .oneshot import _checked_states, induced_states
from .states import CQState, DensityMatrix, ProblemInstance, QuantumChannel, innocent_output

__all__ = [
    "ClassicalProblem",
    "AuxiliaryPolicy",
    "RateRegion",
    "SearchConfig",
    "cc_csk_region",
    "csc_csk_region",
    "corollary_rates",
    "joint_table",
    "induced_warden_distribution",
    "total_variation",
    "classical_region_evaluate",
    "degradedness_residual",
    "superposition_transform",
    "optimize_auxiliary",
    "causal_rate",
    "causal_rate_quantum",
    "fm_check",
    "fm_projection_grid",
]


# ---------------------------------------------------------------------------
# Problem containers

@dataclass(frozen=True, eq=False)
class ClassicalProblem:
    """Finite state-dependent channel with an innocent input symbol.

    ``w[a, s, b, e]`` is the channel law P(b, e | a, s); ``q_s`` the state
    distribution; ``x0`` the innocent input.  The no-communication warden
    distribution q0 is induced, never supplied.
    """

    q_s: np.ndarray
    w: np.ndarray
    x0: int

    def __init__(self, q_s, w, x0: int, cfg: Numerics = DEFAULT):
        q_s = np.asarray(q_s, dtype=np.float64)
        w = np.asarray(w, dtype=np.float64)
        if w.ndim != 4:
            raise NotADistribution("channel table must have axes (A, S, B, E)")
        if q_s.ndim != 1 or q_s.shape[0] != w.shape[1]:
            raise NotADistribution("state distribution length must match channel S axis")
        require_finite(q_s, "state distribution", NotADistribution)
        require_finite(w, "channel table", NotADistribution)
        if np.any(q_s < -cfg.prob_tol) or abs(float(q_s.sum()) - 1.0) > cfg.prob_tol:
            raise NotADistribution("state distribution is not a distribution")
        rows = w.sum(axis=(2, 3))
        if np.any(w < -cfg.prob_tol) or np.max(np.abs(rows - 1.0)) > 1e-9:
            raise NotADistribution("channel rows must sum to one over (B, E)")
        if not 0 <= int(x0) < w.shape[0]:
            raise DimMismatch(f"innocent symbol {x0} outside input alphabet")
        object.__setattr__(self, "q_s", q_s)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "x0", int(x0))

    @property
    def sizes(self) -> dict[str, int]:
        na, ns, nb, ne = self.w.shape
        return {"A": na, "S": ns, "B": nb, "E": ne}

    def w_e(self) -> np.ndarray:
        """Warden marginal channel P(e | a, s)."""
        return self.w.sum(axis=2)

    def w_b(self) -> np.ndarray:
        """Receiver marginal channel P(b | a, s)."""
        return self.w.sum(axis=3)

    def q0(self) -> np.ndarray:
        """Warden distribution induced by the innocent symbol."""
        return np.einsum("s,se->e", self.q_s, self.w_e()[self.x0])


@dataclass(frozen=True, eq=False)
class AuxiliaryPolicy:
    """Auxiliary-variable policy P(u|s), P(a|u,s).

    ``p_u_s[s, u]`` and ``p_a_us[u, s, a]``; every row is a distribution.
    """

    p_u_s: np.ndarray
    p_a_us: np.ndarray

    def __init__(self, p_u_s, p_a_us, cfg: Numerics = DEFAULT):
        p_u_s = np.asarray(p_u_s, dtype=np.float64)
        p_a_us = np.asarray(p_a_us, dtype=np.float64)
        if p_u_s.ndim != 2 or p_a_us.ndim != 3:
            raise NotADistribution("policy tables must be (S,U) and (U,S,A)")
        if p_u_s.shape[1] != p_a_us.shape[0] or p_u_s.shape[0] != p_a_us.shape[1]:
            raise DimMismatch("policy table shapes disagree on U or S")
        for t, name in ((p_u_s, "P(u|s)"), (p_a_us, "P(a|u,s)")):
            require_finite(t, name, NotADistribution)
            if np.any(t < -cfg.prob_tol):
                raise NotADistribution(f"{name} has negative entries")
            if np.max(np.abs(t.sum(axis=-1) - 1.0)) > 1e-9:
                raise NotADistribution(f"{name} rows must sum to one")
        object.__setattr__(self, "p_u_s", np.maximum(p_u_s, 0.0))
        object.__setattr__(self, "p_a_us", np.maximum(p_a_us, 0.0))

    @property
    def num_u(self) -> int:
        return self.p_u_s.shape[1]


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
                   cfg: Numerics) -> tuple[dict[str, float], dict[str, bool]]:
    """I(U;B), I(U;S), I(U;E) of the ensemble and the region flags.

    With an instance, the CSI guard runs and, unless ``stealth``, the
    induced warden marginal must match the innocent output.
    """
    st = _checked_states(ensemble, channel, instance, None, cfg)
    terms = {"I(U;B)": holevo_mutual_info(st.cq_ub, cfg),
             "I(U;S)": holevo_mutual_info(st.cq_us, cfg),
             "I(U;E)": holevo_mutual_info(st.cq_ue, cfg)}
    flags = {"stealth": stealth}
    if instance is not None and not stealth:
        dev0, flags["covert_target_matched"] = st.covert_gap(innocent_output(instance, cfg))
        if not flags["covert_target_matched"]:
            raise CovertInfeasible(
                f"induced warden marginal is {dev0:.3e} from the innocent output")
    return terms, flags


def cc_csk_region(ensemble: CQState, channel: QuantumChannel, *,
                  instance: ProblemInstance | None = None, stealth: bool = False,
                  cfg: Numerics = DEFAULT) -> RateRegion:
    """Message/key region for covert communication with key generation.

    Constraints: R bounded by I(U;B) - I(U;S), R_K by I(U;B) - I(U;E),
    and the sum by I(U;B).
    """
    terms, flags = _quantum_terms(ensemble, channel, instance, stealth, cfg)
    iub, ius, iue = terms["I(U;B)"], terms["I(U;S)"], terms["I(U;E)"]
    named = [
        ("R", (1.0, 0.0), iub - ius),
        ("R_K", (0.0, 1.0), iub - iue),
        ("R+R_K", (1.0, 1.0), iub),
    ]
    return _build_region(named, {**terms, **flags})


def csc_csk_region(ensemble: CQState, channel: QuantumChannel, *,
                   instance: ProblemInstance | None = None, stealth: bool = False,
                   cfg: Numerics = DEFAULT) -> RateRegion:
    """Message/key region when the message must itself stay secret.

    Constraints: R bounded by I(U;B) - I(U;S) and the sum by
    I(U;B) - I(U;E); always nested inside the cc_csk region.
    """
    terms, flags = _quantum_terms(ensemble, channel, instance, stealth, cfg)
    iub, ius, iue = terms["I(U;B)"], terms["I(U;S)"], terms["I(U;E)"]
    named = [
        ("R", (1.0, 0.0), iub - ius),
        ("R+R_K", (1.0, 1.0), iub - iue),
    ]
    return _build_region(named, {**terms, **flags})


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
    if policy.p_a_us.shape[2] != problem.w.shape[0]:
        raise DimMismatch("policy A alphabet does not match channel")
    if policy.p_u_s.shape[0] != problem.q_s.shape[0]:
        raise DimMismatch("policy S alphabet does not match state distribution")
    return np.einsum("s,su,usa,asbe->usbe", problem.q_s, policy.p_u_s,
                     policy.p_a_us, problem.w, optimize=True)


def induced_warden_distribution(problem: ClassicalProblem,
                                policy: AuxiliaryPolicy) -> np.ndarray:
    return joint_table(problem, policy).sum(axis=(0, 1, 2))


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    """0.5 * sum |p - q| (half the L1 distance)."""
    return 0.5 * float(np.sum(np.abs(np.asarray(p) - np.asarray(q))))


def _classical_covert_check(problem: ClassicalProblem, policy: AuxiliaryPolicy,
                            stealth: bool, cfg: Numerics) -> dict:
    tv = total_variation(induced_warden_distribution(problem, policy), problem.q0())
    flags = {"stealth": stealth, "covert_deviation_tv": tv}
    if not stealth and tv > cfg.covert_tol:
        raise CovertInfeasible(f"induced warden distribution is {tv:.3e} from q0 in TV")
    return flags


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
    for _ in range(200):
        t = np.maximum(t, 0.0)
        rows = t.sum(axis=1, keepdims=True)
        t = np.where(rows > 0, t / rows, 1.0 / ne)
        grad = a_mat.T @ (a_mat @ t - y)
        step = 1.0 / max(np.linalg.norm(a_mat.T @ a_mat), 1e-12)
        t = t - step * grad
    t = np.maximum(t, 0.0)
    rows = t.sum(axis=1, keepdims=True)
    t = np.where(rows > 0, t / rows, 1.0 / ne)
    return float(np.max(np.abs(a_mat @ t - y)))


def classical_region_evaluate(problem: ClassicalProblem, policy: AuxiliaryPolicy,
                              which: str, *, stealth: bool = False,
                              cfg: Numerics = DEFAULT):
    """Evaluate one classical capacity expression for a fixed policy.

    ``which`` is "thm3" (scalar key capacity with full receiver CSI),
    "thm4_degraded" (message/key region for degraded wardens), or "thm6"
    (secure message/key region).  Covertness of the induced warden
    distribution is enforced unless ``stealth`` is set.
    """
    flags = _classical_covert_check(problem, policy, stealth, cfg)
    terms = classical_info_terms(joint_table(problem, policy), cfg)
    meta = {**terms, **flags, "policy": _policy_meta(policy)}
    if which == "thm3":
        return terms["I(U;B|S)"] - terms["I(U;E|S)"] + terms["H(S|E)"]
    if which == "thm4_degraded":
        meta["degradedness_residual"] = degradedness_residual(problem)
        meta["degraded"] = meta["degradedness_residual"] <= 1e-6
        named = [
            ("R", (1.0, 0.0), terms["I(U;B|S)"]),
            ("R_K", (0.0, 1.0), terms["I(U;B|E,S)"] + terms["H(S|E)"]),
            ("R+R_K", (1.0, 1.0), terms["I(U;B|S)"] + terms["H(S)"]),
        ]
        return _build_region(named, meta)
    if which == "thm6":
        named = [
            ("R", (1.0, 0.0), terms["I(U;B|S)"]),
            ("R+R_K", (1.0, 1.0),
             terms["I(U;B|S)"] - terms["I(U;E|S)"] + terms["H(S|E)"]),
        ]
        return _build_region(named, meta)
    raise ValueError(f"unknown region selector {which!r}")


def _policy_meta(policy: AuxiliaryPolicy) -> dict:
    return {"p_u_s": policy.p_u_s.tolist(), "p_a_us": policy.p_a_us.tolist()}


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
    decomposed = {
        "I(U;B)": terms["I(U;B|S)"] + terms["H(S)"],
        "I(U;S)": terms["H(S)"],
        "I(U;E)": terms["I(U;E|S)"] + terms["H(S)"] - terms["H(S|E)"],
    }
    return {
        "raw": raw,
        "decomposed": decomposed,
        "identity_deviation": max(abs(raw[k] - decomposed[k]) for k in raw),
        "key_capacity_value": raw["I(U;B)"] - raw["I(U;E)"],
        "key_capacity_direct": terms["I(U;B|S)"] - terms["I(U;E|S)"] + terms["H(S|E)"],
        "terms": terms,
    }


# ---------------------------------------------------------------------------
# Auxiliary-policy optimization

@dataclass(frozen=True)
class SearchConfig:
    restarts: int = 40
    refine_passes: int = 2
    levels: int = 32
    num_u: int | None = None  # default |A| * |S| + 3
    seed: int = 0
    repair_iters: int = 60


def _project_simplex_rows(x: np.ndarray) -> np.ndarray:
    """Euclidean projection of each trailing-axis row onto the simplex."""
    u = np.sort(x, axis=-1)[..., ::-1]
    css = np.cumsum(u, axis=-1) - 1.0
    ks = np.arange(1, x.shape[-1] + 1)
    # k: the last position (1-based) where u - css / ks is positive
    k = x.shape[-1] - np.argmax((u - css / ks > 0)[..., ::-1], axis=-1, keepdims=True)
    return np.maximum(x - np.take_along_axis(css, k - 1, axis=-1) / k, 0.0)


def _covert_repair(problem: ClassicalProblem, p_u_s: np.ndarray,
                   p_a_us: np.ndarray, cfg: Numerics,
                   iters: int) -> np.ndarray | None:
    """Alternate projections onto the covertness-affine set and the simplex.

    For fixed P(u|s) the warden distribution is affine in the flattened
    P(a|u,s); the affine projection is a minimum-norm least-squares
    correction.  Returns the repaired table or None when the iteration
    stalls outside tolerance.
    """
    nu, ns, na = p_a_us.shape
    ne = problem.w.shape[3]
    w_e = problem.w_e()  # (a, s, e)
    coef = np.einsum("s,su->us", problem.q_s, p_u_s)  # (u, s)
    # a_mat[e, (u * ns + s) * na + a] = coef[u, s] * w_e[a, s, e]
    a_mat = (coef[None, :, :, None] * w_e.transpose(2, 1, 0)[:, None]).reshape(ne, -1)
    b = problem.q0()
    pinv = np.linalg.pinv(a_mat)

    x = p_a_us.reshape(-1).copy()
    for _ in range(iters):
        x = x + pinv @ (b - a_mat @ x)
        x = _project_simplex_rows(x.reshape(nu * ns, na)).reshape(-1)
        if total_variation(a_mat @ x, b) <= cfg.covert_tol:
            return x.reshape(nu, ns, na)
    return None


def _objective(problem: ClassicalProblem, policy: AuxiliaryPolicy, which: str,
               weights: tuple[float, float], stealth: bool,
               cfg: Numerics) -> float:
    try:
        res = classical_region_evaluate(problem, policy, which,
                                        stealth=stealth, cfg=cfg)
    except CovertInfeasible:
        return -math.inf
    if isinstance(res, RateRegion):
        return res.scalarized_max(*weights)[0]
    return float(res)


def optimize_auxiliary(problem: ClassicalProblem, weights: tuple[float, float],
                       which: str, search: SearchConfig = SearchConfig(), *,
                       stealth: bool = False,
                       cfg: Numerics = DEFAULT) -> tuple[AuxiliaryPolicy, float]:
    """Best-found policy for a scalarized region objective.

    Seeded random restarts, each repaired onto the covertness constraint,
    then coordinate-exchange refinement on a discretized simplex.  The
    reported value is a lower bound on the supremum at the configured
    auxiliary cardinality.  Raises :class:`CovertInfeasible` when no
    restart reaches the covertness tolerance.
    """
    na, ns = problem.sizes["A"], problem.sizes["S"]
    nu = search.num_u or (na * ns + 3)
    rng = np.random.default_rng(search.seed)

    best: tuple[float, bytes, AuxiliaryPolicy] | None = None

    def consider(p_u_s: np.ndarray, p_a_us: np.ndarray):
        nonlocal best
        pol = AuxiliaryPolicy(p_u_s, p_a_us, cfg)
        val = _objective(problem, pol, which, weights, stealth, cfg)
        if val == -math.inf:
            return None
        key = np.concatenate([p_u_s.ravel(), p_a_us.ravel()]).tobytes()
        if best is None or val > best[0] + 1e-12 or (abs(val - best[0]) <= 1e-12
                                                     and key < best[1]):
            best = (val, key, pol)
        return val

    for _ in range(search.restarts):
        p_u_s = rng.dirichlet(np.ones(nu), size=ns)
        p_a_us = rng.dirichlet(np.ones(na), size=(nu, ns))
        if not stealth:
            repaired = _covert_repair(problem, p_u_s, p_a_us, cfg,
                                      search.repair_iters)
            if repaired is None:
                continue
            p_a_us = repaired
        consider(p_u_s, p_a_us)

    if best is None:
        raise CovertInfeasible("no restart satisfied the covertness constraint")

    fracs = (1.0, 0.5, 0.25, 0.125, 1.0 / search.levels)
    for _ in range(search.refine_passes):
        cur_val, _, pol = best
        cur_us, cur_aus = pol.p_u_s, pol.p_a_us
        for table_id in (0, 1):
            shape = (cur_us if table_id == 0 else cur_aus).shape
            nrow = int(np.prod(shape[:-1]))
            ncol = shape[-1]
            for ridx in range(nrow):
                for i in range(ncol):
                    for j in range(ncol):
                        if i == j:
                            continue
                        for frac in fracs:
                            table = (cur_us if table_id == 0
                                     else cur_aus).reshape(nrow, ncol).copy()
                            if table[ridx, i] <= 1e-15:
                                break
                            move = frac * table[ridx, i]
                            table[ridx, i] -= move
                            table[ridx, j] += move
                            cand = table.reshape(shape)
                            trial_us = cand if table_id == 0 else cur_us
                            trial_aus = cur_aus if table_id == 0 else cand
                            if not stealth:
                                rep = _covert_repair(problem, trial_us, trial_aus,
                                                     cfg, search.repair_iters)
                                if rep is None:
                                    continue
                                trial_aus = rep
                            val = consider(trial_us, trial_aus)
                            if val is not None and val > cur_val + 1e-9:
                                cur_us, cur_aus, cur_val = trial_us, trial_aus, val
                                break

    return best[2], best[0]


# ---------------------------------------------------------------------------
# Causal rate

def _best_causal(kept, stealth: bool) -> dict:
    """Best I(U;B) over the (I(U;B), I(U;E)) pairs of the kept candidates
    (the covert ones, or all under ``stealth``) with I(U;B) > I(U;E)."""
    pairs = list(kept)
    if not pairs and not stealth:
        raise CovertInfeasible("no candidate policy is covert-feasible")
    side = [iub for iub, iue in pairs if iub > iue - 1e-12]
    return {"rate": max([0.0, *side]), "side_condition_met": bool(side),
            "covert_feasible": bool(pairs)}


def causal_rate(problem: ClassicalProblem, candidates, *, stealth: bool = False,
                cfg: Numerics = DEFAULT) -> dict:
    """Best causal-policy rate over explicit (p_u, w_a_us) candidates.

    Causality means the auxiliary symbol is drawn before the state is
    seen, so P(u|s) = p_u; each candidate contributes I(U;B) when it is
    covert-feasible and satisfies I(U;B) > I(U;E).
    """
    ns = problem.sizes["S"]

    def kept():
        for p_u, w_a_us in candidates:
            pol = AuxiliaryPolicy(np.tile(p_u, (ns, 1)), w_a_us, cfg)
            tv = total_variation(induced_warden_distribution(problem, pol), problem.q0())
            if stealth or tv <= cfg.covert_tol:
                terms = classical_info_terms(joint_table(problem, pol), cfg)
                yield terms["I(U;B)"], terms["I(U;E)"]

    return _best_causal(kept(), stealth)


def causal_rate_quantum(instance: ProblemInstance, candidates, *,
                        stealth: bool = False, cfg: Numerics = DEFAULT) -> dict:
    """Quantum version: candidates are (p_u, per-label channels Sbar -> A).

    Each per-label channel acts on the transmitter's share of the
    bipartite state, which must therefore be supplied in full.
    """
    csi = instance.csi
    if set(csi.factor_names) != {"Sbar", "S"}:
        raise DimMismatch("quantum causal evaluation needs the bipartite (Sbar, S) state")
    rho0 = innocent_output(instance, cfg)
    d_s = csi.factor_dim("S")

    def kept():
        for p_u, chans in candidates:
            outs = [("A", chans[0].dim_out), ("S", d_s)]
            conds = np.stack([QuantumChannel(np.kron(g.kraus, np.eye(d_s)), csi.factors,
                                             outs, cfg=cfg).apply_matrix(csi.matrix)
                              for g in chans])
            ens = CQState(range(len(chans)), p_u, DensityMatrix(conds, outs, validate=False))
            st = induced_states(ens, instance.channel, cfg)
            if stealth or st.covert_gap(rho0)[1]:
                yield holevo_mutual_info(st.cq_ub, cfg), holevo_mutual_info(st.cq_ue, cfg)

    return _best_causal(kept(), stealth)


# ---------------------------------------------------------------------------
# Fourier-Motzkin projection check

def fm_projection_grid(a: float, b: float, c: float, step: float
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Grid membership masks for the raw three-rate system and its projection.

    The raw system over (R_J, R_K, R) requires R_J + R_K >= a,
    R_J + R_K + R <= b and R_J + R >= c (closures of the strict coding
    constraints); the sweep eliminates R_J by brute force.  The projected
    description is R <= b - a, R_K <= b - c, R + R_K <= b.
    """
    tol = 1e-9  # slack for the rounding of grid sums
    n = int(round(max(b, 0.0) / step)) + 1
    r = np.arange(n) * step
    rk = np.arange(n) * step
    rj = np.arange(n) * step
    rr, kk = np.meshgrid(r, rk, indexing="ij")
    jj = rj[None, None, :]
    feas = ((jj + kk[:, :, None] >= a - tol)
            & (jj + kk[:, :, None] + rr[:, :, None] <= b + tol)
            & (jj + rr[:, :, None] >= c - tol))
    swept = feas.any(axis=2)
    direct = (rr <= b - a + tol) & (kk <= b - c + tol) & (rr + kk <= b + tol)
    return r, rk, swept, direct


def fm_check(a: float, b: float, c: float, step: float = 0.02) -> bool:
    """Grid equality of the eliminated projection and its closed form.

    Both inclusions are checked per grid point.  Intended for grid-aligned
    (a, b, c); off-grid thresholds can round a boundary row differently on
    the two sides.
    """
    if min(a, b, c) < 0.0:
        raise ValueError("thresholds must be nonnegative")
    if b <= 0.0:
        return True  # both sides empty (or the origin only, on both sides)
    _, _, swept, direct = fm_projection_grid(a, b, c, step)
    return bool(np.array_equal(swept, direct))
