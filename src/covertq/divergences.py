"""Distance and divergence functionals, all in bits (base-2 logs).

Inverse powers of the second argument are taken on its support; when the
first argument has mass outside that support and the order calls for an
inverse, the divergence is reported as +inf with ``support_violation``
set instead of propagating NaNs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT, Numerics
from .errors import DimMismatch, NotADistribution, OrderOutOfRange
from .linalg import dagger, eig_hermitian, eigvals_hermitian, mat_fn, trace_norm
from .states import CQState, DensityMatrix

__all__ = [
    "DivergenceValue",
    "trace_distance",
    "fidelity",
    "purified_distance",
    "relative_entropy",
    "sandwiched_renyi",
    "cq_sandwiched_renyi",
    "von_neumann_entropy",
    "holevo_mutual_info",
    "classical_info_terms",
    "entropy_of_table",
]

LN2 = math.log(2.0)


@dataclass(frozen=True)
class DivergenceValue:
    """A divergence in bits; +inf marks a support violation."""

    value: float
    support_violation: bool = False

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.value)

    def __float__(self) -> float:
        return self.value


def _mat(x) -> np.ndarray:
    return x.matrix if isinstance(x, DensityMatrix) else np.asarray(x, dtype=np.complex128)


def _check_dims(rho, sigma) -> tuple[np.ndarray, np.ndarray]:
    r, s = _mat(rho), _mat(sigma)
    if r.shape != s.shape:
        raise DimMismatch(f"state dims differ: {r.shape} vs {s.shape}")
    return r, s


def trace_distance(rho, sigma, cfg: Numerics = DEFAULT) -> float:
    """||rho - sigma||_1, in [0, 2]."""
    r, s = _check_dims(rho, sigma)
    return trace_norm(r - s, cfg)


def fidelity(rho, sigma, cfg: Numerics = DEFAULT):
    """tr sqrt(sqrt(rho) sigma sqrt(rho)), in [0, 1].

    Eigenvalues below the relative support cutoff are dropped before the
    square root; rounding junk at +1e-16 would otherwise contribute 1e-8
    each.  Stacks ``(..., d, d)`` broadcast against each other and give an
    array of fidelities; the root is taken once per matrix of ``rho``.
    """
    r, s = _mat(rho), _mat(sigma)
    if r.shape[-2:] != s.shape[-2:]:
        raise DimMismatch(f"state dims differ: {r.shape} vs {s.shape}")
    root = mat_fn(r, math.sqrt, cfg=cfg)
    inner = root @ s @ root
    w = eigvals_hermitian(0.5 * (inner + dagger(inner)), cfg)
    cut = cfg.support_tol * np.max(np.abs(w), axis=-1, keepdims=True, initial=0.0)
    f = np.clip(np.sum(np.sqrt(np.where(w > cut, w, 0.0)), axis=-1), 0.0, 1.0)
    return float(f) if f.ndim == 0 else f


def purified_distance(rho, sigma, cfg: Numerics = DEFAULT) -> float:
    """sqrt(1 - F^2), in [0, 1]."""
    f = fidelity(rho, sigma, cfg)
    return math.sqrt(max(0.0, 1.0 - f * f))


def _support_mass_outside(rho_m: np.ndarray, sigma_spec, cutoff: float) -> float:
    """Mass of rho outside the support of sigma (from sigma's spectrum)."""
    w, v = sigma_spec.eigenvalues, sigma_spec.eigenvectors
    mass = 0.0
    for i, lam in enumerate(w):
        if lam <= cutoff:
            vec = v[:, i]
            mass += float(np.real(np.vdot(vec, rho_m @ vec)))
    return mass


def relative_entropy(rho, sigma, cfg: Numerics = DEFAULT) -> DivergenceValue:
    """tr[rho (log2 rho - log2 sigma)]; +inf on support violation."""
    r, s = _check_dims(rho, sigma)
    s_spec = eig_hermitian(s, cfg)
    s_cut = cfg.support_tol * float(np.max(np.abs(s_spec.eigenvalues), initial=0.0))
    if _support_mass_outside(r, s_spec, s_cut) > cfg.support_mass_tol:
        return DivergenceValue(math.inf, support_violation=True)

    r_spec = eig_hermitian(r, cfg)
    r_cut = cfg.support_tol * float(np.max(np.abs(r_spec.eigenvalues), initial=0.0))
    ent = sum(lam * math.log2(lam) for lam in r_spec.eigenvalues if lam > r_cut)
    log_s = mat_fn(s, math.log2, cfg=cfg)
    cross = float(np.real(np.trace(r @ log_s)))
    return DivergenceValue(max(0.0, ent - cross))


def _renyi_alpha(order: float) -> float:
    alpha = order - 1.0
    if alpha <= -1.0 or alpha == 0.0:
        raise OrderOutOfRange(f"order {order} outside (0,1) u (1,inf)")
    return alpha


def renyi_sandwich_power(sigma, order: float, cfg: Numerics = DEFAULT) -> np.ndarray:
    """sigma^(-alpha / (2(1+alpha))) on the support of sigma.

    Precompute this when evaluating the same second argument against many
    first arguments (Monte Carlo loops).
    """
    alpha = _renyi_alpha(order)
    expo = -alpha / (2.0 * (1.0 + alpha))
    return mat_fn(_mat(sigma), lambda x: x ** expo, cfg=cfg)


def sandwiched_renyi(rho, sigma, order: float, cfg: Numerics = DEFAULT,
                     sigma_power: np.ndarray | None = None) -> DivergenceValue:
    """Sandwiched Renyi relative entropy of the given order (1+alpha).

    For order > 1 the support of rho must lie inside the support of sigma,
    otherwise +inf is returned with the violation flag.  Orders in (0, 1)
    are reached by passing them directly (e.g. 1 - alpha).
    """
    r, s = _check_dims(rho, sigma)
    alpha = _renyi_alpha(order)

    if alpha > 0.0:
        s_spec = eig_hermitian(s, cfg)
        s_cut = cfg.support_tol * float(np.max(np.abs(s_spec.eigenvalues), initial=0.0))
        if _support_mass_outside(r, s_spec, s_cut) > cfg.support_mass_tol:
            return DivergenceValue(math.inf, support_violation=True)

    w_op = renyi_sandwich_power(s, order, cfg) if sigma_power is None else sigma_power
    inner = w_op @ r @ w_op
    w = eigvals_hermitian(0.5 * (inner + dagger(inner)), cfg)
    cut = cfg.support_tol * float(np.max(np.abs(w), initial=0.0))
    tr_term = float(np.sum(np.maximum(w[w > cut], 0.0) ** (1.0 + alpha)))
    if tr_term <= 0.0:
        return DivergenceValue(math.inf, support_violation=True)
    return DivergenceValue(math.log2(tr_term) / alpha)


def cq_sandwiched_renyi(cq: CQState, order: float,
                        cfg: Numerics = DEFAULT) -> DivergenceValue:
    """Sandwiched divergence of a cq state against the product of its marginals.

    For block-diagonal cq states the sandwiched trace splits into one term
    per label, so this costs |U| small eigenproblems instead of one large
    one.  Agrees with :func:`sandwiched_renyi` applied to the full joint
    and product matrices.
    """
    alpha = _renyi_alpha(order)
    sigma = cq.average()
    w_op = renyi_sandwich_power(sigma, order, cfg)
    if alpha > 0.0:
        s_spec = eig_hermitian(sigma.matrix, cfg)
        s_cut = cfg.support_tol * float(np.max(np.abs(s_spec.eigenvalues), initial=0.0))
        for p, c in zip(cq.probs, cq.conditionals):
            if p > 0.0 and _support_mass_outside(c.matrix, s_spec, s_cut) > cfg.support_mass_tol:
                return DivergenceValue(math.inf, support_violation=True)

    total = 0.0
    for p, c in zip(cq.probs, cq.conditionals):
        if p <= 0.0:
            continue
        inner = w_op @ c.matrix @ w_op
        w = eigvals_hermitian(0.5 * (inner + dagger(inner)), cfg)
        cut = cfg.support_tol * float(np.max(np.abs(w), initial=0.0))
        total += p * float(np.sum(np.maximum(w[w > cut], 0.0) ** (1.0 + alpha)))
    if total <= 0.0:
        return DivergenceValue(math.inf, support_violation=True)
    return DivergenceValue(math.log2(total) / alpha)


def von_neumann_entropy(rho, cfg: Numerics = DEFAULT) -> float:
    """-tr[rho log2 rho], in [0, log2 dim]."""
    w = eigvals_hermitian(_mat(rho), cfg)
    cut = cfg.support_tol * float(np.max(np.abs(w), initial=0.0))
    return float(-sum(lam * math.log2(lam) for lam in w if lam > cut))


def holevo_mutual_info(cq: CQState, cfg: Numerics = DEFAULT) -> float:
    """I(U;X) of a cq state: S(avg) - sum_u p(u) S(rho_u)."""
    s_avg = von_neumann_entropy(cq.average(), cfg)
    s_cond = sum(p * von_neumann_entropy(c, cfg)
                 for p, c in zip(cq.probs, cq.conditionals) if p > 0.0)
    return max(0.0, s_avg - s_cond)


# ---------------------------------------------------------------------------
# Classical entropic terms

def entropy_of_table(table: np.ndarray) -> float:
    """Shannon entropy in bits of an unnormalized-safe probability array."""
    p = np.asarray(table, dtype=np.float64).ravel()
    p = p[p > 0.0]
    return float(-np.sum(p * np.log2(p)))


def _marg(table: np.ndarray, keep_axes: tuple[int, ...]) -> np.ndarray:
    drop = tuple(i for i in range(table.ndim) if i not in keep_axes)
    return table.sum(axis=drop) if drop else table


def classical_info_terms(joint: np.ndarray, cfg: Numerics = DEFAULT) -> dict[str, float]:
    """Entropic terms of a joint table with axes ordered (U, S, B, E).

    Returns the conditional informations and entropies the classical rate
    expressions are built from, with an internal chain-rule consistency
    check.
    """
    p = np.asarray(joint, dtype=np.float64)
    if p.ndim != 4:
        raise NotADistribution(f"expected a 4-axis (U,S,B,E) table, got {p.ndim} axes")
    if np.any(p < -cfg.prob_tol):
        raise NotADistribution(f"negative entry {p.min()}")
    if abs(float(p.sum()) - 1.0) > 1e-9:
        raise NotADistribution(f"table sums to {p.sum()}, expected 1")
    p = np.maximum(p, 0.0)

    U, S, B, E = 0, 1, 2, 3

    def H(*axes: int) -> float:
        return entropy_of_table(_marg(p, tuple(sorted(axes))))

    terms = {
        "H(S)": H(S),
        "H(S|E)": H(S, E) - H(E),
        "I(U;S)": H(U) + H(S) - H(U, S),
        "I(U;B)": H(U) + H(B) - H(U, B),
        "I(U;E)": H(U) + H(E) - H(U, E),
        "I(U;B|S)": H(U, S) + H(B, S) - H(S) - H(U, B, S),
        "I(U;E|S)": H(U, S) + H(E, S) - H(S) - H(U, E, S),
        "I(U;B|E,S)": H(U, E, S) + H(B, E, S) - H(E, S) - H(U, B, E, S),
    }

    # Chain rule I(U;B,S) = I(U;S) + I(U;B|S), evaluated two ways.
    lhs = H(U) + H(B, S) - H(U, B, S)
    rhs = terms["I(U;S)"] + terms["I(U;B|S)"]
    if abs(lhs - rhs) > 1e-9:
        raise RuntimeError(f"chain-rule self-check failed: {lhs} vs {rhs}")
    return terms
