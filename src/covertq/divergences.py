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

from .config import DEFAULT, LAW_SLACK, Numerics
from .errors import DimMismatch, NotADistribution, OrderOutOfRange, SelfCheckFailed
from .linalg import (
    Spectrum,
    dagger,
    eig_hermitian,
    eigvals_hermitian,
    spectral_fn,
    support_cutoff,
    trace_norm,
)
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


@dataclass(frozen=True)
class DivergenceValue:
    """A divergence in bits; +inf marks a support violation.

    For a stack of pairs ``value`` and ``support_violation`` are arrays
    with one entry per pair.
    """

    value: float
    support_violation: bool = False

    @property
    def is_finite(self) -> bool:
        v = self.value
        return math.isfinite(v) if isinstance(v, float) else bool(np.all(np.isfinite(v)))


def _divergence(value: np.ndarray, violation: np.ndarray) -> DivergenceValue:
    if np.ndim(value) == 0:
        return DivergenceValue(float(value), bool(violation))
    return DivergenceValue(value, violation)


def _scalar(x):
    return float(x) if np.ndim(x) == 0 else x


def _mat(x) -> np.ndarray:
    return x.matrix if isinstance(x, DensityMatrix) else np.asarray(x, dtype=np.complex128)


def _check_dims(rho, sigma) -> tuple[np.ndarray, np.ndarray]:
    """Both operands as arrays; stacks ``(..., d, d)`` broadcast."""
    r, s = _mat(rho), _mat(sigma)
    if r.shape[-2:] != s.shape[-2:]:
        raise DimMismatch(f"state dims differ: {r.shape} vs {s.shape}")
    return r, s


def trace_distance(rho, sigma, cfg: Numerics = DEFAULT):
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
    r, s = _check_dims(rho, sigma)
    root = spectral_fn(eig_hermitian(r, cfg), np.sqrt, cfg.support_tol)
    inner = root @ s @ root
    w = eigvals_hermitian(0.5 * (inner + dagger(inner)), cfg)
    cut = support_cutoff(w, cfg.support_tol)
    f = np.clip(np.sum(np.sqrt(np.where(w > cut, w, 0.0)), axis=-1), 0.0, 1.0)
    return _scalar(f)


def purified_distance(rho, sigma, cfg: Numerics = DEFAULT):
    """sqrt(1 - F^2), in [0, 1]."""
    f = fidelity(rho, sigma, cfg)
    return _scalar(np.sqrt(np.maximum(0.0, 1.0 - f * f)))


def _violates_support(rho_m: np.ndarray, sigma_spec: Spectrum,
                      cfg: Numerics) -> np.ndarray:
    """Whether rho has more than ``support_mass_tol`` of its mass outside
    the support of sigma (from sigma's spectrum), per pair of a stack."""
    w, v = sigma_spec.eigenvalues, sigma_spec.eigenvectors
    diag = np.real(np.sum(v.conj() * (rho_m @ v), axis=-2))  # <v_i|rho|v_i>
    outside = w <= support_cutoff(w, cfg.support_tol)
    return np.sum(np.where(outside, diag, 0.0), axis=-1) > cfg.support_mass_tol


def _sigma_fn(sigma_spec: Spectrum, f, violation: np.ndarray,
              cfg: Numerics) -> np.ndarray:
    """f(sigma) on its support, per matrix.  Pairs that violate the support
    condition are +inf whatever f(sigma) is, so their spectra are taken in
    absolute value: a slightly negative sigma then gives +inf, not NotPSD."""
    w = np.where(np.asarray(violation)[..., None], np.abs(sigma_spec.eigenvalues),
                 sigma_spec.eigenvalues)
    return spectral_fn(Spectrum(w, sigma_spec.eigenvectors), f, cfg.support_tol)


def _xlog2x(w: np.ndarray, cfg: Numerics) -> np.ndarray:
    """sum of lam log2 lam over the eigenvalues above the support cutoff."""
    cut = support_cutoff(w, cfg.support_tol)
    on = w > cut
    return np.sum(np.where(on, w * np.log2(np.where(on, w, 1.0)), 0.0), axis=-1)


def relative_entropy(rho, sigma, cfg: Numerics = DEFAULT) -> DivergenceValue:
    """tr[rho (log2 rho - log2 sigma)]; +inf on support violation.

    Stacks ``(..., d, d)`` broadcast and give one value per pair.
    """
    r, s = _check_dims(rho, sigma)
    s_spec = eig_hermitian(s, cfg)
    violation = _violates_support(r, s_spec, cfg)
    ent = _xlog2x(eigvals_hermitian(r, cfg), cfg)
    log_s = _sigma_fn(s_spec, np.log2, violation, cfg)
    cross = np.real(np.trace(r @ log_s, axis1=-2, axis2=-1))
    return _divergence(np.where(violation, math.inf, np.maximum(0.0, ent - cross)),
                       violation)


def _renyi_alpha(order) -> np.ndarray:
    alpha = np.asarray(order, dtype=np.float64) - 1.0
    bad = ~(np.isfinite(alpha) & (alpha > -1.0) & (alpha != 0.0))
    if bad.any():  # the first bad order, as a float even when the orders are stacked
        raise OrderOutOfRange(f"order {float(np.ravel(order)[np.argmax(bad)])} "
                              "outside (0,1) u (1,inf)")
    return alpha


def _sandwich_fn(alpha: np.ndarray):
    # -a/(2(1+a)) to the last bit wherever 2(1+a) is finite, and finite beyond
    expo = (-alpha / (1.0 + alpha) / 2.0)[..., None]
    return lambda w: w ** expo


def renyi_sandwich_power(sigma, order, cfg: Numerics = DEFAULT) -> np.ndarray:
    """sigma^(-alpha / (2(1+alpha))) on the support of sigma.

    Precompute this when evaluating the same second argument against many
    first arguments (Monte Carlo loops).
    """
    return spectral_fn(eig_hermitian(_mat(sigma), cfg), _sandwich_fn(_renyi_alpha(order)),
                       cfg.support_tol)


def _sandwiched_eigenvalues(rho_m: np.ndarray, w_op: np.ndarray,
                            cfg: Numerics) -> np.ndarray:
    """Eigenvalues of w_op rho w_op, with those at or below the cutoff set to 0."""
    inner = w_op @ rho_m @ w_op
    w = eigvals_hermitian(0.5 * (inner + dagger(inner)), cfg)
    return np.where(w > support_cutoff(w, cfg.support_tol), w, 0.0)


def _log_ratio(w: np.ndarray, alpha: np.ndarray, violation: np.ndarray,
               probs: np.ndarray | None = None) -> DivergenceValue:
    """log2(tr_term) / alpha, and +inf with the flag on a support violation
    or a vanishing trace.  ``tr_term`` sums ``w^(1+alpha)`` over the last axis
    of the sandwiched eigenvalues ``w``, then, given ``probs``, over the labels.

    Where that overflows to inf, or underflows to 0 although some w > 0
    (large orders), the largest w of all labels is factored out, and each
    part divided by alpha on its own:
    log2 tr_term = (1+alpha) log2 w_max + log2 sum (w / w_max)^(1+alpha).
    """
    axes = (-1,) if probs is None else (-2, -1)
    lift = (..., *(None,) * len(axes))  # appends the summed axes
    expo = (1.0 + alpha)[lift]

    def trace(x: np.ndarray) -> np.ndarray:
        t = np.sum(x ** expo, axis=-1)
        return t if probs is None else np.sum(probs * t, axis=-1)

    with np.errstate(over="ignore"):
        tr_term = trace(w)
        bad = violation | (tr_term <= 0.0)
        value = np.where(bad, math.inf, np.log2(np.where(bad, 1.0, tr_term)) / alpha)
        fix = np.isinf(value) & ~violation
        if fix.any():
            top = np.max(w, axis=axes)
            fix &= top > 0.0
            top = np.where(fix, top, 1.0)
            rest = np.where(fix, trace(w / top[lift]), 1.0)
            value = np.where(fix, np.log2(top) * ((1.0 + alpha) / alpha)
                             + np.log2(rest) / alpha, value)
            bad &= ~fix
    return _divergence(value, bad)


def sandwiched_renyi(rho, sigma, order, cfg: Numerics = DEFAULT,
                     sigma_power: np.ndarray | None = None) -> DivergenceValue:
    """Sandwiched Renyi relative entropy of the given order (1+alpha).

    For order > 1 the support of rho must lie inside the support of sigma,
    otherwise +inf is returned with the violation flag.  Orders in (0, 1)
    are reached by passing them directly (e.g. 1 - alpha).  Stacks
    ``(..., d, d)`` broadcast and give one value per pair; ``order`` may
    then be an array with one order per pair, or ``orders[:, None]`` for
    every order on every pair: bitwise the values of one scalar call per
    order, except at orders 0.5 and 2.0, where a scalar order lets numpy take
    ``w ** 0.5`` as a square root and ``w ** 2`` as a square (on 602 random
    pairs, d = 2..8, they differed in 148 and 15; batching order 0.5 in the
    ``dataprocessing`` suite moved its loose-numerics details at seeds 2, 4).
    """
    r, s = _check_dims(rho, sigma)
    alpha = _renyi_alpha(order)
    s_spec = eig_hermitian(s, cfg)
    violation = (alpha > 0.0) & _violates_support(r, s_spec, cfg)
    if sigma_power is None:
        sigma_power = _sigma_fn(s_spec, _sandwich_fn(alpha), violation, cfg)
    return _log_ratio(_sandwiched_eigenvalues(r, sigma_power, cfg), alpha, violation)


def _weighted_conditionals(cq: CQState) -> tuple[np.ndarray, np.ndarray]:
    """Probabilities and stacked conditionals of the labels with p > 0."""
    keep = cq.probs > 0.0
    return cq.probs[keep], cq.matrices[keep]


def cq_sandwiched_renyi(cq: CQState, order,
                        cfg: Numerics = DEFAULT) -> DivergenceValue:
    """Sandwiched divergence of a cq state against the product of its marginals.

    For block-diagonal cq states the sandwiched trace splits into one term
    per label, so this costs one stacked eigenproblem over the labels
    instead of one large one.  Agrees with :func:`sandwiched_renyi` applied
    to the full joint and product matrices.  An array of orders ``(k,)``
    gives one value per order, bitwise those of one call per order except
    at orders 0.5 and 2.0 (see :func:`sandwiched_renyi`; on 200 random cq
    states they differed in 47 and 9): the average is diagonalised and the
    support checked once for all of them.
    """
    alpha = _renyi_alpha(order)
    probs, conds = _weighted_conditionals(cq)
    s_spec = eig_hermitian(cq.average().matrix, cfg)
    violation = (alpha > 0.0) & _violates_support(conds, s_spec, cfg).any()
    w_op = _sigma_fn(s_spec, _sandwich_fn(alpha), violation, cfg)
    w = _sandwiched_eigenvalues(conds, w_op[..., None, :, :], cfg)
    return _log_ratio(w, alpha, violation, probs)


def von_neumann_entropy(rho, cfg: Numerics = DEFAULT):
    """-tr[rho log2 rho], in [0, log2 dim]; a stack gives one per matrix."""
    return _scalar(-_xlog2x(eigvals_hermitian(_mat(rho), cfg), cfg))


def holevo_mutual_info(cq: CQState, cfg: Numerics = DEFAULT) -> float:
    """I(U;X) of a cq state: S(avg) - sum_u p(u) S(rho_u)."""
    probs, conds = _weighted_conditionals(cq)
    s_avg = von_neumann_entropy(cq.average(), cfg)
    s_cond = sum(p * s for p, s in zip(probs, von_neumann_entropy(conds, cfg)))
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
    if abs(float(p.sum()) - 1.0) > LAW_SLACK:
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
        raise SelfCheckFailed(f"chain-rule self-check failed: {lhs} vs {rhs}")
    return terms
