"""Pinching maps, distinct-eigenvalue counts, and spectral projections.

Pinching dephases a state in the eigenbasis of a reference state.  It is
implemented with eigenspace projectors (one per distinct eigenvalue after
tolerance grouping) rather than rank-one terms, so degenerate eigenspaces
are preserved and the multiplicative blow-up factor equals the distinct
eigenvalue count v.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import prod

import numpy as np

from .config import DEFAULT, Numerics
from .errors import DimMismatch
from .linalg import dagger, eig_hermitian
from .states import CQState, DensityMatrix

__all__ = [
    "PinchingBasis",
    "distinct_eigenspaces",
    "eigencount",
    "pinch_matrix",
    "projector_geq",
    "decoder_projector_blocks",
    "projector_test_values",
    "tensor_power_eigencount",
]


@dataclass(frozen=True)
class PinchingBasis:
    """Grouped eigenspaces of a reference state, or of each in a stack.

    ``v`` counts the groups, ``eigenvalues`` holds their values (ascending)
    and ``projectors`` their projectors, summing to the identity; the group
    axis comes first, and a stack pads to its largest v with NaN and zeros.
    """

    v: int | np.ndarray
    eigenvalues: np.ndarray
    projectors: np.ndarray


def _gaps(w: np.ndarray, group_tol: float) -> np.ndarray:
    """Gap pattern of each row of ascending values (last axis): a group ends
    wherever the gap to the next value exceeds the tolerance, relative to
    the row's largest magnitude."""
    thr = group_tol * np.max(np.abs(w), axis=-1, keepdims=True, initial=0.0)
    return np.diff(w) > thr


def _pattern_rows(gaps: np.ndarray) -> list[tuple[np.ndarray, np.ndarray | slice]]:
    """Each distinct row of ``gaps`` with the rows that have it: a slice of
    all rows when they share one pattern, as the states of a random stack do."""
    if (gaps == gaps[:1]).all():
        return [(gaps[0], slice(None))]
    patterns, which = np.unique(gaps, axis=0, return_inverse=True)
    return [(p, np.flatnonzero(which.reshape(-1) == k)) for k, p in enumerate(patterns)]


def _groups(w: np.ndarray, gaps: np.ndarray):
    """Each group of each gap pattern of the rows ``w``: its index, the rows
    that have the pattern, its column range and its value, the mean of its
    eigenvalues in those rows."""
    for pattern, rows in _pattern_rows(gaps):
        edges = [0, *(np.flatnonzero(pattern) + 1), w.shape[-1]]
        for g, (lo, hi) in enumerate(zip(edges, edges[1:])):
            yield g, rows, lo, hi, w[rows, lo:hi].sum(axis=-1) / (hi - lo)


def _grouping(sigma, cfg: Numerics):
    """The grouping of a state, or of each in a stack, by one eigensolver
    call: its spectrum, its count v (an int, or an array shaped like the
    stack), and its groups (:func:`_groups`, read lazily, so a count
    builds none).

    Eigenvalues within ``cfg.group_tol`` (relative to the largest) of each
    other merge into one group; merging is deliberately conservative
    because the count v enters bounds multiplicatively.
    """
    m = sigma.matrix if isinstance(sigma, DensityMatrix) else np.asarray(sigma, complex)
    spec = eig_hermitian(m, cfg)
    w = spec.eigenvalues.reshape(-1, m.shape[-1])
    gaps = _gaps(w, cfg.group_tol)
    v, stack = np.count_nonzero(gaps, axis=-1) + 1, m.shape[:-2]
    return spec, v.reshape(stack) if stack else int(v[0]), _groups(w, gaps)


def eigencount(sigma, cfg: Numerics = DEFAULT) -> int | np.ndarray:
    """The distinct eigenvalue count v of :func:`distinct_eigenspaces`, with
    no projectors: an int, or an array shaped like the stack."""
    return _grouping(sigma, cfg)[1]


def distinct_eigenspaces(sigma, cfg: Numerics = DEFAULT) -> PinchingBasis:
    """Eigenspace decomposition of a state with near-degenerate grouping
    (:func:`_grouping`).

    A stack ``(..., d, d)`` takes one eigensolver call and gives one stacked
    basis; each group of each gap pattern is filled by one stacked product
    of column slices (a masked product would move bits).
    """
    spec, v, groups = _grouping(sigma, cfg)
    d, stack = spec.eigenvalues.shape[-1], spec.eigenvalues.shape[:-1]
    c = spec.eigenvectors.reshape(-1, d, d)
    values = np.full((np.max(v), len(c)), np.nan)
    projectors = np.zeros((np.max(v), len(c), d, d), dtype=np.complex128)
    for g, rows, lo, hi, value in groups:
        values[g, rows] = value
        cols = c[rows, :, lo:hi]
        projectors[g, rows] = cols @ dagger(cols)
    return PinchingBasis(v, values.reshape(-1, *stack), projectors.reshape(-1, *stack, d, d))


def pinch_matrix(m: np.ndarray, basis: PinchingBasis) -> np.ndarray:
    """sum_i P_i m P_i for the eigenspace projectors of the basis, of a
    matrix or of each in a stack ``(..., d, d)``; a stacked basis pinches the
    matrices at its own trailing stack indices (its padding adds exact zeros)."""
    p = basis.projectors
    if m.shape[-1] != p.shape[-1]:
        raise DimMismatch(f"matrix dim {m.shape[-1]} != basis dim {p.shape[-1]}")
    p = p.reshape(p.shape[:1] + (1,) * (m.ndim + 1 - p.ndim) + p.shape[1:])
    return np.sum(p @ m @ p, axis=0)


def projector_geq(a: np.ndarray, b: np.ndarray, cfg: Numerics = DEFAULT) -> np.ndarray:
    """Spectral projector onto the nonnegative part of a - b.

    Zero eigenvalues are included (so equal operators give the identity);
    a relative rounding slack keeps that inclusion stable against
    eigensolver noise.
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.shape != b.shape:
        raise DimMismatch(f"shapes differ: {a.shape} vs {b.shape}")
    # Inputs are Hermitian by contract; rounding of the difference scales
    # with magnitude, so repair it instead of re-checking absolutely.
    diff = a - b
    diff = 0.5 * (diff + dagger(diff))
    spec = eig_hermitian(diff, cfg)
    w = spec.eigenvalues
    slack = 1e-12 * float(np.max(np.abs(w), initial=0.0))
    cols = spec.eigenvectors[:, w >= -slack]
    return cols @ dagger(cols)


def decoder_projector_blocks(cq_ub: CQState, threshold_exponent: float,
                             rho_b: DensityMatrix | None = None,
                             cfg: Numerics = DEFAULT) -> np.ndarray:
    """Per-label blocks of the decoding projector, one stack ``(labels, d, d)``.

    The projector tests whether the pinched conditional output exceeds
    2^threshold times the averaged output; it is block diagonal over the
    classical label, so one block per label suffices.  Labels with zero
    probability get the identity block (the zero-vs-zero convention).
    """
    if rho_b is None:
        rho_b = cq_ub.average()
    pinched = pinch_matrix(cq_ub.matrices, distinct_eigenspaces(rho_b, cfg=cfg))
    thresh = 2.0 ** threshold_exponent
    return np.stack([projector_geq(m, thresh * rho_b.matrix, cfg) if p > 0.0
                     else np.eye(cq_ub.quantum_dim, dtype=np.complex128)
                     for p, m in zip(cq_ub.probs, pinched)])


def projector_test_values(cq_ub: CQState, threshold_exponent: float,
                          cfg: Numerics = DEFAULT) -> tuple[float, float]:
    """Exact miss and false-alarm traces of the decoding projector.

    Returns (tr[(I - Pi) rho_UB], tr[Pi (rho_U x rho_B)]), evaluated
    blockwise.
    """
    rho_b = cq_ub.average()
    blocks = decoder_projector_blocks(cq_ub, threshold_exponent, rho_b, cfg)
    on = cq_ub.probs > 0.0
    tests = np.stack([(np.eye(cq_ub.quantum_dim) - blocks) @ cq_ub.matrices,
                      blocks @ rho_b.matrix], axis=1)[on]  # (labels, 2, d, d)
    terms = cq_ub.probs[on, None] * np.real(np.trace(tests, axis1=-2, axis2=-1))
    miss, alarm = np.sum(terms, axis=0)  # label by label, in label order
    return max(0.0, float(miss)), max(0.0, float(alarm))


def tensor_power_eigencount(sigma, n: int, cfg: Numerics = DEFAULT) -> int:
    """Distinct eigenvalue count of the n-fold tensor power of a state.

    Eigenvalues of the power are n-fold products of single-copy
    eigenvalues, so the count is taken over the explicit multiset of
    products (one per occupation type) of its group values, with the same
    relative grouping tolerance as :func:`distinct_eigenspaces`.
    """
    base = [value.item() for *_, value in _grouping(sigma, cfg)[2]]
    vals = sorted(map(prod, combinations_with_replacement(base, n)))
    return int(np.count_nonzero(_gaps(np.asarray(vals, dtype=np.float64), cfg.group_tol))) + 1
