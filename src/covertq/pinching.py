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
from .linalg import block_diag, dagger, eig_hermitian
from .states import CQState, DensityMatrix

__all__ = [
    "PinchingBasis",
    "distinct_eigenspaces",
    "pinch",
    "pinch_matrix",
    "projector_geq",
    "decoder_projector_blocks",
    "decoder_projector",
    "projector_test_values",
    "tensor_power_eigencount",
]


@dataclass(frozen=True)
class PinchingBasis:
    """Grouped eigenspaces of a reference state.

    ``eigenvalues`` holds one representative value per group (ascending),
    ``projectors`` the matching eigenspace projectors, one stack ``(v, d,
    d)`` summing to the identity, and ``v`` the distinct-eigenvalue count.
    """

    eigenvalues: np.ndarray
    projectors: np.ndarray

    @property
    def v(self) -> int:
        return len(self.projectors)

    @property
    def dim(self) -> int:
        return self.projectors.shape[-1]


def _group_values(w: np.ndarray, group_tol: float) -> np.ndarray:
    """Start of every group of ascending values but the first: a group
    ends wherever the gap to the next value exceeds the tolerance."""
    thr = group_tol * float(np.max(np.abs(w), initial=0.0))
    return np.flatnonzero(np.diff(w) > thr) + 1


def distinct_eigenspaces(sigma, cfg: Numerics = DEFAULT) -> PinchingBasis | list[PinchingBasis]:
    """Eigenspace decomposition of a state with near-degenerate grouping.

    Eigenvalues within ``cfg.group_tol`` (relative to the largest) of each
    other merge into one eigenspace; merging is deliberately conservative
    because the count v enters bounds multiplicatively.  A stack
    ``(k, d, d)`` gives a list of k bases from one eigensolver call.
    """
    m = sigma.matrix if isinstance(sigma, DensityMatrix) else np.asarray(sigma, complex)
    spec = eig_hermitian(m, cfg)
    if m.ndim == 2:
        return _grouped_basis(spec.eigenvalues, spec.eigenvectors, cfg.group_tol)
    return [_grouped_basis(w, v, cfg.group_tol)
            for w, v in zip(spec.eigenvalues, spec.eigenvectors)]


def _grouped_basis(w: np.ndarray, v: np.ndarray, group_tol: float) -> PinchingBasis:
    starts = _group_values(w, group_tol)
    return PinchingBasis(np.array([g.mean() for g in np.split(w, starts)]),
                         np.stack([c @ dagger(c) for c in np.split(v, starts, axis=1)]))


def pinch_matrix(m: np.ndarray, basis: PinchingBasis) -> np.ndarray:
    """sum_i P_i m P_i for the eigenspace projectors of the basis, of a
    matrix or of each in a stack ``(..., d, d)``."""
    if m.shape[-1] != basis.dim:
        raise DimMismatch(f"matrix dim {m.shape[-1]} != basis dim {basis.dim}")
    p = np.expand_dims(basis.projectors, tuple(range(1, m.ndim - 1)))
    return np.sum(p @ m @ p, axis=0)


def pinch(rho, basis: PinchingBasis):
    """Pinch a state; returns the same type that was passed in."""
    if isinstance(rho, DensityMatrix):
        return DensityMatrix(pinch_matrix(rho.matrix, basis), rho.factors, validate=False)
    return pinch_matrix(np.asarray(rho, dtype=np.complex128), basis)


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


def decoder_projector(cq_ub: CQState, threshold_exponent: float,
                      cfg: Numerics = DEFAULT) -> np.ndarray:
    """Full decoding projector on the (label x quantum) space."""
    return block_diag(decoder_projector_blocks(cq_ub, threshold_exponent, cfg=cfg))


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
    products (one per occupation type), with the same relative grouping
    tolerance as :func:`distinct_eigenspaces`.
    """
    m = sigma.matrix if isinstance(sigma, DensityMatrix) else np.asarray(sigma, complex)
    base = distinct_eigenspaces(m, cfg)
    vals = sorted(prod(combo)
                  for combo in combinations_with_replacement(base.eigenvalues, n))
    return len(_group_values(np.asarray(vals, dtype=np.float64), cfg.group_tol)) + 1
