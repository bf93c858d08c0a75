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
    ``projectors`` the matching orthogonal eigenspace projectors summing
    to the identity, and ``v`` the distinct-eigenvalue count.
    """

    eigenvalues: np.ndarray
    projectors: tuple[np.ndarray, ...]

    @property
    def v(self) -> int:
        return len(self.projectors)

    @property
    def dim(self) -> int:
        return self.projectors[0].shape[0]


def _group_values(w: np.ndarray, group_tol: float) -> list[list[int]]:
    """Group ascending values whose consecutive gap is within tolerance."""
    thr = group_tol * float(np.max(np.abs(w), initial=0.0))
    groups: list[list[int]] = [[0]]
    for i in range(1, len(w)):
        if w[i] - w[groups[-1][-1]] <= thr:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


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
    vals = []
    projs = []
    for g in _group_values(w, group_tol):
        cols = v[:, g]
        projs.append(cols @ dagger(cols))
        vals.append(float(np.mean(w[g])))
    return PinchingBasis(np.asarray(vals), tuple(projs))


def pinch_matrix(m: np.ndarray, basis: PinchingBasis) -> np.ndarray:
    """sum_i P_i m P_i for the eigenspace projectors of the basis."""
    if m.shape[0] != basis.dim:
        raise DimMismatch(f"matrix dim {m.shape[0]} != basis dim {basis.dim}")
    out = np.zeros_like(m, dtype=np.complex128)
    for p in basis.projectors:
        out += p @ m @ p
    return out


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
                             cfg: Numerics = DEFAULT) -> list[np.ndarray]:
    """Per-label blocks of the decoding projector.

    The projector tests whether the pinched conditional output exceeds
    2^threshold times the averaged output; it is block diagonal over the
    classical label, so one block per label suffices.  Labels with zero
    probability get the identity block (the zero-vs-zero convention).
    """
    if rho_b is None:
        rho_b = cq_ub.average()
    basis = distinct_eigenspaces(rho_b, cfg=cfg)
    thresh = 2.0 ** threshold_exponent
    blocks = []
    for p, c in zip(cq_ub.probs, cq_ub.conditionals):
        if p <= 0.0:
            blocks.append(np.eye(cq_ub.quantum_dim, dtype=np.complex128))
            continue
        pinched = pinch_matrix(c.matrix, basis)
        blocks.append(projector_geq(pinched, thresh * rho_b.matrix, cfg))
    return blocks


def decoder_projector(cq_ub: CQState, threshold_exponent: float,
                      cfg: Numerics = DEFAULT) -> np.ndarray:
    """Full decoding projector on the (label x quantum) space."""
    blocks = decoder_projector_blocks(cq_ub, threshold_exponent, cfg=cfg)
    d = cq_ub.quantum_dim
    n = cq_ub.num_labels
    out = np.zeros((n * d, n * d), dtype=np.complex128)
    for i, blk in enumerate(blocks):
        out[i * d:(i + 1) * d, i * d:(i + 1) * d] = blk
    return out


def projector_test_values(cq_ub: CQState, threshold_exponent: float,
                          cfg: Numerics = DEFAULT) -> tuple[float, float]:
    """Exact miss and false-alarm traces of the decoding projector.

    Returns (tr[(I - Pi) rho_UB], tr[Pi (rho_U x rho_B)]), evaluated
    blockwise.
    """
    rho_b = cq_ub.average()
    blocks = decoder_projector_blocks(cq_ub, threshold_exponent, rho_b, cfg)
    miss = 0.0
    alarm = 0.0
    for p, c, blk in zip(cq_ub.probs, cq_ub.conditionals, blocks):
        if p <= 0.0:
            continue
        miss += p * float(np.real(np.trace((np.eye(blk.shape[0]) - blk) @ c.matrix)))
        alarm += p * float(np.real(np.trace(blk @ rho_b.matrix)))
    return max(0.0, miss), max(0.0, alarm)


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
    groups = _group_values(np.asarray(vals, dtype=np.float64), cfg.group_tol)
    return len(groups)
