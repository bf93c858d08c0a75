"""Dense complex-matrix kernel: Hermitian eigendecomposition, matrix
functions on supports, tensor products, partial traces, trace norm.

Spectral work goes to LAPACK through ``numpy.linalg.eigh``/``eigvalsh``
after a Hermiticity and finiteness check.  The eigen functions, the
matrix functions, the partial trace and the trace norm accept a single
``(d, d)`` matrix or a stack ``(..., d, d)``, so a batch of small
problems costs one call.
LAPACK returns the same spectrum for the same matrix, so reports stay
byte-stable run to run.  All higher modules funnel their spectral work
through :func:`eig_hermitian` and :func:`eigvals_hermitian`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT, Numerics
from .errors import DimMismatch, NotHermitian, NotPSD

__all__ = [
    "Spectrum",
    "dagger",
    "herm_deviation",
    "require_hermitian",
    "eig_hermitian",
    "eigvals_hermitian",
    "mat_fn",
    "spectral_fn",
    "support_projector",
    "tensor",
    "partial_trace",
    "block_diag",
    "trace_norm",
]


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose (of each matrix in a stack)."""
    return m.conj().swapaxes(-1, -2)


def herm_deviation(m: np.ndarray) -> float:
    """Largest entrywise deviation of ``m`` from its conjugate transpose."""
    return float(np.max(np.abs(m - dagger(m)))) if m.size else 0.0


def require_finite(a: np.ndarray, what: str, error: type[Exception]) -> None:
    """Raise ``error`` naming the first NaN or inf entries of ``a``.

    Range, trace and Hermiticity checks are comparisons that NaN passes,
    and LAPACK returns NaN for non-finite input without complaint.
    """
    if np.isfinite(a).all():
        return
    bad = np.argwhere(~np.isfinite(a))
    where = [tuple(int(i) for i in idx) for idx in bad[:4]]
    more = " ..." if len(bad) > len(where) else ""
    raise error(f"{what} has non-finite entries at {where}{more}")


def require_hermitian(m: np.ndarray, tol: float, what: str = "matrix") -> np.ndarray:
    """``m`` as complex128 after checking that it is a finite Hermitian
    matrix, or a stack of them; raises :class:`NotHermitian` otherwise."""
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimMismatch(f"{what} must be square, got shape {m.shape}")
    require_finite(m, what, NotHermitian)
    dev = herm_deviation(m)
    if dev > tol:
        raise NotHermitian(f"{what} deviates from Hermitian by {dev:.3e} (tol {tol:.1e})")
    return m


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a Hermitian matrix (or of each in a stack).

    ``eigenvalues`` are real and sorted ascending along the last axis;
    ``eigenvectors`` holds the matching orthonormal eigenvectors as
    columns, so the input is recovered as ``V @ diag(w) @ V.conj().T``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[-1]

    def reconstruct(self, values: np.ndarray | None = None) -> np.ndarray:
        """``V @ diag(values) @ V^dag``, by default with the eigenvalues."""
        v = self.eigenvectors
        w = self.eigenvalues if values is None else values
        return (v * w[..., None, :]) @ dagger(v)


def _hermitian_part(m: np.ndarray, cfg: Numerics) -> np.ndarray:
    a = require_hermitian(m, cfg.herm_tol)
    # The deviation is below herm_tol by the check above; symmetrising
    # makes the triangle LAPACK reads agree with the other one.
    return 0.5 * (a + dagger(a))


def eig_hermitian(m: np.ndarray, cfg: Numerics = DEFAULT) -> Spectrum:
    """Eigendecomposition of a Hermitian matrix or stack by LAPACK.

    Raises :class:`NotHermitian` when the input fails the Hermiticity or
    finiteness check.  Within a degenerate eigenspace the basis is
    LAPACK's; every caller uses whole eigenspaces or basis-invariant sums.
    """
    return Spectrum(*np.linalg.eigh(_hermitian_part(m, cfg)))


def eigvals_hermitian(m: np.ndarray, cfg: Numerics = DEFAULT) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix or stack."""
    return np.linalg.eigvalsh(_hermitian_part(m, cfg))


def support_cutoff(w: np.ndarray, support_tol: float) -> np.ndarray:
    """Per-matrix cutoff, shaped ``(..., 1)`` to broadcast against ``w``."""
    return support_tol * np.max(np.abs(w), axis=-1, keepdims=True, initial=0.0)


def mat_fn(m: np.ndarray, f, support_tol: float | None = None,
           cfg: Numerics = DEFAULT) -> np.ndarray:
    """Apply a scalar function to a PSD matrix, or to each in a stack, on
    its support.

    Eigenvalues at or below ``support_tol`` (relative to the largest
    eigenvalue magnitude of the same matrix) map to zero; this is the
    support convention that makes inverse powers and logarithms well
    defined for singular states.  Eigenvalues in ``[-cutoff, cutoff]`` are
    treated as numerical zeros; anything below ``-cutoff`` raises
    :class:`NotPSD`.
    """
    if support_tol is None:
        support_tol = cfg.support_tol
    def elementwise(w: np.ndarray) -> np.ndarray:
        return np.fromiter(map(f, w.flat), np.float64, w.size).reshape(w.shape)

    return spectral_fn(eig_hermitian(m, cfg), elementwise, support_tol)


def spectral_fn(spec: Spectrum, f, support_tol: float) -> np.ndarray:
    """:func:`mat_fn` for a matrix (or stack) given by its spectrum.

    ``f`` maps the eigenvalue array ``(..., d)`` elementwise, so it may
    carry one parameter per matrix of a stack (broadcast against
    ``(..., 1)``); entries off the support are passed as 1 and then
    zeroed.
    """
    w = spec.eigenvalues
    cutoff = support_cutoff(w, support_tol)
    low = w[..., :1] < -cutoff
    if low.any():
        i = int(np.argmax(low))
        raise NotPSD(f"matrix has eigenvalue {w[..., :1].flat[i]:.3e} "
                     f"below -{cutoff.flat[i]:.3e}")
    support = w > cutoff
    fw = np.where(support, f(np.where(support, w, 1.0)), 0.0)
    out = spec.reconstruct(fw)
    return 0.5 * (out + dagger(out))


def support_projector(m: np.ndarray, cfg: Numerics = DEFAULT) -> np.ndarray:
    """Orthogonal projector onto the support of a PSD matrix."""
    return mat_fn(m, lambda _x: 1.0, cfg=cfg)


def tensor(*ms: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more matrices."""
    out = np.asarray(ms[0], dtype=np.complex128)
    for m in ms[1:]:
        out = np.kron(out, np.asarray(m, dtype=np.complex128))
    return out


def partial_trace(m: np.ndarray, dims: list[int] | tuple[int, ...],
                  keep: list[int] | tuple[int, ...] | set[int]) -> np.ndarray:
    """Partial trace over all subsystems not listed in ``keep``, of a
    matrix or of each in a stack ``(..., d, d)``.

    ``dims`` lists the subsystem dimensions in tensor order; ``keep``
    holds the indices of the subsystems to retain (order preserved).
    The full trace is preserved exactly up to float rounding.
    """
    m = np.asarray(m, dtype=np.complex128)
    dims = list(int(d) for d in dims)
    total = int(np.prod(dims))
    if m.shape[-2:] != (total, total):
        raise DimMismatch(f"matrix shape {m.shape} does not match dims {dims}")
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= len(dims) for k in keep):
        raise DimMismatch(f"keep indices {keep} out of range for {len(dims)} subsystems")

    # Integer sublists after the stack axes: subsystem i is label i on the
    # row side; a kept subsystem gets a fresh column label, a traced one
    # shares its row label.
    k = len(dims)
    rows = list(range(k))
    cols = [k + i if i in keep else i for i in rows]
    stack = m.shape[:-2]
    res = np.einsum(m.reshape(stack + tuple(dims + dims)), [..., *rows, *cols],
                    [..., *(rows[i] for i in keep), *(cols[i] for i in keep)])
    d_keep = int(np.prod([dims[i] for i in keep]))
    return res.reshape(stack + (d_keep, d_keep))


def block_diag(stack: np.ndarray) -> np.ndarray:
    """Block-diagonal matrix with the matrices of a stack ``(n, d, d)`` on
    its diagonal, in stack order."""
    n, d, _ = stack.shape
    out = np.zeros((n, d, n, d), dtype=stack.dtype)
    i = np.arange(n)
    out[i, :, i, :] = stack
    return out.reshape(n * d, n * d)


def trace_norm(m: np.ndarray, cfg: Numerics = DEFAULT):
    """Trace norm of a Hermitian matrix: sum of absolute eigenvalues.

    A stack gives an array with one norm per matrix.
    """
    norms = np.sum(np.abs(eigvals_hermitian(m, cfg)), axis=-1)
    return float(norms) if norms.ndim == 0 else norms
