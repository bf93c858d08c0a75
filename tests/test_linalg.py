import json
import math
import os
import re

import numpy as np
import pytest

from conftest import rng_for
from covertq import pinching
from covertq.errors import DimMismatch, NotHermitian, NotPSD
from covertq.linalg import (
    Spectrum,
    dagger,
    eig_hermitian,
    eigvals_hermitian,
    mat_fn,
    block_diag,
    partial_trace,
    support_projector,
    tensor,
    trace_norm,
)
from covertq.sampling import random_hermitian, random_unitary

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "src", "covertq", "fixtures")


# ---------------------------------------------------------------------------
# Reference: the cyclic Jacobi solver that eig_hermitian replaced

def _jacobi_rotate(a: np.ndarray, v: np.ndarray, p: int, q: int) -> None:
    """Annihilate a[p, q] with a complex plane rotation, updating a and v."""
    apq = a[p, q]
    r = abs(apq)
    w = apq / r  # unit phase
    tau = (a[q, q].real - a[p, p].real) / (2.0 * r)
    t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(tau, 1.0)) if tau != 0.0 else 1.0
    c = 1.0 / math.sqrt(1.0 + t * t)
    s = t * c
    sw = s * w
    swc = s * w.conjugate()

    colp = a[:, p].copy()
    colq = a[:, q].copy()
    a[:, p] = c * colp - swc * colq
    a[:, q] = sw * colp + c * colq
    rowp = a[p, :].copy()
    rowq = a[q, :].copy()
    a[p, :] = c * rowp - sw * rowq
    a[q, :] = swc * rowp + c * rowq
    a[p, q] = 0.0
    a[q, p] = 0.0
    a[p, p] = a[p, p].real
    a[q, q] = a[q, q].real

    colp = v[:, p].copy()
    colq = v[:, q].copy()
    v[:, p] = c * colp - swc * colq
    v[:, q] = sw * colp + c * colq


def _offdiag_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a - np.diag(np.diag(a))))


def jacobi_eig(m: np.ndarray, cfg=None, sweeps: int = 100) -> Spectrum:
    """Cyclic Jacobi eigendecomposition, ascending (the former solver)."""
    a = np.asarray(m, dtype=np.complex128)
    a = 0.5 * (a + dagger(a))
    np.fill_diagonal(a, np.diag(a).real)
    n = a.shape[0]
    v = np.eye(n, dtype=np.complex128)
    if n == 1:
        return Spectrum(np.array([a[0, 0].real]), v)
    scale = float(np.linalg.norm(a))
    if scale == 0.0:
        return Spectrum(np.zeros(n), v)
    stop = 1e-14 * scale
    skip = 1e-18 * scale
    for _ in range(sweeps):
        if _offdiag_norm(a) <= stop:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) > skip:
                    _jacobi_rotate(a, v, p, q)
    assert _offdiag_norm(a) <= stop, "reference Jacobi did not converge"
    w = np.diag(a).real.copy()
    order = np.argsort(w, kind="stable")
    return Spectrum(w[order], np.ascontiguousarray(v[:, order]))


def _eigenspace_projectors(spec: Spectrum) -> list[np.ndarray]:
    """Projectors onto groups of near-equal eigenvalues (basis-free)."""
    starts = pinching._group_values(spec.eigenvalues, 1e-8)
    return [c @ dagger(c) for c in np.split(spec.eigenvectors, starts, axis=1)]


def _assert_matches_reference(a: np.ndarray) -> None:
    got, ref = eig_hermitian(a), jacobi_eig(a)
    scale = max(1.0, float(np.max(np.abs(ref.eigenvalues), initial=0.0)))
    assert np.max(np.abs(got.eigenvalues - ref.eigenvalues)) <= 1e-12 * scale
    assert np.max(np.abs(got.reconstruct() - a)) <= 1e-12 * scale
    assert np.max(np.abs(got.reconstruct() - ref.reconstruct())) <= 1e-12 * scale
    eye = np.eye(a.shape[0])
    assert np.max(np.abs(dagger(got.eigenvectors) @ got.eigenvectors - eye)) <= 1e-12
    # Degenerate eigenvectors may differ; their eigenspaces may not.
    got_p, ref_p = _eigenspace_projectors(got), _eigenspace_projectors(ref)
    assert len(got_p) == len(ref_p)
    for p, q in zip(got_p, ref_p):
        assert np.max(np.abs(p - q)) <= 1e-10


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 8, 16, 32])
def test_eig_matches_jacobi_reference(dim):
    for seed in range(3):
        _assert_matches_reference(random_hermitian(rng_for(100 * dim + seed), dim))


def test_eig_matches_jacobi_reference_structured():
    rng = rng_for(41)
    u = random_unitary(rng, 6)
    degenerate = (u * np.array([1.0, 1.0, 2.0, 2.0, 2.0, 3.0])) @ dagger(u)
    g = rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2))
    rank_two = g @ dagger(g)
    for a in (degenerate, rank_two, np.zeros((4, 4), dtype=complex),
              np.eye(5, dtype=complex)):
        _assert_matches_reference(a)


def _fixture_states(name: str) -> list[np.ndarray]:
    with open(os.path.join(FIXTURES, name + ".json")) as fh:
        doc = json.load(fh)
    nodes = list(doc.get("states", {}).values())
    nodes += [doc[k] for k in ("innocent", "csi") if k in doc]
    return [np.asarray(n["re"], dtype=complex) + 1j * np.asarray(n.get("im", 0.0))
            for n in nodes]


@pytest.mark.parametrize("fixture", ["diag_states", "faulty_channel"])
def test_distinct_eigenspaces_match_jacobi_reference(fixture, monkeypatch):
    states = _fixture_states(fixture)
    assert states
    got = [pinching.distinct_eigenspaces(m) for m in states]
    monkeypatch.setattr(pinching, "eig_hermitian", jacobi_eig)
    ref = [pinching.distinct_eigenspaces(m) for m in states]
    for a, b in zip(got, ref):
        assert a.v == b.v
        assert np.max(np.abs(a.eigenvalues - b.eigenvalues)) <= 1e-10
        for p, q in zip(a.projectors, b.projectors):
            assert np.max(np.abs(p - q)) <= 1e-10


def test_eig_identity():
    s = eig_hermitian(np.eye(2, dtype=complex))
    assert np.allclose(s.eigenvalues, [1.0, 1.0])


def test_eig_diagonal_signs():
    s = eig_hermitian(np.diag([1.0, -1.0]).astype(complex))
    assert np.allclose(s.eigenvalues, [-1.0, 1.0])
    # eigenvectors are standard basis vectors, reordered with the sort
    assert np.allclose(np.abs(s.eigenvectors), np.fliplr(np.eye(2)))


def test_eig_reconstruction_seeded():
    rng = rng_for(7)
    h = random_hermitian(rng, 6)
    s = eig_hermitian(h)
    rel = np.linalg.norm(s.reconstruct() - h) / np.linalg.norm(h)
    assert rel < 1e-10
    assert np.all(np.diff(s.eigenvalues) >= 0)


def test_eig_rejects_non_hermitian():
    m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(NotHermitian):
        eig_hermitian(m)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
@pytest.mark.parametrize("pos", [(0, 1), (1, 1)])
def test_eig_rejects_non_finite(bad, pos):
    # LAPACK would return NaN eigenvalues without complaint
    m = np.diag([0.5, 0.5]).astype(complex)
    m[pos] = bad
    for fn in (eig_hermitian, eigvals_hermitian, trace_norm):
        with pytest.raises(NotHermitian, match=re.escape(f"non-finite entries at [{pos}]")):
            fn(m)
    with pytest.raises(NotHermitian, match=re.escape(f"at [{(2,) + pos}]")):
        eigvals_hermitian(np.stack([np.eye(2), np.eye(2), m]))


def test_stacked_calls_match_single_calls():
    rng = rng_for(29)
    herm = np.stack([random_hermitian(rng, 3) for _ in range(5)])
    g = rng.normal(size=(5, 3, 2)) + 1j * rng.normal(size=(5, 3, 2))
    psd = g @ dagger(g)
    spec = eig_hermitian(herm)
    assert spec.eigenvalues.shape == (5, 3) and spec.dim == 3
    assert np.max(np.abs(spec.reconstruct() - herm)) < 1e-12
    roots = mat_fn(psd, math.sqrt)
    norms = trace_norm(herm)
    for i in range(5):
        assert np.array_equal(eigvals_hermitian(herm)[i], eigvals_hermitian(herm[i]))
        assert np.max(np.abs(roots[i] - mat_fn(psd[i], math.sqrt))) < 1e-14
        assert norms[i] == pytest.approx(trace_norm(herm[i]), abs=1e-14)
    psd[3] -= 0.5 * np.eye(3)
    with pytest.raises(NotPSD):
        mat_fn(psd, math.sqrt)


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 8])
def test_eig_matches_lapack(dim):
    rng = rng_for(dim)
    h = random_hermitian(rng, dim)
    w = eigvals_hermitian(h)
    ref = np.linalg.eigvalsh(h)
    assert np.max(np.abs(w - ref)) < 1e-11 * max(1.0, np.max(np.abs(ref)))


def test_mat_fn_sqrt_diag():
    out = mat_fn(np.diag([4.0, 9.0]).astype(complex), math.sqrt)
    assert np.allclose(out, np.diag([2.0, 3.0]))


def test_mat_fn_log_identity():
    out = mat_fn(np.eye(3, dtype=complex), math.log2)
    assert np.allclose(out, 0.0)


def test_mat_fn_negative_power_on_support():
    out = mat_fn(np.diag([1.0, 0.0, 4.0]).astype(complex),
                 lambda x: x ** -0.2, support_tol=1e-12)
    assert np.allclose(np.diag(out).real, [1.0, 0.0, 4.0 ** -0.2])


def test_mat_fn_rejects_negative():
    with pytest.raises(NotPSD):
        mat_fn(np.diag([1.0, -0.5]).astype(complex), math.sqrt)


def test_mat_fn_identity_function_roundtrip():
    rng = rng_for(3)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    psd = g @ dagger(g)
    out = mat_fn(psd, lambda x: x)
    assert np.max(np.abs(out - psd)) < 1e-10 * np.max(np.abs(psd))


def test_tensor_identities():
    assert np.allclose(tensor(np.eye(2), np.eye(2)), np.eye(4))
    out = tensor(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    assert np.allclose(np.diag(out).real, [0.0, 1.0, 0.0, 0.0])


def test_tensor_index_formula():
    rng = rng_for(11)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    out = tensor(a, b)
    for i in range(4):
        for j in range(4):
            assert out[i, j] == pytest.approx(a[i // 2, j // 2] * b[i % 2, j % 2])


def test_partial_trace_product_state():
    rng = rng_for(5)
    g1 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    g2 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho = g1 @ dagger(g1)
    sig = g2 @ dagger(g2)
    red = partial_trace(tensor(rho, sig), [2, 3], [0])
    assert np.allclose(red, rho * np.trace(sig))


def test_partial_trace_bell_state():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / math.sqrt(2)
    bell = np.outer(v, v.conj())
    assert np.allclose(partial_trace(bell, [2, 2], [1]), np.eye(2) / 2)


def test_partial_trace_preserves_trace():
    rng = rng_for(9)
    g = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    rho = g @ dagger(g)
    rho /= np.trace(rho).real
    for keep in ([0], [1]):
        red = partial_trace(rho, [2, 3], keep)
        assert abs(np.trace(red).real - 1.0) < 1e-12


def test_partial_trace_is_linear():
    rng = rng_for(13)
    a = random_hermitian(rng, 6)
    b = random_hermitian(rng, 6)
    lhs = partial_trace(2.0 * a + 3.0 * b, [2, 3], [0])
    rhs = 2.0 * partial_trace(a, [2, 3], [0]) + 3.0 * partial_trace(b, [2, 3], [0])
    assert np.allclose(lhs, rhs)


def test_partial_trace_has_no_subsystem_cap():
    # 16 subsystems were refused ("at most 13 subsystems")
    rng = rng_for(14)
    a, b = random_hermitian(rng, 2), random_hermitian(rng, 3)
    dims = [1] * 7 + [2] + [1] * 7 + [3]
    assert np.allclose(partial_trace(tensor(a, b), dims, [7]), a * np.trace(b))
    assert np.allclose(partial_trace(tensor(a, b), dims, [15, 7]), tensor(a, b))


def test_block_diag():
    stack = np.arange(12.0).reshape(3, 2, 2) + 1.0
    out = block_diag(stack)
    assert out.shape == (6, 6) and out.dtype == stack.dtype
    for i in range(3):
        assert np.array_equal(out[2 * i:2 * i + 2, 2 * i:2 * i + 2], stack[i])
        out[2 * i:2 * i + 2, 2 * i:2 * i + 2] = 0.0
    assert not out.any()


def test_partial_trace_dim_mismatch():
    with pytest.raises(DimMismatch):
        partial_trace(np.eye(5, dtype=complex), [2, 2], [0])


@pytest.mark.parametrize("dims,keep", [
    ([2, 1, 3], [0, 2]),  # a dimension-1 factor
    ([1, 4], [1]),
    ([3, 2], []),  # full trace
    ([2, 3, 2], [0, 1, 2]),  # nothing traced
    ([2, 2, 2], [1]),
    ([4], [0]),
])
def test_partial_trace_of_a_stack_equals_each_matrix_bitwise(dims, keep):
    rng = rng_for(41)
    d = math.prod(dims)
    stack = rng.normal(size=(2, 3, d, d)) + 1j * rng.normal(size=(2, 3, d, d))
    got = partial_trace(stack, dims, keep)
    d_keep = math.prod(dims[i] for i in keep)
    assert got.shape == (2, 3, d_keep, d_keep)
    for idx in np.ndindex(2, 3):
        assert np.array_equal(got[idx], partial_trace(stack[idx], dims, keep))
    with pytest.raises(DimMismatch):
        partial_trace(stack[..., :-1], dims, keep)


def test_trace_norm_values():
    assert trace_norm(np.diag([1.0, -1.0]).astype(complex)) == pytest.approx(2.0)
    assert trace_norm(np.zeros((3, 3), dtype=complex)) == pytest.approx(0.0)


def test_trace_norm_matches_spectrum():
    rng = rng_for(17)
    h = random_hermitian(rng, 5)
    w = eigvals_hermitian(h)
    assert trace_norm(h) == pytest.approx(float(np.sum(np.abs(w))), abs=1e-11)


def test_trace_norm_triangle_inequality():
    rng = rng_for(19)
    for _ in range(25):
        a = random_hermitian(rng, 4)
        b = random_hermitian(rng, 4)
        assert trace_norm(a + b) <= trace_norm(a) + trace_norm(b) + 1e-9


def test_support_projector_idempotent():
    rng = rng_for(23)
    g = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
    psd = g @ dagger(g)  # rank 2
    p = support_projector(psd)
    assert np.max(np.abs(p @ p - p)) < 1e-10
    assert np.trace(p).real == pytest.approx(2.0, abs=1e-9)
