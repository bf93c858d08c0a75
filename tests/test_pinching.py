import itertools
import math

import numpy as np
import pytest

from conftest import diag_state, rng_for
from covertq.config import DEFAULT
from covertq.linalg import eig_hermitian, eigvals_hermitian
from covertq.oneshot import ProtocolRates, decoding_test_bounds
from covertq.pinching import (
    _gaps,
    decoder_projector_blocks,
    distinct_eigenspaces,
    eigencount,
    pinch_matrix,
    projector_geq,
    projector_test_values,
    tensor_power_eigencount,
)
from covertq.sampling import ginibre_states, random_cq, random_density, random_unitary


def test_distinct_eigenspaces_counts():
    assert distinct_eigenspaces(np.eye(4, dtype=complex) / 4).v == 1
    assert distinct_eigenspaces(diag_state(0.7, 0.2, 0.1)).v == 3
    basis = distinct_eigenspaces(diag_state(0.5, 0.25, 0.25))
    assert basis.v == 2
    ranks = sorted(round(np.trace(p).real) for p in basis.projectors)
    assert ranks == [1, 2]


def test_basis_resolves_identity_and_orthogonal():
    rng = rng_for(1)
    sig = random_density(rng, 4)
    basis = distinct_eigenspaces(sig)
    total = sum(basis.projectors)
    assert np.max(np.abs(total - np.eye(4))) < 1e-10
    for i, p in enumerate(basis.projectors):
        for j, q in enumerate(basis.projectors):
            target = p if i == j else 0.0
            assert np.max(np.abs(p @ q - target)) < 1e-10


def test_pinch_matrix_on_a_stack_matches_each_matrix():
    rng = rng_for(21)
    basis = distinct_eigenspaces(diag_state(0.5, 0.25, 0.25))
    assert basis.projectors.shape == (2, 3, 3)
    stack = np.stack([random_density(rng, 3).matrix for _ in range(4)]).reshape(2, 2, 3, 3)
    pinched = pinch_matrix(stack, basis)
    assert pinched.shape == stack.shape
    for m, out in zip(stack.reshape(4, 3, 3), pinched.reshape(4, 3, 3)):
        assert np.array_equal(out, pinch_matrix(m, basis))


def _split_basis(sigma, cfg=DEFAULT):
    """Per-state reference: the group values and projectors from np.split."""
    spec = eig_hermitian(sigma, cfg)
    starts = np.flatnonzero(_gaps(spec.eigenvalues, cfg.group_tol)) + 1
    values = np.array([g.mean() for g in np.split(spec.eigenvalues, starts)])
    return values, np.stack([c @ c.conj().T
                             for c in np.split(spec.eigenvectors, starts, axis=1)])


def test_stacked_basis_and_pinching_match_per_state_reference():
    # degenerate spectra in random bases: v differs within the stack, so the
    # stacked basis is padded, and the padding must not move a single bit
    rng = rng_for(22)
    spectra = [(0.4, 0.2, 0.2, 0.2), (0.25,) * 4, (0.1, 0.2, 0.3, 0.4),
               (0.35, 0.35, 0.15, 0.15), (0.5, 0.3, 0.1, 0.1)]
    us = [random_unitary(rng, 4) for _ in spectra]
    sigmas = np.stack([(u * np.array(s)) @ u.conj().T for s, u in zip(spectra, us)])
    rhos = ginibre_states(rng.normal(size=(2, len(spectra), 2, 4, 4)))
    basis = distinct_eigenspaces(sigmas)
    assert basis.v.tolist() == [2, 1, 4, 2, 3]
    assert basis.projectors.shape == (4, 5, 4, 4)
    pinched = pinch_matrix(rhos, basis)
    for i, sigma in enumerate(sigmas):
        values, projectors = _split_basis(sigma)
        v = len(values)
        assert basis.eigenvalues[:v, i].tobytes() == values.tobytes()
        assert np.isnan(basis.eigenvalues[v:, i]).all()
        assert basis.projectors[:v, i].tobytes() == projectors.tobytes()
        assert not basis.projectors[v:, i].any()
        single = distinct_eigenspaces(sigma)
        assert single.v == v and single.projectors.tobytes() == projectors.tobytes()
        for rho, out in zip(rhos[:, i], pinched[:, i]):
            assert out.tobytes() == np.sum(projectors @ rho @ projectors, axis=0).tobytes()
            assert out.tobytes() == pinch_matrix(rho, single).tobytes()
    column = distinct_eigenspaces(sigmas[:, None])  # a stack (5, 1)
    assert column.v.shape == (5, 1)
    assert column.projectors.tobytes() == basis.projectors.tobytes()


def _loop_basis(sigma, cfg=DEFAULT):
    """The per-matrix, per-group loop that distinct_eigenspaces replaced,
    kept as the bitwise reference: (v, values, projectors)."""
    m = np.asarray(sigma, dtype=complex)
    spec = eig_hermitian(m, cfg)
    d, stack = m.shape[-1], m.shape[:-2]
    rows = list(zip(spec.eigenvalues.reshape(-1, d), spec.eigenvectors.reshape(-1, d, d)))

    def starts(w):
        thr = cfg.group_tol * float(np.max(np.abs(w), initial=0.0))
        return np.flatnonzero(np.diff(w) > thr) + 1
    edges = [[0, *starts(w), d] for w, _ in rows]
    v = np.array([len(e) - 1 for e in edges])
    values = np.full((v.max(), len(rows)), np.nan)
    projectors = np.zeros((v.max(), len(rows), d, d), dtype=np.complex128)
    for k, ((w, c), e) in enumerate(zip(rows, edges)):
        for g, (lo, hi) in enumerate(zip(e, e[1:])):
            values[g, k] = w[lo:hi].sum() / (hi - lo)
            projectors[g, k] = c[:, lo:hi] @ c[:, lo:hi].conj().T
    return (v.reshape(stack) if stack else int(v[0]), values.reshape(-1, *stack),
            projectors.reshape(-1, *stack, d, d))


def _spectral_states(rng, d, levels, spread, count):
    """States with eigenvalues drawn from ``levels`` (so degenerate), each
    moved by a relative ``spread`` (near-degenerate), in Haar bases."""
    out = []
    for _ in range(count):
        w = rng.choice(levels, size=d) * (1.0 + spread * rng.uniform(-1.0, 1.0, d))
        u = random_unitary(rng, d)
        out.append((u * (w / w.sum())) @ u.conj().T)
    return np.stack(out)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 6, 8, 12, 32])
@pytest.mark.parametrize("cfg", [DEFAULT, DEFAULT.replaced(group_tol=0.05)],
                         ids=["default", "group_tol=0.05"])
def test_distinct_eigenspaces_match_per_matrix_loop_bitwise(d, cfg):
    rng = rng_for(700 + d)
    random = ginibre_states(rng.normal(size=(6, 2, d, d)))
    degenerate = _spectral_states(rng, d, [1.0, 2.0, 3.0], 0.0, 6)
    near = _spectral_states(rng, d, [1.0, 2.0], 1e-3, 6)  # groups only under 0.05
    flat = np.eye(d, dtype=complex)[None] / d
    mixed = np.concatenate([random[:2], degenerate[:2], near[:2], flat])
    inputs = [random, degenerate, near, mixed, mixed.reshape(7, 1, d, d),
              np.stack([mixed[:6:2], mixed[1:6:2]]), *mixed[[0, 2, 4, 6]]]
    for sigma in inputs:
        got = distinct_eigenspaces(sigma, cfg)
        v, values, projectors = _loop_basis(sigma, cfg)
        if np.ndim(sigma) == 2:
            assert type(got.v) is int and got.v == v
        else:
            assert got.v.shape == sigma.shape[:-2] and np.array_equal(got.v, v)
        assert got.eigenvalues.shape == values.shape
        assert got.eigenvalues.tobytes() == values.tobytes()
        assert got.projectors.shape == projectors.shape
        assert got.projectors.tobytes() == projectors.tobytes()
    if d > 1:  # the inputs cover more than one gap pattern per stack
        assert len(set(distinct_eigenspaces(mixed, cfg).v.tolist())) > 1


def test_pinch_fixed_points():
    rng = rng_for(2)
    sig = random_density(rng, 3)
    basis = distinct_eigenspaces(sig)
    # sigma itself commutes with its basis
    assert np.max(np.abs(pinch_matrix(sig.matrix, basis) - sig.matrix)) < 1e-10
    # fully degenerate reference leaves any state unchanged
    flat = distinct_eigenspaces(np.eye(3, dtype=complex) / 3)
    rho = random_density(rng, 3)
    assert np.max(np.abs(pinch_matrix(rho.matrix, flat) - rho.matrix)) < 1e-12


def test_pinch_output_commutes_and_preserves_trace():
    rng = rng_for(3)
    sig = random_density(rng, 4)
    rho = random_density(rng, 4)
    basis = distinct_eigenspaces(sig)
    out = pinch_matrix(rho.matrix, basis)
    comm = out @ sig.matrix - sig.matrix @ out
    assert np.max(np.abs(comm)) < 1e-9
    assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)


def test_pinch_blowup_inequality():
    rng = rng_for(4)
    for _ in range(50):
        d = int(rng.integers(2, 5))
        sig = random_density(rng, d)
        rho = random_density(rng, d)
        basis = distinct_eigenspaces(sig)
        low = eigvals_hermitian(basis.v * pinch_matrix(rho.matrix, basis)
                                - rho.matrix)[0]
        assert low >= -1e-9


def test_projector_geq_conventions():
    rng = rng_for(5)
    sig = random_density(rng, 3).matrix
    assert np.max(np.abs(projector_geq(sig, sig) - np.eye(3))) < 1e-9
    assert np.max(np.abs(projector_geq(2 * np.eye(2, dtype=complex),
                                       np.eye(2, dtype=complex)) - np.eye(2))) < 1e-12
    out = projector_geq(np.diag([1.0, -1.0]).astype(complex), np.zeros((2, 2)))
    assert np.allclose(out, np.diag([1.0, 0.0]))


def test_projector_geq_idempotent_and_positive_mass():
    rng = rng_for(6)
    from covertq.sampling import random_hermitian
    a = random_hermitian(rng, 4)
    b = random_hermitian(rng, 4)
    p = projector_geq(a, b)
    assert np.max(np.abs(p @ p - p)) < 1e-9
    assert np.trace(p @ (a - b)).real >= -1e-10


def test_decoder_projector_extreme_thresholds():
    cq = random_cq(rng_for(7), 3, 2)
    full = decoder_projector_blocks(cq, -60.0)
    assert full.shape == (3, 2, 2)
    assert np.max(np.abs(full - np.eye(2))) < 1e-9
    empty = decoder_projector_blocks(cq, 60.0)
    assert np.max(np.abs(empty)) < 1e-9


def test_decoder_projector_miss_below_bound():
    cq = random_cq(rng_for(8), 3, 2)
    rates = ProtocolRates(R=0.5, R_K=0.25, R_J=0.25, alpha=0.25)
    miss, alarm = projector_test_values(cq, rates.total)
    miss_bound, alarm_bound = decoding_test_bounds(cq, rates)
    assert miss <= miss_bound + 1e-9
    assert alarm <= alarm_bound + 1e-9


def test_decoder_blocks_match_full_projector():
    # the projector built on the whole (label x quantum) space, pinching
    # rho_UB by rho_U x rho_B, is block diagonal with the per-label blocks
    cq = random_cq(rng_for(9), 3, 2)
    blocks = decoder_projector_blocks(cq, 1.0)
    labels = np.eye(3)
    joint = sum(np.kron(np.diag(labels[u]), p * m)
                for u, (p, m) in enumerate(zip(cq.probs, cq.matrices)))
    prod = np.kron(np.diag(cq.probs), cq.average().matrix)
    pinched = pinch_matrix(joint, distinct_eigenspaces(prod))
    full = projector_geq(pinched, 2.0 * prod)
    for i, blk in enumerate(blocks):
        assert np.allclose(full[2 * i:2 * i + 2, 2 * i:2 * i + 2], blk)
    mask = np.kron(labels, np.ones((2, 2))) == 0.0
    assert np.max(np.abs(full[mask])) < 1e-9


def test_switch_and_trace_identities():
    rng = rng_for(10)
    sig = random_density(rng, 4)
    basis = distinct_eigenspaces(sig)
    rho1 = random_density(rng, 4)
    rho2 = random_density(rng, 4)
    lhs = np.trace(pinch_matrix(rho1.matrix, basis) @ rho2.matrix).real
    rhs = np.trace(rho1.matrix @ pinch_matrix(rho2.matrix, basis)).real
    assert abs(lhs - rhs) < 1e-10
    lhs2 = np.trace(pinch_matrix(rho1.matrix, basis) @ sig.matrix).real
    rhs2 = np.trace(rho1.matrix @ sig.matrix).real
    assert abs(lhs2 - rhs2) < 1e-10


def test_tensor_power_eigencount():
    assert tensor_power_eigencount(np.eye(2, dtype=complex) / 2, 3) == 1
    # two distinct values, n = 2: products p^2, pq, q^2
    assert tensor_power_eigencount(diag_state(0.7, 0.3), 2) == 3
    rng = rng_for(11)
    for d in (2, 3):
        for n in (1, 2, 3, 4):
            sig = random_density(rng, d)
            assert tensor_power_eigencount(sig, n) <= (n + 1) ** d


def test_tensor_power_count_matches_direct_eig():
    rng = rng_for(12)
    sig = random_density(rng, 2)
    power = np.kron(np.kron(sig.matrix, sig.matrix), sig.matrix)
    direct = distinct_eigenspaces(power).v
    assert tensor_power_eigencount(sig, 3) == direct


def _near_tol_states(rng, d, cfg, count):
    """States whose eigenvalue gaps lie within 1% of ``cfg.group_tol`` of
    the largest eigenvalue, on either side of it, in Haar bases."""
    out = []
    for _ in range(count):
        steps = cfg.group_tol * rng.uniform(0.99, 1.01, d - 1)
        w = 1.0 - np.concatenate([[0.0], np.cumsum(steps)])[::-1]  # the largest is 1
        u = random_unitary(rng, d)
        out.append((u * (w / w.sum())) @ u.conj().T)
    return np.stack(out)


def _power_count_reference(sigma, n, cfg):
    """tensor_power_eigencount as it read the group values of the full basis."""
    base = distinct_eigenspaces(sigma, cfg)
    vals = sorted(map(math.prod, itertools.combinations_with_replacement(base.eigenvalues, n)))
    return int(np.count_nonzero(_gaps(np.asarray(vals, dtype=np.float64), cfg.group_tol))) + 1


@pytest.mark.parametrize("d", [1, 2, 3, 4, 6])
@pytest.mark.parametrize("cfg", [DEFAULT, DEFAULT.replaced(group_tol=0.05)],
                         ids=["default", "group_tol=0.05"])
def test_eigencount_is_the_basis_count_without_projectors(d, cfg):
    rng = rng_for(900 + d)
    random = ginibre_states(rng.normal(size=(6, 2, d, d)))
    flat = np.eye(d, dtype=complex)[None] / d
    repeats = np.stack([np.diag(w / w.sum()).astype(complex)
                        for w in rng.choice([1.0, 2.0, 3.0], size=(4, d))])
    near = _near_tol_states(rng, d, cfg, 6)
    states = np.concatenate([random, flat, repeats, near])
    if d > 1:  # the near-tolerance gaps both merge and split groups
        assert len(set(distinct_eigenspaces(near, cfg).v.tolist())) > 1
    for sigma in [states, states.reshape(-1, 1, d, d), *states]:
        want = distinct_eigenspaces(sigma, cfg).v
        got = eigencount(sigma, cfg)
        if np.ndim(sigma) == 2:
            assert type(got) is int and got == want
            for n in (1, 2, 3):
                assert tensor_power_eigencount(sigma, n, cfg) == \
                    _power_count_reference(sigma, n, cfg)
        else:
            assert got.shape == want.shape and np.array_equal(got, want)
