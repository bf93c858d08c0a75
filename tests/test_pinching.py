import numpy as np
import pytest

from conftest import diag_state, rng_for
from covertq.linalg import eigvals_hermitian
from covertq.oneshot import ProtocolRates, decoding_test_bounds
from covertq.pinching import (
    decoder_projector,
    decoder_projector_blocks,
    distinct_eigenspaces,
    pinch,
    pinch_matrix,
    projector_geq,
    projector_test_values,
    tensor_power_eigencount,
)
from covertq.sampling import random_cq, random_density


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
    out = pinch(rho, basis)
    comm = out.matrix @ sig.matrix - sig.matrix @ out.matrix
    assert np.max(np.abs(comm)) < 1e-9
    assert np.trace(out.matrix).real == pytest.approx(1.0, abs=1e-12)


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
    full = decoder_projector(cq, -60.0)
    assert np.max(np.abs(full - np.eye(6))) < 1e-9
    empty = decoder_projector(cq, 60.0)
    assert np.max(np.abs(empty)) < 1e-9


def test_decoder_projector_miss_below_bound():
    cq = random_cq(rng_for(8), 3, 2)
    rates = ProtocolRates(R=0.5, R_K=0.25, R_J=0.25, alpha=0.25)
    miss, alarm = projector_test_values(cq, rates.total)
    miss_bound, alarm_bound = decoding_test_bounds(cq, rates)
    assert miss <= miss_bound + 1e-9
    assert alarm <= alarm_bound + 1e-9


def test_decoder_blocks_match_full_projector():
    cq = random_cq(rng_for(9), 3, 2)
    blocks = decoder_projector_blocks(cq, 1.0)
    full = decoder_projector(cq, 1.0)
    for i, blk in enumerate(blocks):
        assert np.allclose(full[2 * i:2 * i + 2, 2 * i:2 * i + 2], blk)


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
