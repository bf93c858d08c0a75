import numpy as np
import pytest

from conftest import diag_state, rng_for
from covertq.config import DEFAULT
from covertq.errors import DimMismatch, NotPSD
from covertq.linalg import eig_hermitian, eigvals_hermitian, spectral_fn
from covertq.sampling import (
    matched_ensemble,
    random_channel,
    random_cq,
    random_density,
    random_problem_instance,
)
from covertq.oneshot import induced_states
from covertq.states import (
    CQState,
    DensityMatrix,
    ProblemInstance,
    QuantumChannel,
    apply_channel,
    check_csi_consistency,
    induced_cq_output,
    innocent_output,
    marginals,
    require_states,
)

PAULI = [np.eye(2, dtype=complex),
         np.array([[0, 1], [1, 0]], dtype=complex),
         np.array([[0, -1j], [1j, 0]], dtype=complex),
         np.array([[1, 0], [0, -1]], dtype=complex)]


def test_density_matrix_rejects_bad_trace():
    with pytest.raises(DimMismatch):
        DensityMatrix(np.eye(2, dtype=complex))


def test_density_matrix_rejects_negative():
    with pytest.raises(NotPSD):
        DensityMatrix(np.diag([1.5, -0.5]).astype(complex))


def test_constructor_never_normalizes():
    noisy = np.diag([1.2, 0.9, -1e-13]).astype(complex)
    with pytest.raises(DimMismatch):
        DensityMatrix(noisy)


def test_marginal_by_name():
    rho = random_density(rng_for(1), 2)
    sig = random_density(rng_for(2), 3)
    joint = DensityMatrix(np.kron(rho.matrix, sig.matrix), [("A", 2), ("S", 3)])
    assert np.allclose(joint.marginal("A").matrix, rho.matrix)
    assert np.allclose(joint.marginal("S").matrix, sig.matrix)


def test_apply_identity_channel():
    rho = random_density(rng_for(3), 2)
    ch = QuantumChannel([np.eye(2, dtype=complex)])
    assert np.allclose(apply_channel(ch, rho).matrix, rho.matrix)


def test_fully_depolarizing_channel():
    ch = QuantumChannel([p / 2 for p in PAULI])
    rho = random_density(rng_for(4), 2)
    assert np.allclose(apply_channel(ch, rho).matrix, np.eye(2) / 2)


def test_random_channel_output_is_state():
    rng = rng_for(5)
    ch = random_channel(rng, 3, 2)
    rho = random_density(rng, 3)
    out = apply_channel(ch, rho)
    assert abs(np.trace(out.matrix).real - 1.0) < 1e-10
    assert eigvals_hermitian(out.matrix)[0] > -1e-10


def test_channel_preserves_trace_batch():
    rng = rng_for(6)
    for _ in range(200):
        d = int(rng.integers(2, 4))
        ch = random_channel(rng, d, d)
        rho = random_density(rng, d)
        out = apply_channel(ch, rho, validate=False)
        assert abs(np.trace(out.matrix).real - 1.0) < 1e-10


def test_channel_rejects_non_cptp():
    with pytest.raises(NotPSD):
        QuantumChannel([1.1 * np.eye(2, dtype=complex)])


@pytest.mark.parametrize("kraus", [[], [np.eye(2), np.eye(3)], [np.eye(2)[0]], np.eye(2)],
                         ids=["empty", "ragged", "vectors", "one-matrix"])
def test_channel_rejects_malformed_kraus_lists(kraus):
    with pytest.raises(DimMismatch):
        QuantumChannel(kraus, validate=False)


def test_apply_matrix_on_a_stack_matches_each_matrix():
    rng = rng_for(61)
    ch = random_channel(rng, 3, 2, env=4)
    assert ch.kraus.shape == (4, 2, 3)
    states = np.stack([random_density(rng, 3).matrix for _ in range(5)])
    stacked = ch.apply_matrix(states.reshape(5, 1, 3, 3))
    assert stacked.shape == (5, 1, 2, 2)
    for rho, out in zip(states, stacked[:, 0]):
        assert np.array_equal(out, ch.apply_matrix(rho))


def test_induced_identity_channel_keeps_conditionals():
    cq = random_cq(rng_for(7), 3, 2)
    ch = QuantumChannel([np.eye(2, dtype=complex)])
    out = induced_cq_output(ch, cq)
    for a, b in zip(out.conditionals, cq.conditionals):
        assert np.allclose(a.matrix, b.matrix)


def test_induced_single_label_equals_apply():
    rng = rng_for(8)
    ch = random_channel(rng, 2, 2)
    rho = random_density(rng, 2)
    cq = CQState([0], [1.0], [rho])
    out = induced_cq_output(ch, cq)
    assert np.allclose(out.conditionals[0].matrix, apply_channel(ch, rho).matrix)


def test_induced_commutes_with_averaging():
    rng = rng_for(9)
    ch = random_channel(rng, 2, 2)
    cq = random_cq(rng, 4, 2)
    direct = ch.apply_matrix(cq.average().matrix)
    averaged = induced_cq_output(ch, cq).average().matrix
    assert np.max(np.abs(direct - averaged)) < 1e-12


def test_induced_marginal_consistency():
    rng = rng_for(10)
    ch = random_channel(rng, 4, 4, in_factors=[("A", 2), ("S", 2)],
                        out_factors=[("B", 2), ("E", 2)])
    cq = random_cq(rng, 3, 4, factors=[("A", 2), ("S", 2)])
    out = induced_cq_output(ch, cq)
    rho_b_1 = marginals(out, {"B"})
    rho_b_2 = apply_channel(ch, cq.average(), validate=False).marginal("B")
    assert np.max(np.abs(rho_b_1.matrix - rho_b_2.matrix)) < 1e-12


def test_innocent_output_ignoring_channel():
    # Channel discards the input and emits a fixed product state.
    sig_b = random_density(rng_for(11), 2)
    sig_e = random_density(rng_for(12), 2)
    target = np.kron(sig_b.matrix, sig_e.matrix)
    # Kraus: |target^{1/2} basis><input basis| rows
    root = spectral_fn(eig_hermitian(target), np.sqrt, DEFAULT.support_tol)
    kraus = [np.outer(root[:, i], np.eye(4)[j])
             for i in range(4) for j in range(4)]
    ch = QuantumChannel(kraus, in_factors=[("A", 2), ("S", 2)],
                        out_factors=[("B", 2), ("E", 2)])
    inst = ProblemInstance(ch, random_density(rng_for(13), 2, [("A", 2)]),
                           random_density(rng_for(14), 2, [("S", 2)]))
    out = innocent_output(inst)
    assert np.max(np.abs(out.matrix - sig_e.matrix)) < 1e-10


def test_innocent_output_identity_relabel():
    ch = QuantumChannel([np.eye(4, dtype=complex)], in_factors=[("A", 2), ("S", 2)],
                        out_factors=[("B", 2), ("E", 2)])
    phi0 = random_density(rng_for(15), 2, [("A", 2)])
    rho_s = random_density(rng_for(16), 2, [("S", 2)])
    inst = ProblemInstance(ch, phi0, rho_s)
    out = innocent_output(inst)
    # Tracing the relabeled identity over B leaves the S marginal.
    assert np.max(np.abs(out.matrix - rho_s.matrix)) < 1e-12


def test_innocent_output_random_instance_valid():
    inst = random_problem_instance(rng_for(17))
    out = innocent_output(inst)
    assert abs(np.trace(out.matrix).real - 1.0) < 1e-10
    assert eigvals_hermitian(out.matrix)[0] > -1e-10


def test_marginals_product_ensemble():
    rng = rng_for(18)
    rho_a = random_density(rng, 2)
    rho_s = random_density(rng, 2)
    joint = DensityMatrix(np.kron(rho_a.matrix, rho_s.matrix), [("A", 2), ("S", 2)])
    cq = CQState([0, 1], [0.4, 0.6], [joint, joint])
    assert np.allclose(marginals(cq, {"A"}).matrix, rho_a.matrix)


def test_marginals_label_state():
    cq = random_cq(rng_for(19), 3, 2)
    assert np.allclose(marginals(cq, {"U"}).matrix, np.diag(cq.probs))


def test_marginals_reduction_order_independent():
    rng = rng_for(20)
    cq = random_cq(rng, 3, 6, factors=[("B", 2), ("E", 3)])
    direct = marginals(cq, {"B"})
    via_cq = marginals(cq, {"U", "B"}).average()
    assert np.max(np.abs(direct.matrix - via_cq.matrix)) < 1e-12


def test_csi_consistency_exact_and_perturbed():
    rng = rng_for(21)
    inst = random_problem_instance(rng)
    ens = matched_ensemble(rng, inst, 3)
    ok, dev = check_csi_consistency(ens, inst)
    assert ok and dev < 1e-12

    # Perturb the S marginal by mixing one conditional with a skewed state.
    skew = np.kron(np.eye(2) / 2, np.diag([0.95, 0.05]))
    conds = list(ens.conditionals)
    bad = DensityMatrix(0.9 * conds[0].matrix + 0.1 * skew,
                        conds[0].factors, validate=False)
    conds[0] = bad
    perturbed = CQState(ens.labels, ens.probs, conds, validate=False)
    ok2, dev2 = check_csi_consistency(perturbed, inst)
    assert not ok2
    assert dev2 > 0.0


def test_csi_single_label_innocent_product():
    inst = random_problem_instance(rng_for(22))
    rho_s = inst.csi_marginal()
    cond = DensityMatrix(np.kron(inst.innocent.matrix, rho_s.matrix),
                         [("A", 2), ("S", 2)])
    cq = CQState([0], [1.0], [cond])
    ok, dev = check_csi_consistency(cq, inst)
    assert ok and dev < 1e-12


def test_csi_deviation_scales_with_mixing():
    # epsilon = 0.1 mixing toward an orthogonal-ish S state reports > 0.05
    ch = QuantumChannel([np.eye(4, dtype=complex)], in_factors=[("A", 2), ("S", 2)],
                        out_factors=[("B", 2), ("E", 2)])
    phi0 = diag_state(0.5, 0.5)
    rho_s = diag_state(1.0, 0.0)
    inst = ProblemInstance(ch, DensityMatrix(phi0.matrix, [("A", 2)]),
                           DensityMatrix(rho_s.matrix, [("S", 2)]))
    mixed_s = 0.9 * rho_s.matrix + 0.1 * np.diag([0.0, 1.0])
    cond = DensityMatrix(np.kron(phi0.matrix, mixed_s), [("A", 2), ("S", 2)],
                         validate=False)
    cq = CQState([0], [1.0], [cond])
    ok, dev = check_csi_consistency(cq, inst)
    assert not ok
    assert dev > 0.05


def test_cq_state_from_a_stack_equals_one_from_single_states():
    rng = rng_for(23)
    inst = random_problem_instance(rng, d_a=2, d_s=3, d_b=3, d_e=2)
    listed = matched_ensemble(rng, inst, 4)
    singles = [DensityMatrix(c.matrix.copy(), c.factors) for c in listed.conditionals]
    from_list = CQState(listed.labels, listed.probs, singles)
    from_stack = CQState(listed.labels, listed.probs,
                         DensityMatrix(np.stack([c.matrix for c in singles]), singles[0].factors))
    for cq in (from_list, from_stack):
        assert cq.matrices.shape == (4, 6, 6) and cq.matrices is cq.stack.matrix
        assert cq.stack.factors == (("A", 2), ("S", 3))
        assert all(np.array_equal(c.matrix, s.matrix) and c.factors == s.factors
                   for c, s in zip(cq.conditionals, singles))
        assert all(np.shares_memory(c.matrix, cq.matrices) for c in cq.conditionals)
        again = CQState(cq.labels, cq.probs, cq.conditionals)
        assert np.array_equal(again.matrices, cq.matrices)
        assert again.stack.factors == cq.stack.factors
    assert np.array_equal(from_list.matrices, from_stack.matrices)

    a = induced_states(from_list, inst.channel)
    b = induced_states(from_stack, inst.channel)
    for which in ("S", "B", "E"):
        for order in (0.8, 1.3):
            assert a.divergence(which, order).value == b.divergence(which, order).value
    assert (a.v_s, a.v_b, a.v_e) == (b.v_s, b.v_b, b.v_e)

    # the stacked marginal equals the marginal of each single state
    ube = induced_cq_output(inst.channel, from_list)
    for c, red in zip(ube.conditionals, ube.marginal_cq("E").conditionals):
        assert np.array_equal(c.marginal("E").matrix, red.matrix)


@pytest.mark.parametrize("conds,message", [
    ([diag_state(1.0, 0.0), diag_state(1.0, 0.0, 0.0)], "mixed dimensions"),
    ([DensityMatrix(np.eye(4) / 4, [("A", 2), ("S", 2)]),
      DensityMatrix(np.eye(4) / 4, [("A", 2), ("E", 2)])], "mixed factor structures"),
    ([], "at least one conditional"),
])
def test_cq_state_rejects_conditionals_that_do_not_stack(conds, message):
    with pytest.raises(DimMismatch, match=message):
        CQState(range(len(conds)), np.full(len(conds), 1.0 / max(len(conds), 1)), conds)


def test_cq_state_rejects_probs_that_are_not_one_per_label():
    rho = diag_state(0.5, 0.5)
    with pytest.raises(DimMismatch, match="equal length"):
        CQState([0], 1.0, [rho])  # raised an internal IndexError


def test_require_states_checks_a_stack_and_names_the_bad_matrix():
    good = np.diag([0.5, 0.5]).astype(complex)
    assert require_states(np.stack([good, good])).shape == (2, 2, 2)
    with pytest.raises(NotPSD, match="state 1 has eigenvalue"):
        require_states(np.stack([good, np.diag([1.1, -0.1]).astype(complex)]))
    with pytest.raises(DimMismatch, match="state 0 trace is 0.9"):
        require_states(np.stack([np.diag([0.5, 0.4]).astype(complex), good]))
    with pytest.raises(NotPSD, match="^state has eigenvalue"):
        DensityMatrix(np.diag([1.1, -0.1]).astype(complex))
