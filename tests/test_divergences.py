import math
import os

import numpy as np
import pytest

from conftest import diag_state, pure_state, rng_for
from covertq.divergences import (
    classical_info_terms,
    cq_sandwiched_renyi,
    fidelity,
    holevo_mutual_info,
    purified_distance,
    relative_entropy,
    sandwiched_renyi,
    trace_distance,
    von_neumann_entropy,
)
from covertq import divergences
from covertq.config import DEFAULT
from covertq.errors import NotADistribution, OrderOutOfRange, SelfCheckFailed
from covertq.linalg import dagger, eig_hermitian, eigvals_hermitian, spectral_fn, support_cutoff
from covertq.oneshot import default_alpha_grid, induced_states
from covertq.sampling import ginibre_states, random_channel, random_cq, random_density
from covertq.specio import load_spec
from covertq.states import CQState, DensityMatrix, apply_channel

QUBIT = os.path.join(os.path.dirname(__file__), "..", "src", "covertq", "fixtures",
                     "qubit_cnot.json")


def test_trace_distance_basics():
    rho = random_density(rng_for(0), 3)
    assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-12)
    assert trace_distance(diag_state(1, 0), diag_state(0, 1)) == pytest.approx(2.0)
    assert trace_distance(diag_state(0.7, 0.3), diag_state(0.5, 0.5)) \
        == pytest.approx(0.4, abs=1e-12)


def test_fidelity_basics():
    rho = random_density(rng_for(1), 3)
    sig = random_density(rng_for(2), 3)
    assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)
    assert fidelity(diag_state(1, 0), diag_state(0, 1)) == pytest.approx(0.0, abs=1e-10)
    assert abs(fidelity(rho, sig) - fidelity(sig, rho)) < 1e-10


def test_fidelity_bhattacharyya_on_diagonals():
    p = np.array([0.2, 0.5, 0.3])
    q = np.array([0.6, 0.1, 0.3])
    expected = float(np.sum(np.sqrt(p * q)))
    assert fidelity(diag_state(*p), diag_state(*q)) == pytest.approx(expected, abs=1e-10)


def _fidelity_scalar_root(rho, sigma, cfg=DEFAULT):
    """:func:`fidelity` with rho rooted by math.sqrt, one eigenvalue at a time."""
    def scalar_sqrt(w):
        return np.fromiter(map(math.sqrt, w.flat), np.float64, w.size).reshape(w.shape)

    root = spectral_fn(eig_hermitian(rho, cfg), scalar_sqrt, cfg.support_tol)
    inner = root @ sigma @ root
    w = eigvals_hermitian(0.5 * (inner + dagger(inner)), cfg)
    cut = support_cutoff(w, cfg.support_tol)
    return np.clip(np.sum(np.sqrt(np.where(w > cut, w, 0.0)), axis=-1), 0.0, 1.0)


@pytest.mark.parametrize("d", range(2, 9))
def test_fidelity_ufunc_root_is_bitwise_the_scalar_root(d):
    # np.sqrt and math.sqrt are both correctly rounded, so rooting with the
    # ufunc moves no bit of the fidelity, at full rank or below it
    rng = rng_for(400 + d)
    for rank in sorted({1, d // 2, d - 1, d}):
        rho = ginibre_states(rng.normal(size=(6, 2, d, rank)))
        sigma = ginibre_states(rng.normal(size=(6, 2, d, rank)))
        ref = _fidelity_scalar_root(rho, sigma)
        assert (fidelity(rho, sigma) == ref).all()
        assert (fidelity(rho[0], sigma[0]) == ref[0]).all()


def test_purified_distance_relations():
    rho = random_density(rng_for(3), 2)
    sig = random_density(rng_for(4), 2)
    # sqrt(1 - F^2) has a sqrt(eps) precision floor at F = 1
    assert purified_distance(rho, rho) == pytest.approx(0.0, abs=1e-7)
    assert purified_distance(diag_state(1, 0), diag_state(0, 1)) == pytest.approx(1.0)
    f = fidelity(rho, sig)
    p = purified_distance(rho, sig)
    assert p * p + f * f == pytest.approx(1.0, abs=1e-12)
    assert trace_distance(rho, sig) <= 2.0 * p + 1e-12


def test_relative_entropy_values():
    rho = random_density(rng_for(5), 3)
    assert relative_entropy(rho, rho).value == pytest.approx(0.0, abs=1e-9)
    assert relative_entropy(diag_state(1, 0), diag_state(0.5, 0.5)).value \
        == pytest.approx(1.0, abs=1e-12)
    dv = relative_entropy(diag_state(0.5, 0.5), diag_state(1, 0))
    assert dv.value == math.inf and dv.support_violation


def test_sandwiched_renyi_zero_and_order_check():
    rho = random_density(rng_for(6), 3)
    for order in (1.25, 0.5, 2.0):
        assert sandwiched_renyi(rho, rho, order).value == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(OrderOutOfRange):
        sandwiched_renyi(rho, rho, 1.0)
    with pytest.raises(OrderOutOfRange):
        sandwiched_renyi(rho, rho, -0.2)


def test_sandwiched_renyi_classical_reduction():
    rng = rng_for(7)
    alpha = 0.25
    p = rng.dirichlet([1, 1, 1]) + 0.01
    q = rng.dirichlet([1, 1, 1]) + 0.01
    p, q = p / p.sum(), q / q.sum()
    expected = math.log2(float(np.sum(p ** (1 + alpha) * q ** (-alpha)))) / alpha
    got = sandwiched_renyi(diag_state(*p), diag_state(*q), 1 + alpha).value
    assert got == pytest.approx(expected, abs=1e-9)


def test_sandwiched_half_order_is_log_fidelity():
    rng = rng_for(8)
    for _ in range(10):
        v1 = rng.normal(size=2) + 1j * rng.normal(size=2)
        v2 = rng.normal(size=2) + 1j * rng.normal(size=2)
        r1, r2 = pure_state(v1), pure_state(v2)
        f2 = fidelity(r1, r2) ** 2
        d_half = sandwiched_renyi(r1, r2, 0.5).value
        assert f2 == pytest.approx(2.0 ** (-d_half), abs=1e-8)


def test_sandwiched_support_violation_flag():
    dv = sandwiched_renyi(diag_state(0.5, 0.5), diag_state(1, 0), 1.25)
    assert dv.value == math.inf and dv.support_violation


def test_sandwiched_monotone_in_order():
    rng = rng_for(9)
    for _ in range(20):
        rho = random_density(rng, 3)
        sig = random_density(rng, 3)
        vals = [sandwiched_renyi(rho, sig, o).value for o in (0.3, 0.6, 0.9, 1.2, 1.6, 2.0)]
        assert all(vals[i] <= vals[i + 1] + 1e-9 for i in range(len(vals) - 1))


def test_sandwiched_data_processing():
    rng = rng_for(10)
    for _ in range(30):
        d = int(rng.integers(2, 4))
        rho = random_density(rng, d)
        sig = random_density(rng, d)
        ch = random_channel(rng, d, d)
        for alpha in (0.1, 0.25, 0.4):
            before = sandwiched_renyi(rho, sig, 1 + alpha).value
            after = sandwiched_renyi(apply_channel(ch, rho, validate=False),
                                     apply_channel(ch, sig, validate=False),
                                     1 + alpha).value
            assert after <= before + 1e-9


def _block_diag(stack: np.ndarray) -> np.ndarray:
    """The matrices of a stack ``(n, d, d)`` on the diagonal of one matrix."""
    return sum(np.kron(np.diag(np.eye(len(stack))[i]), m) for i, m in enumerate(stack))


def test_cq_sandwiched_matches_full_matrices():
    rng = rng_for(11)
    cq = random_cq(rng, 3, 3)
    joint = DensityMatrix(_block_diag(cq.probs[:, None, None] * cq.matrices),
                          [("U", 3), ("X", 3)], validate=False)
    prod = DensityMatrix(np.kron(np.diag(cq.probs).astype(complex),
                                 cq.average().matrix),
                         [("U", 3), ("X", 3)], validate=False)
    for order in (1.25, 1.1, 0.8, 0.6):
        blockwise = cq_sandwiched_renyi(cq, order).value
        full = sandwiched_renyi(joint, prod, order).value
        assert blockwise == pytest.approx(full, abs=1e-10)


def _stacked_equals_per_order(cq, orders):
    stacked = cq_sandwiched_renyi(cq, np.array(orders))
    single = [cq_sandwiched_renyi(cq, o) for o in orders]
    assert all(type(dv.value) is float and type(dv.support_violation) is bool
               for dv in single)
    assert np.array_equal(stacked.value, [dv.value for dv in single])
    assert np.array_equal(stacked.support_violation, [dv.support_violation for dv in single])
    return stacked


def test_cq_sandwiched_order_stack_equals_per_order_calls():
    # the qubit_cnot marginals at every order the default --optimize grid reads
    spec = load_spec(QUBIT)
    st = induced_states(spec.ensemble, spec.instance.channel)
    grid = default_alpha_grid()
    for cq in (st.cq_us, st.cq_ub, st.cq_ue):
        _stacked_equals_per_order(cq, [*(1.0 + grid), *(1.0 - grid)])
    rng = rng_for(13)
    for _ in range(40):
        cq = random_cq(rng, int(rng.integers(1, 6)), int(rng.integers(1, 6)))
        a = rng.uniform(1e-3, 0.499, 5)
        dv = _stacked_equals_per_order(cq, [*(1.0 + a), *(1.0 - a)])
        assert dv.is_finite and not dv.support_violation.any()


def test_cq_sandwiched_order_stack_flags_support_violations_above_one_only():
    # the second label's state lies outside the average's support: its
    # weight puts the average's eigenvalue there below the relative cutoff
    p, q = np.diag([0.5, 0.5, 0.0]), np.diag([0.0, 0.0, 1.0])
    cq = CQState([0, 1], [1.0 - 1e-12, 1e-12],
                 DensityMatrix(np.stack([p, q]).astype(complex), validate=False))
    dv = _stacked_equals_per_order(cq, [0.5, 0.9, 1.1, 1.5])
    assert np.array_equal(dv.support_violation, [False, False, True, True])
    assert np.all(np.isfinite(dv.value[:2])) and np.all(dv.value[2:] == math.inf)
    assert not dv.is_finite
    assert cq_sandwiched_renyi(cq, 0.9).is_finite and not cq_sandwiched_renyi(cq, 1.1).is_finite


def _log_space_renyi(p_u, rows, q, alpha):
    """log2(sum_u p_u sum_e rows[u, e]^(1+a) q[e]^-a) / a, summed in log
    space per unit of a so that no term overflows."""
    logs = np.log2(p_u)[:, None] / alpha + (1.0 + alpha) / alpha * np.log2(rows) - np.log2(q)
    top = logs.max()
    with np.errstate(over="ignore"):
        rest = np.sum(np.exp2(alpha * (logs - top)))
    return top + math.log2(float(rest)) / alpha


@pytest.mark.parametrize("order", [1500.0, 1e20, 1e308])
def test_sandwiched_at_large_orders_matches_the_log_space_sum(order):
    # w^(1+alpha) overflows for the largest w: 0.7/0.4 for the pair, 0.7/0.6
    # (label 0) for the cq state, whose largest w over both labels is
    # factored out instead
    rows = np.array([[0.3, 0.7], [0.9, 0.1]])
    p_u = np.array([0.5, 0.5])
    cq = CQState(range(2), p_u, [diag_state(*r) for r in rows])
    pair = sandwiched_renyi(diag_state(0.3, 0.7), diag_state(0.6, 0.4), order)
    joint = cq_sandwiched_renyi(cq, np.array([order]))
    assert not pair.support_violation and not joint.support_violation.any()
    want = _log_space_renyi(np.ones(1), rows[:1], np.array([0.6, 0.4]), order - 1.0)
    assert abs(pair.value - want) <= 1e-12 * want
    want = _log_space_renyi(p_u, rows, p_u @ rows, order - 1.0)
    assert abs(joint.value[0] - want) <= 1e-12 * want


def test_von_neumann_entropy_values():
    rng = rng_for(12)
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    assert von_neumann_entropy(pure_state(v)) == pytest.approx(0.0, abs=1e-9)
    assert von_neumann_entropy(diag_state(*([1 / 4] * 4))) == pytest.approx(2.0)
    assert von_neumann_entropy(diag_state(0.25, 0.75)) \
        == pytest.approx(0.8112781244591328, abs=1e-12)


def test_holevo_basics():
    rho = random_density(rng_for(13), 2)
    assert holevo_mutual_info(CQState([0, 1], [0.5, 0.5], [rho, rho])) \
        == pytest.approx(0.0, abs=1e-9)
    orth = CQState([0, 1], [0.5, 0.5], [diag_state(1, 0), diag_state(0, 1)])
    assert holevo_mutual_info(orth) == pytest.approx(1.0, abs=1e-10)


def test_holevo_classical_reduction():
    rng = rng_for(14)
    probs = rng.dirichlet([1, 1, 1])
    rows = rng.dirichlet([1, 1], size=3)
    cq = CQState(range(3), probs, [diag_state(*r) for r in rows])
    joint = probs[:, None] * rows
    px = joint.sum(axis=0)
    mi = sum(joint[u, x] * math.log2(joint[u, x] / (probs[u] * px[x]))
             for u in range(3) for x in range(2) if joint[u, x] > 0)
    assert holevo_mutual_info(cq) == pytest.approx(mi, abs=1e-9)
    assert holevo_mutual_info(cq) <= min(von_neumann_entropy(diag_state(*probs)),
                                         1.0) + 1e-9


def test_classical_info_terms_independent():
    p = np.ones((2, 2, 2, 2)) / 16.0
    terms = classical_info_terms(p)
    for key in ("I(U;B|S)", "I(U;E|S)", "I(U;B|E,S)", "I(U;S)"):
        assert terms[key] == pytest.approx(0.0, abs=1e-12)
    assert terms["H(S|E)"] == pytest.approx(1.0, abs=1e-12)
    assert terms["H(S)"] == pytest.approx(1.0, abs=1e-12)


def test_classical_info_terms_brute_force():
    rng = rng_for(15)
    p = rng.random((2, 2, 2, 2))
    p /= p.sum()
    terms = classical_info_terms(p)

    def ent(axes):
        q = p.sum(axis=tuple(i for i in range(4) if i not in axes)).ravel()
        q = q[q > 0]
        return float(-np.sum(q * np.log2(q)))

    assert terms["I(U;B|S)"] == pytest.approx(
        ent((0, 1)) + ent((1, 2)) - ent((1,)) - ent((0, 1, 2)), abs=1e-12)
    assert terms["I(U;B|E,S)"] == pytest.approx(
        ent((0, 1, 3)) + ent((1, 2, 3)) - ent((1, 3)) - ent((0, 1, 2, 3)), abs=1e-12)
    assert terms["H(S|E)"] == pytest.approx(ent((1, 3)) - ent((3,)), abs=1e-12)


def test_classical_info_terms_rejects_bad_table():
    with pytest.raises(NotADistribution):
        classical_info_terms(np.ones((2, 2, 2, 2)))


def test_stacked_divergences_equal_per_matrix_calls():
    rng = rng_for(21)
    rhos = [random_density(rng, 3).matrix for _ in range(6)]
    sigmas = [random_density(rng, 3).matrix for _ in range(6)]
    for i in (1, 4):  # rank-2 sigma: a full-rank rho has mass outside its support
        sigmas[i] = random_density(rng, 3, rank=2).matrix
    orders = np.array([1.25, 1.4, 0.8, 1.1, 0.6, 1.5])  # pair 4 violates at an order < 1
    r, s = np.stack(rhos), np.stack(sigmas)

    stacked = sandwiched_renyi(r, s, orders)
    single = [sandwiched_renyi(a, b, o) for a, b, o in zip(rhos, sigmas, orders)]
    assert stacked.support_violation.tolist() == [False, True, False, False, False, False]
    np.testing.assert_array_equal(stacked.value, [dv.value for dv in single])
    np.testing.assert_array_equal(stacked.support_violation,
                                  [dv.support_violation for dv in single])
    fixed = sandwiched_renyi(r, s, 1.25)
    np.testing.assert_array_equal(fixed.value,
                                  [sandwiched_renyi(a, b, 1.25).value
                                   for a, b in zip(rhos, sigmas)])

    rel = relative_entropy(r, s)
    single = [relative_entropy(a, b) for a, b in zip(rhos, sigmas)]
    assert rel.support_violation.tolist() == [False, True, False, False, True, False]
    np.testing.assert_array_equal(rel.value, [dv.value for dv in single])
    np.testing.assert_array_equal(rel.support_violation,
                                  [dv.support_violation for dv in single])
    assert not rel.is_finite and relative_entropy(r[:1], s[:1]).is_finite

    np.testing.assert_array_equal(von_neumann_entropy(s),
                                  [von_neumann_entropy(b) for b in sigmas])
    assert isinstance(von_neumann_entropy(s[0]), float)
    assert isinstance(sandwiched_renyi(r[0], s[0], 1.25).value, float)


VERIFY_ORDERS = (1.1, 1.25, 1.4, 0.8, 1.2, 1.5)  # the dataprocessing suite's batched six


@pytest.mark.parametrize("cfg", [DEFAULT, DEFAULT.replaced(support_tol=0.5)],
                         ids=["default", "support_tol=0.5"])
def test_order_array_equals_per_order_calls_bitwise(cfg):
    # orders[:, None] evaluates every order on every pair of a stack; orders
    # 0.5 and 2.0 are left out (numpy's scalar-exponent fast path)
    rng = rng_for(33)
    orders = np.array([*VERIFY_ORDERS, *(1.0 + default_alpha_grid())])
    for d in range(2, 9):
        rho = ginibre_states(rng.normal(size=(10, 2, d, d)))
        sigma = np.concatenate([ginibre_states(rng.normal(size=(7, 2, d, d))),
                                ginibre_states(rng.normal(size=(3, 2, d, d - 1)))])
        batched = sandwiched_renyi(rho, sigma, orders[:, None], cfg)
        assert batched.value.shape == (len(orders), 10)
        assert batched.support_violation[:, 7:].any()  # the rank-deficient sigmas
        for k, order in enumerate(orders.tolist()):
            single = sandwiched_renyi(rho, sigma, order, cfg)
            assert batched.value[k].tobytes() == single.value.tobytes(), (d, order)
            assert np.array_equal(batched.support_violation[k], single.support_violation)
        pair = sandwiched_renyi(rho[0], sigma[0], orders[:, None], cfg).value
        assert pair.tobytes() == np.array([sandwiched_renyi(rho[0], sigma[0], o, cfg).value
                                           for o in orders.tolist()])[:, None].tobytes()


def test_stacked_sandwiched_rejects_any_bad_order():
    rng = rng_for(22)
    r = np.stack([random_density(rng, 2).matrix for _ in range(3)])
    with pytest.raises(OrderOutOfRange):
        sandwiched_renyi(r, r, np.array([1.25, 1.0, 1.5]))


def test_classical_info_terms_self_check_is_a_library_error(monkeypatch):
    # Entropies that break the chain rule must raise a CovertqError
    # (exit 6 on the command line), not a bare RuntimeError.
    values = iter(range(1, 100))
    monkeypatch.setattr(divergences, "entropy_of_table", lambda table: float(next(values)))
    with pytest.raises(SelfCheckFailed, match="chain-rule"):
        classical_info_terms(np.full((2, 2, 2, 2), 1.0 / 16))
