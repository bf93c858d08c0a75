import numpy as np
import pytest

from conftest import rng_for
from covertq import regions
from covertq.config import DEFAULT
from covertq.errors import CovertInfeasible
from covertq.regions import (
    AuxiliaryPolicy,
    ClassicalProblem,
    SearchConfig,
    causal_rate,
    causal_rate_quantum,
    cc_csk_region,
    classical_region_evaluate,
    corollary_rates,
    csc_csk_region,
    degradedness_residual,
    fm_check,
    fm_projection_grid,
    induced_warden_distribution,
    optimize_auxiliary,
    superposition_transform,
    total_variation,
)
from covertq.sampling import matched_ensemble, random_problem_instance
from covertq.states import CQState, DensityMatrix, QuantumChannel


def xor_problem(eps=0.1, q=0.25, q_s=(0.5, 0.5)):
    """Receiver sees a noisy copy of the input, warden a noisy input-xor-state."""
    w = np.zeros((2, 2, 2, 2))
    for a in range(2):
        for s in range(2):
            for b in range(2):
                pb = (1 - eps) if b == a else eps
                for e in range(2):
                    pe = (1 - q) if e == (a ^ s) else q
                    w[a, s, b, e] = pb * pe
    return ClassicalProblem(list(q_s), w, x0=0)


def dirty_paper_policy():
    """u uniform independent of s, input a = u xor s."""
    p_u_s = np.full((2, 2), 0.5)
    p_a_us = np.zeros((2, 2, 2))
    for u in range(2):
        for s in range(2):
            p_a_us[u, s, u ^ s] = 1.0
    return AuxiliaryPolicy(p_u_s, p_a_us)


def relay_ensemble(p_b=0.65):
    ch = QuantumChannel([np.eye(4, dtype=complex)], in_factors=[("A", 2), ("S", 2)],
                        out_factors=[("B", 2), ("E", 2)])
    rho_s = np.diag([0.7, 0.3]).astype(complex)
    conds = [DensityMatrix(np.kron(np.diag([1.0, 0.0]), rho_s), [("A", 2), ("S", 2)]),
             DensityMatrix(np.kron(np.diag([0.0, 1.0]), rho_s), [("A", 2), ("S", 2)])]
    ens = CQState([0, 1], [p_b, 1 - p_b], conds)
    return ens, ch


def test_cc_region_no_information_clamps():
    rho = DensityMatrix(np.kron(np.eye(2) / 2, np.diag([0.7, 0.3])),
                        [("A", 2), ("S", 2)], validate=False)
    ens = CQState([0, 1], [0.5, 0.5], [rho, rho])
    ch = QuantumChannel([np.eye(4, dtype=complex)], in_factors=[("A", 2), ("S", 2)],
                        out_factors=[("B", 2), ("E", 2)])
    region = cc_csk_region(ens, ch)
    assert region.boundary == ((0.0, 0.0),)
    assert region.meta["I(U;B)"] == pytest.approx(0.0, abs=1e-9)


def test_cc_region_triangle_closed_form():
    # relay: U -> B perfectly (I(U;B) = H(p)), E sees only S (I(U;E) = 0 = I(U;S))
    ens, ch = relay_ensemble(0.5)
    region = cc_csk_region(ens, ch)
    bounds = {lab: b for lab, _, b in region.constraints}
    assert bounds["R"] == pytest.approx(1.0, abs=1e-9)
    assert bounds["R_K"] == pytest.approx(1.0, abs=1e-9)
    assert bounds["R+R_K"] == pytest.approx(1.0, abs=1e-9)
    assert (0.0, 1.0) in region.boundary and (1.0, 0.0) in region.boundary
    for r, k in region.boundary:
        assert region.contains(r, k)


def test_region_nesting_and_coincident_sum_edge():
    rng = rng_for(1)
    for _ in range(10):
        inst = random_problem_instance(rng)
        ens = matched_ensemble(rng, inst, 3)
        cc = cc_csk_region(ens, inst.channel)
        csc = csc_csk_region(ens, inst.channel)
        for point in csc.boundary:
            assert cc.contains(*point, tol=1e-9)

    # with I(U;E) = 0 the two sum edges coincide
    ens, ch = relay_ensemble(0.6)
    cc = cc_csk_region(ens, ch)
    csc = csc_csk_region(ens, ch)
    cc_sum = {lab: b for lab, _, b in cc.constraints}["R+R_K"]
    csc_sum = {lab: b for lab, _, b in csc.constraints}["R+R_K"]
    assert cc_sum == pytest.approx(csc_sum, abs=1e-9)


def test_corollary_rates_identities():
    ens, ch = relay_ensemble(0.5)
    cors = corollary_rates(ens, ch)
    assert cors["R_CC"] == pytest.approx(1.0, abs=1e-9)
    assert cors["R_CSK"] == pytest.approx(1.0, abs=1e-9)
    assert cors["R_CSC"] == pytest.approx(1.0, abs=1e-9)

    rng = rng_for(2)
    inst = random_problem_instance(rng)
    ens2 = matched_ensemble(rng, inst, 3)
    c2 = corollary_rates(ens2, inst.channel)
    assert c2["R_CSC"] == pytest.approx(min(
        max(0.0, c2["I(U;B)"] - c2["I(U;S)"]),
        max(0.0, c2["I(U;B)"] - c2["I(U;E)"])), abs=1e-12)


def test_corollary_side_condition_flag():
    # warden sees the codeword perfectly, receiver sees nothing useful
    w = np.zeros((2, 2, 2, 2))
    for a in range(2):
        for s in range(2):
            for b in range(2):
                for e in range(2):
                    w[a, s, b, e] = 0.5 * (1.0 if e == a else 0.0)
    # embed as a quantum relay: B gets S, E gets A
    swap = np.zeros((4, 4), dtype=complex)
    for a in range(2):
        for s in range(2):
            swap[2 * s + a, 2 * a + s] = 1.0
    ch = QuantumChannel([swap], in_factors=[("A", 2), ("S", 2)],
                        out_factors=[("B", 2), ("E", 2)])
    rho_s = np.diag([0.5, 0.5]).astype(complex)
    conds = [DensityMatrix(np.kron(np.diag([1.0, 0.0]), rho_s), [("A", 2), ("S", 2)]),
             DensityMatrix(np.kron(np.diag([0.0, 1.0]), rho_s), [("A", 2), ("S", 2)])]
    ens = CQState([0, 1], [0.5, 0.5], conds)
    cors = corollary_rates(ens, ch)
    assert cors["I(U;E)"] > cors["I(U;B)"]
    assert cors["R_CSK"] == 0.0
    assert not cors["side_R_CC_ok"]


def test_classical_thm3_state_entropy_case():
    # U independent of (B, E) given S; S independent of E: value is H(S|E) = H(S)
    q = 0.3
    w = np.zeros((2, 2, 2, 2))
    for a in range(2):
        for s in range(2):
            for b in range(2):
                for e in range(2):
                    w[a, s, b, e] = 0.25  # channel ignores everything
    prob = ClassicalProblem([1 - q, q], w, x0=0)
    pol = AuxiliaryPolicy(np.full((2, 2), 0.5), np.full((2, 2, 2), 0.5))
    val = classical_region_evaluate(prob, pol, "thm3")
    h_s = -(q * np.log2(q) + (1 - q) * np.log2(1 - q))
    assert val == pytest.approx(h_s, abs=1e-9)


def test_classical_degenerate_state_reduces_to_wiretap_form():
    # |S| = 1: thm3 collapses to I(U;B) - I(U;E), thm6 sum bound likewise
    eps, q = 0.05, 0.25
    w = np.zeros((2, 1, 2, 2))
    for a in range(2):
        for b in range(2):
            pb = (1 - eps) if b == a else eps
            for e in range(2):
                pe = (1 - q) if e == a else q
                w[a, 0, b, e] = pb * pe
    prob = ClassicalProblem([1.0], w, x0=0)
    pol = AuxiliaryPolicy(np.array([[0.5, 0.5]]),
                          np.array([[[1.0, 0.0]], [[0.0, 1.0]]]))
    # not covert (E sees the input); stealth mode skips the constraint
    val = classical_region_evaluate(prob, pol, "thm3", stealth=True)
    terms = classical_region_evaluate(prob, pol, "thm6", stealth=True).meta
    expected = terms["I(U;B)"] - terms["I(U;E)"]
    assert val == pytest.approx(expected, abs=1e-9)
    sum_bound = {lab: b for lab, _, b in
                 classical_region_evaluate(prob, pol, "thm6", stealth=True).constraints}
    assert sum_bound["R+R_K"] == pytest.approx(expected, abs=1e-9)


def test_classical_covert_enforcement():
    prob = xor_problem()
    pol = dirty_paper_policy()
    tv = total_variation(induced_warden_distribution(prob, pol), prob.q0())
    assert tv < 1e-12  # uniform u through the xor keeps the warden blind

    # bias u and the warden sees it
    biased = AuxiliaryPolicy(np.array([[0.9, 0.1], [0.9, 0.1]]), pol.p_a_us)
    with pytest.raises(CovertInfeasible):
        classical_region_evaluate(prob, biased, "thm6")
    classical_region_evaluate(prob, biased, "thm6", stealth=True)  # allowed


def test_thm6_within_thm4_for_degraded_channel():
    # warden output = receiver output through a flip: degraded by construction
    eps, flip = 0.1, 0.2
    w = np.zeros((2, 2, 2, 2))
    for a in range(2):
        for s in range(2):
            for b in range(2):
                pb = (1 - eps) if b == (a ^ s) else eps
                for e in range(2):
                    pe = (1 - flip) if e == b else flip
                    w[a, s, b, e] = pb * pe
    prob = ClassicalProblem([0.5, 0.5], w, x0=0)
    assert degradedness_residual(prob) < 1e-6
    pol = dirty_paper_policy()
    r6 = classical_region_evaluate(prob, pol, "thm6")
    r4 = classical_region_evaluate(prob, pol, "thm4_degraded")
    assert r4.meta["degraded"]
    for point in r6.boundary:
        assert r4.contains(*point, tol=1e-9)


def test_degradedness_residual_detects_non_degraded():
    # warden sees the state, receiver does not: no post-processing works
    w = np.zeros((2, 2, 2, 2))
    for a in range(2):
        for s in range(2):
            for b in range(2):
                for e in range(2):
                    w[a, s, b, e] = (1.0 if b == a else 0.0) * (1.0 if e == s else 0.0)
    prob = ClassicalProblem([0.5, 0.5], w, x0=0)
    assert degradedness_residual(prob) > 1e-3


def test_superposition_identities():
    rng = rng_for(3)
    for _ in range(20):
        w = rng.dirichlet(np.ones(4), size=(2, 2)).reshape(2, 2, 2, 2)
        prob = ClassicalProblem(rng.dirichlet([2, 2]), w, x0=0)
        pol = AuxiliaryPolicy(rng.dirichlet(np.ones(3), size=2),
                              rng.dirichlet(np.ones(2), size=(3, 2)))
        res = superposition_transform(prob, pol)
        assert res["identity_deviation"] < 1e-9
        assert res["key_capacity_value"] == pytest.approx(
            res["key_capacity_direct"], abs=1e-9)


def _merged_tables_loops(p):
    """The (U,S) x (B,S) and (U,S) x S tables of the stacking transform,
    one entry at a time (reference for superposition_transform)."""
    nu, ns, nb, _ = p.shape
    p_usb, p_us = p.sum(axis=3), p.sum(axis=(2, 3))
    merged_b, merged_s = np.zeros((nu * ns, nb * ns)), np.zeros((nu * ns, ns))
    for u in range(nu):
        for s in range(ns):
            merged_b[u * ns + s, np.arange(nb) * ns + s] = p_usb[u, s, :]
            merged_s[u * ns + s, s] = p_us[u, s]
    return merged_b, merged_s


def test_superposition_raw_terms_match_loop_reference():
    rng = rng_for(31)
    for na, ns, nb, ne, nu in [(2, 2, 2, 2, 3), (3, 2, 4, 2, 5), (2, 3, 2, 3, 4)]:
        w = rng.dirichlet(np.ones(nb * ne), size=(na, ns)).reshape(na, ns, nb, ne)
        prob = ClassicalProblem(rng.dirichlet(np.ones(ns)), w, x0=0)
        pol = AuxiliaryPolicy(rng.dirichlet(np.ones(nu), size=ns),
                              rng.dirichlet(np.ones(na), size=(nu, ns)))
        merged_b, merged_s = _merged_tables_loops(regions.joint_table(prob, pol))
        raw = superposition_transform(prob, pol)["raw"]
        assert raw["I(U;B)"] == regions._mutual_info_2d(merged_b)
        assert raw["I(U;S)"] == regions._mutual_info_2d(merged_s)


def _project_simplex_row(row):
    """One row of regions._project_simplex_rows, by the sort-and-threshold
    loop (reference)."""
    u = np.sort(row)[::-1]
    css = np.cumsum(u) - 1.0
    ks = np.arange(1, len(row) + 1)
    k = ks[u - css / ks > 0][-1]
    return np.maximum(row - css[k - 1] / k, 0.0)


def test_project_simplex_rows_matches_row_reference():
    rng = rng_for(33)
    x = rng.normal(size=(3, 4, 5))
    x[0, 0] = 0.2  # ties
    x[1, 1] = [5.0, -5.0, 0.0, 0.0, 1.0]
    got = regions._project_simplex_rows(x)
    assert got.shape == x.shape
    for row, out in zip(x.reshape(-1, 5), got.reshape(-1, 5)):
        assert np.array_equal(out, _project_simplex_row(row))
    assert np.allclose(got.sum(axis=-1), 1.0) and (got >= 0.0).all()


def _covert_repair_loops(problem, p_u_s, p_a_us, cfg, iters):
    """regions._covert_repair with its constraint matrix filled one column
    at a time (reference)."""
    nu, ns, na = p_a_us.shape
    w_e = problem.w_e()
    coef = np.einsum("s,su->us", problem.q_s, p_u_s)
    a_mat = np.zeros((problem.w.shape[3], nu * ns * na))
    for u in range(nu):
        for s in range(ns):
            for a in range(na):
                a_mat[:, (u * ns + s) * na + a] = coef[u, s] * w_e[a, s, :]
    b = problem.q0()
    pinv = np.linalg.pinv(a_mat)
    x = p_a_us.reshape(-1).copy()
    for _ in range(iters):
        x = x + pinv @ (b - a_mat @ x)
        x = regions._project_simplex_rows(x.reshape(nu * ns, na)).reshape(-1)
        if total_variation(a_mat @ x, b) <= cfg.covert_tol:
            return x.reshape(nu, ns, na)
    return None


def test_covert_repair_matches_loop_reference():
    rng = rng_for(32)
    outcomes = set()
    for na, ns, ne, nu in [(2, 2, 2, 3), (3, 2, 2, 4), (2, 3, 3, 5), (3, 3, 2, 2)] * 3:
        w = rng.dirichlet(np.ones(2 * ne), size=(na, ns)).reshape(na, ns, 2, ne)
        prob = ClassicalProblem(rng.dirichlet(np.ones(ns)), w, x0=0)
        p_u_s = rng.dirichlet(np.ones(nu), size=ns)
        p_a_us = rng.dirichlet(np.ones(na), size=(nu, ns))
        got = regions._covert_repair(prob, p_u_s, p_a_us, DEFAULT, 60)
        want = _covert_repair_loops(prob, p_u_s, p_a_us, DEFAULT, 60)
        outcomes.add(got is None)
        assert (got is None) == (want is None)
        if got is not None:
            assert np.array_equal(got, want)
    assert False in outcomes  # some repairs converge


def test_superposition_deterministic_state_is_identity():
    w = np.zeros((2, 1, 2, 2))
    w[:, 0] = np.full((2, 2, 2), 0.25)
    prob = ClassicalProblem([1.0], w, x0=0)
    pol = AuxiliaryPolicy(np.array([[0.4, 0.6]]),
                          np.array([[[0.7, 0.3]], [[0.2, 0.8]]]))
    res = superposition_transform(prob, pol)
    terms = res["terms"]
    assert res["raw"]["I(U;B)"] == pytest.approx(terms["I(U;B)"], abs=1e-12)
    assert res["raw"]["I(U;S)"] == pytest.approx(0.0, abs=1e-12)
    assert res["raw"]["I(U;E)"] == pytest.approx(terms["I(U;E)"], abs=1e-12)


def test_optimizer_beats_random_policies():
    # E ignores the channel input: every policy is covert
    rng = rng_for(4)
    w = np.zeros((2, 2, 2, 2))
    for a in range(2):
        for s in range(2):
            for b in range(2):
                pb = 0.9 if b == a else 0.1
                for e in range(2):
                    w[a, s, b, e] = pb * 0.5
    prob = ClassicalProblem([0.5, 0.5], w, x0=0)
    pol, val = optimize_auxiliary(prob, (1.0, 0.0), "thm6",
                                  SearchConfig(restarts=12, refine_passes=1,
                                               num_u=3, seed=1))
    for _ in range(100):
        rand = AuxiliaryPolicy(rng.dirichlet(np.ones(3), size=2),
                               rng.dirichlet(np.ones(2), size=(3, 2)))
        r = classical_region_evaluate(prob, rand, "thm6")
        assert r.scalarized_max(1.0, 0.0)[0] <= val + 1e-9


def test_optimizer_finds_noiseless_capacity():
    # noiseless receiver, trivial state, oblivious warden: capacity log2 |A|
    w = np.zeros((2, 1, 2, 2))
    for a in range(2):
        for b in range(2):
            for e in range(2):
                w[a, 0, b, e] = (1.0 if b == a else 0.0) * 0.5
    prob = ClassicalProblem([1.0], w, x0=0)
    _, val = optimize_auxiliary(prob, (1.0, 0.0), "thm6",
                                SearchConfig(restarts=16, refine_passes=2,
                                             num_u=3, seed=3))
    assert val == pytest.approx(1.0, abs=0.05)


def test_optimizer_infeasible_covertness():
    # warden reads the input directly; only the innocent letter matches q0,
    # and the repair cannot reach it within tolerance from generic starts
    w = np.zeros((2, 1, 2, 2))
    for a in range(2):
        for b in range(2):
            for e in range(2):
                w[a, 0, b, e] = 0.5 * (1.0 if e == a else 0.0)
    prob = ClassicalProblem([1.0], w, x0=0)
    try:
        _, val = optimize_auxiliary(prob, (1.0, 0.0), "thm6",
                                    SearchConfig(restarts=6, refine_passes=0,
                                                 num_u=2, seed=0))
    except CovertInfeasible:
        return
    # if the repair reaches the constraint the only survivors sit at x0
    assert val == pytest.approx(0.0, abs=0.05)


def test_causal_rate_contracts():
    prob = xor_problem()
    pol = dirty_paper_policy()
    # the dirty-paper policy is covert but gives I(U;B) = 0 without CSI at
    # the receiver, hence the side condition fails and the rate clamps
    res = causal_rate(prob, [(np.array([0.5, 0.5]), pol.p_a_us)])
    assert res["covert_feasible"]
    assert res["rate"] == 0.0 and not res["side_condition_met"]

    # state-independent channel: reduces to the plain covert optimization over p_u
    w = np.zeros((2, 2, 2, 2))
    for a in range(2):
        for s in range(2):
            for b in range(2):
                pb = 0.95 if b == a else 0.05
                for e in range(2):
                    w[a, s, b, e] = pb * 0.5
    prob2 = ClassicalProblem([0.5, 0.5], w, x0=0)
    direct_a = np.zeros((2, 2, 2))
    for u in range(2):
        direct_a[u, :, u] = 1.0
    cands = [(np.array([p, 1 - p]), direct_a) for p in (0.3, 0.5, 0.7)]
    res2 = causal_rate(prob2, cands)
    assert res2["side_condition_met"]
    # best candidate is the uniform one on this symmetric channel
    pol_best = AuxiliaryPolicy(np.full((2, 2), 0.5), direct_a)
    terms = classical_region_evaluate(prob2, pol_best, "thm6", stealth=True).meta
    assert res2["rate"] == pytest.approx(terms["I(U;B)"], abs=1e-9)


def test_causal_rate_dominated_by_noncausal():
    prob = xor_problem(eps=0.05, q=0.2)
    direct_a = np.zeros((2, 2, 2))
    for u in range(2):
        for s in range(2):
            direct_a[u, s, u ^ s] = 1.0
    p_us = [np.array([p, 1 - p]) for p in (0.3, 0.5, 0.7)]
    cands = [(p, direct_a) for p in p_us]
    res = causal_rate(prob, cands, stealth=True)
    # the non-causal evaluation over the same grid scores at least as high
    best_noncausal = 0.0
    for p in p_us:
        pol = AuxiliaryPolicy(np.tile(p, (2, 1)), direct_a)
        terms = classical_region_evaluate(prob, pol, "thm6", stealth=True).meta
        best_noncausal = max(best_noncausal, terms["I(U;B)"] - terms["I(U;S)"])
    assert res["rate"] <= best_noncausal + 1e-9


def test_causal_rate_quantum_matches_relay():
    ch = QuantumChannel([np.eye(4, dtype=complex)], in_factors=[("A", 2), ("S", 2)],
                        out_factors=[("B", 2), ("E", 2)])
    phi0 = DensityMatrix(np.eye(2, dtype=complex) / 2, [("A", 2)])
    bell = np.zeros((4, 4), dtype=complex)
    v = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    bell[:, :] = np.outer(v, v.conj())
    csi = DensityMatrix(bell, [("Sbar", 2), ("S", 2)])
    from covertq.states import ProblemInstance
    inst = ProblemInstance(ch, phi0, csi)
    # per-label channels replacing Sbar with a fixed orthogonal signal
    def constant_channel(idx):
        col = np.zeros((2, 1), dtype=complex)
        col[idx, 0] = 1.0
        return QuantumChannel([np.outer(col[:, 0], row) for row in np.eye(2)],
                              in_factors=[("Sbar", 2)], out_factors=[("A", 2)])
    cands = [(np.array([0.5, 0.5]), [constant_channel(0), constant_channel(1)])]
    res = causal_rate_quantum(inst, cands)
    # receiver sees the signal directly; warden sees only the S half
    assert res["rate"] == pytest.approx(1.0, abs=1e-9)
    assert res["side_condition_met"]


def test_fm_check_cases():
    assert fm_check(0.0, 1.0, 0.0)
    assert fm_check(0.3, 1.0, 0.4)
    assert fm_check(1.2, 1.0, 0.4)  # infeasible: both sides empty

    # the grid projection of the (a, b, c) = (0, 1, 0) system is the triangle
    r, rk, swept, direct = fm_projection_grid(0.0, 1.0, 0.0, 0.02)
    for i, rv in enumerate(r):
        for j, kv in enumerate(rk):
            assert direct[i, j] == (rv + kv <= 1.0 + 1e-9)
    assert np.array_equal(swept, direct)


def test_fm_check_random_grid_aligned():
    rng = rng_for(5)
    step = 0.02
    for _ in range(20):
        a = step * int(rng.integers(0, 40))
        b = step * int(rng.integers(0, 60))
        c = step * int(rng.integers(0, 40))
        assert fm_check(a, b, c, step)


def test_region_down_closed_on_grid():
    rng = rng_for(6)
    for _ in range(5):
        inst = random_problem_instance(rng)
        ens = matched_ensemble(rng, inst, 3)
        region = cc_csk_region(ens, inst.channel)
        top = max((r + k) for r, k in region.boundary) + 0.05
        grid = np.linspace(0.0, max(top, 0.1), 9)
        for r in grid:
            for k in grid:
                if region.contains(r, k):
                    # every dominated point stays inside
                    assert region.contains(0.5 * r, k)
                    assert region.contains(r, 0.5 * k)


def test_region_vertices_are_hull_consistent():
    ens, ch = relay_ensemble(0.5)
    region = cc_csk_region(ens, ch)
    # scalarized maxima over vertices match direct grid search
    grid = np.linspace(0.0, 1.2, 61)
    for w_r, w_rk in ((1.0, 0.0), (0.0, 1.0), (0.7, 0.3)):
        best_grid = max(w_r * r + w_rk * k
                        for r in grid for k in grid if region.contains(r, k))
        best_vertex, _ = region.scalarized_max(w_r, w_rk)
        assert best_vertex >= best_grid - 1e-9
