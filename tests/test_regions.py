from pathlib import Path

import numpy as np
import pytest

from conftest import rng_for
from covertq import regions
from covertq.divergences import classical_info_terms, holevo_mutual_info
from covertq.errors import CovertInfeasible
from covertq.oneshot import induced_states
from covertq.regions import (
    AuxiliaryPolicy,
    ClassicalProblem,
    causal_rate,
    cc_csk_region,
    classical_region_evaluate,
    corollary_rates,
    csc_csk_region,
    degradedness_residual,
    fm_check,
    fm_projection_grid,
    joint_table,
    superposition_transform,
    total_variation,
)
from covertq.sampling import matched_ensemble, random_problem_instance
from covertq.specio import load_spec
from covertq.states import CQState, DensityMatrix, QuantumChannel

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "covertq" / "fixtures"


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
    tv = total_variation(joint_table(prob, pol).sum(axis=(0, 1, 2)), prob.q0())
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


def _degradedness_reference(problem):
    """degradedness_residual with its step recomputed in every iteration."""
    na, ns, nb, ne = problem.w.shape
    a_mat = problem.w_b().reshape(na * ns, nb)
    y = problem.w_e().reshape(na * ns, ne)
    t, *_ = np.linalg.lstsq(a_mat, y, rcond=None)
    for _ in range(200):
        t = np.maximum(t, 0.0)
        rows = t.sum(axis=1, keepdims=True)
        t = np.where(rows > 0, t / rows, 1.0 / ne)
        grad = a_mat.T @ (a_mat @ t - y)
        step = 1.0 / max(np.linalg.norm(a_mat.T @ a_mat), 1e-12)
        t = t - step * grad
    t = np.maximum(t, 0.0)
    rows = t.sum(axis=1, keepdims=True)
    t = np.where(rows > 0, t / rows, 1.0 / ne)
    return float(np.max(np.abs(a_mat @ t - y)))


def test_degradedness_residual_matches_per_iteration_step():
    fixture = Path(__file__).parent.parent / "src" / "covertq" / "fixtures"
    problems = [load_spec(str(fixture / "classical_full_csi.json")).problem]
    rng = rng_for(78)
    for _ in range(20):
        na, ns, nb, ne = (int(x) for x in rng.integers(2, 4, 4))
        w = rng.dirichlet(np.ones(nb * ne), size=(na, ns)).reshape(na, ns, nb, ne)
        problems.append(ClassicalProblem(rng.dirichlet(np.ones(ns)), w, x0=0))
    for prob in problems:
        assert degradedness_residual(prob) == _degradedness_reference(prob)


def test_superposition_identities():
    rng = rng_for(3)
    for _ in range(20):
        w = rng.dirichlet(np.ones(4), size=(2, 2)).reshape(2, 2, 2, 2)
        prob = ClassicalProblem(rng.dirichlet([2, 2]), w, x0=0)
        pol = AuxiliaryPolicy(rng.dirichlet(np.ones(3), size=2),
                              rng.dirichlet(np.ones(2), size=(3, 2)))
        res = superposition_transform(prob, pol)
        assert res["identity_deviation"] < 1e-9
        terms = res["terms"]
        direct = terms["I(U;B|S)"] - terms["I(U;E|S)"] + terms["H(S|E)"]
        assert res["key_capacity_value"] == pytest.approx(direct, abs=1e-9)


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


def test_fm_check_cases():
    assert fm_check(0.0, 1.0, 0.0)
    assert fm_check(0.3, 1.0, 0.4)
    assert fm_check(1.2, 1.0, 0.4)  # infeasible: both sides empty
    for bad in [(-0.1, 1.0, 0.0), (0.0, 1.0, float("nan")), (float("nan"), 1.0, 0.0)]:
        with pytest.raises(ValueError, match="nonnegative"):
            fm_check(*bad)  # NaN passed min() and returned True

    # the grid projection of the (a, b, c) = (0, 1, 0) system is the triangle
    r, rk, swept, direct = fm_projection_grid(0.0, 1.0, 0.0, 0.02)
    for i, rv in enumerate(r):
        for j, kv in enumerate(rk):
            assert direct[i, j] == (rv + kv <= 1.0 + 1e-9)
    assert np.array_equal(swept, direct)


# The float-cube sweep that the integer-index sweep replaced, kept as the
# reference: every grid sum compared with a threshold widened by tol.
def _fm_projection_grid_reference(a, b, c, step):
    tol = 1e-9
    n = int(round(max(b, 0.0) / step)) + 1
    r = np.arange(n) * step
    rk = np.arange(n) * step
    rj = np.arange(n) * step
    rr, kk = np.meshgrid(r, rk, indexing="ij")
    jj = rj[None, None, :]
    feas = ((jj + kk[:, :, None] >= a - tol)
            & (jj + kk[:, :, None] + rr[:, :, None] <= b + tol)
            & (jj + rr[:, :, None] >= c - tol))
    swept = feas.any(axis=2)
    direct = (rr <= b - a + tol) & (kk <= b - c + tol) & (rr + kk <= b + tol)
    return r, rk, swept, direct


def _fm_triples(rng, step, count):
    """Grid-aligned and off-grid triples, a > b among them, and b on and
    just off a grid point."""
    for t in range(count):
        if t % 2 == 0:
            a, b, c = (step * int(rng.integers(0, m)) for m in (40, 80, 40))
        else:
            a, b, c = rng.uniform(0.0, 1.6, 3)
        yield a, b, c
        yield b + step * int(rng.integers(1, 5)), b, c  # a > b: both sides empty
        on = step * round(b / step)
        for off in (0.0, 1e-12, -1e-12, 1e-10, -1e-10, 2e-9, -2e-9):
            yield a, on + off, c


@pytest.mark.parametrize("step", [0.02, 0.03, 0.05, 0.1])
def test_fm_projection_grid_matches_float_sweep(step):
    rng = rng_for(int(step * 1000))
    triples = list(_fm_triples(rng, step, 60))
    assert len(triples) >= 500  # >= 2000 over the four steps
    for a, b, c in triples:
        got = fm_projection_grid(a, b, c, step)
        want = _fm_projection_grid_reference(a, b, c, step)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w), (a, b, c, step)


def test_fm_projection_grid_thresholds_beyond_the_grid():
    # bounds far outside the index range clip without wrapping the index dtype
    for a, b, c in [(-5.0, 1.0, -5.0), (1e6, 1.0, 0.0), (0.0, 1.0, 1e6),
                    (0.0, -1.0, 0.0), (0.0, 0.0, 0.0), (float("inf"), 1.0, 0.0)]:
        got = fm_projection_grid(a, b, c, 0.02)
        want = _fm_projection_grid_reference(a, b, c, 0.02)
        for g, w in zip(got, want):
            assert np.array_equal(g, w), (a, b, c)


def _fm_index_sum_reference(a, b, c, step):
    """The swept mask from the index-sum cube (j + k + i on the index dtype)
    that the in-place comparison cube replaced, with its index bounds."""
    tol = 1e-9
    n = int(round(max(b, 0.0) / step)) + 1
    top = 3 * (n - 1)
    lo_k, hi, lo_r = (int(np.clip(x, -1, top + 1)) for x in (
        np.ceil((a - tol) / step), np.floor((b + tol) / step), np.ceil((c - tol) / step)))
    idx = np.arange(n, dtype=np.result_type(np.int8, np.min_scalar_type(top)))
    i, k, j = idx[:, None, None], idx[None, :, None], idx[None, None, :]
    return ((j + k >= lo_k) & (j + k + i <= hi) & (j + i >= lo_r)).any(axis=2)


def test_fm_projection_grid_matches_index_sum_cube():
    rng = rng_for(77)
    triples = list(_fm_triples(rng, 0.02, 40))
    triples += [(-5.0, 1.0, -5.0), (1e6, 1.0, 0.0), (0.0, 1.0, 1e6), (0.0, 0.0, 0.0)]
    assert len(triples) >= 300
    for a, b, c in triples:
        swept = fm_projection_grid(a, b, c, 0.02)[2]
        assert np.array_equal(swept, _fm_index_sum_reference(a, b, c, 0.02)), (a, b, c)


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


# ---------------------------------------------------------------------------
# Classical embedding: a classical problem is the commuting special case of
# the quantum one, so the quantum terms must reproduce the classical ones.

def _embedded(problem, policy):
    """The policy's ensemble P(a, s | u) as diagonal states on A x S, and the
    channel w as one Kraus operator sqrt(w[a, s, b, e]) |b e><a s| per entry."""
    na, ns, nb, ne = problem.w.shape
    joint = np.einsum("s,su,usa->uas", problem.q_s, policy.p_u_s, policy.p_a_us)
    p_u = joint.sum(axis=(1, 2))
    conds = [DensityMatrix(np.diag(joint[u].ravel() / p_u[u]).astype(complex),
                           [("A", na), ("S", ns)]) for u in range(len(p_u))]
    kraus = np.zeros((problem.w.size, nb * ne, na * ns))
    for i, (a, s, b, e) in enumerate(np.ndindex(problem.w.shape)):
        kraus[i, b * ne + e, a * ns + s] = np.sqrt(problem.w[a, s, b, e])
    channel = QuantumChannel(kraus, [("A", na), ("S", ns)], [("B", nb), ("E", ne)])
    return CQState(range(len(p_u)), p_u, conds), channel


def _random_classical(rng, na, ns, nb, ne, nu):
    w = rng.dirichlet(np.ones(nb * ne), size=(na, ns)).reshape(na, ns, nb, ne)
    return (ClassicalProblem(rng.dirichlet(np.ones(ns)), w, x0=0),
            AuxiliaryPolicy(rng.dirichlet(np.ones(nu), size=ns),
                            rng.dirichlet(np.ones(na), size=(nu, ns))))


def _classical_cases():
    rng = rng_for(90)
    cases = [(xor_problem(), dirty_paper_policy())]
    spec = load_spec(FIXTURES / "classical_full_csi.json")
    cases.append((spec.problem, spec.policy))
    for sizes in [(2, 2, 2, 2, 3), (3, 2, 2, 3, 4), (2, 3, 3, 2, 2), (2, 1, 2, 2, 3)]:
        cases.append(_random_classical(rng, *sizes))
    return cases


@pytest.mark.parametrize("case", range(6))
def test_classical_embedding_reproduces_classical_terms(case):
    problem, policy = _classical_cases()[case]
    ensemble, channel = _embedded(problem, policy)
    classical = classical_info_terms(joint_table(problem, policy))
    st = induced_states(ensemble, channel)
    for name, cq in (("I(U;B)", st.cq_ub), ("I(U;S)", st.cq_us), ("I(U;E)", st.cq_ue)):
        assert abs(holevo_mutual_info(cq) - classical[name]) <= 1e-12, name
    region = cc_csk_region(ensemble, channel)
    iub, ius, iue = classical["I(U;B)"], classical["I(U;S)"], classical["I(U;E)"]
    want = {"R": iub - ius, "R_K": iub - iue, "R+R_K": iub}
    assert [label for label, _, _ in region.constraints] == list(want)
    for label, _, bound in region.constraints:
        assert abs(bound - want[label]) <= 1e-12, label
    for name in ("I(U;B)", "I(U;S)", "I(U;E)"):
        assert abs(region.meta[name] - classical[name]) <= 1e-12, name


def _merged(problem, policy):
    """The classical problem of the substitution U -> (U, S), B -> (B, S):
    labels the pairs (u, s) with P(u|s) > 0, receiver output (b, s)."""
    na, ns, nb, ne = problem.w.shape
    pairs = [(u, s) for s in range(ns) for u in range(policy.p_u_s.shape[1])
             if policy.p_u_s[s, u] > 0]
    w = np.einsum("asbe,st->asbte", problem.w, np.eye(ns)).reshape(na, ns, nb * ns, ne)
    p_u_s = np.array([[policy.p_u_s[s, u] * (s == t) for u, t in pairs] for s in range(ns)])
    p_a_us = np.array([[policy.p_a_us[u, t]] * ns for u, t in pairs])  # read at s = t only
    return ClassicalProblem(problem.q_s, w, x0=problem.x0), AuxiliaryPolicy(p_u_s, p_a_us)


@pytest.mark.parametrize("case", range(6))
def test_classical_regions_are_the_quantum_regions_of_the_merged_embedding(case):
    # the full-CSI theorems are the quantum regions of the diagonal cq
    # embedding of the merged problem: thm6 is csc_csk, thm3 its R+R_K bound,
    # and thm4 shares cc_csk's R and R+R_K rows (its R_K row is its own)
    problem, policy = _classical_cases()[case]
    ensemble, channel = _embedded(*_merged(problem, policy))
    csc = csc_csk_region(ensemble, channel).constraints
    cc = {label: bound for label, _, bound in cc_csk_region(ensemble, channel).constraints}

    def evaluate(which):
        return classical_region_evaluate(problem, policy, which, stealth=True)

    thm6 = evaluate("thm6").constraints
    assert [(label, co) for label, co, _ in thm6] == [(label, co) for label, co, _ in csc]
    for (label, _, got), (_, _, want) in zip(thm6, csc):
        assert abs(got - want) <= 1e-12, label
    assert abs(evaluate("thm3") - csc[-1][2]) <= 1e-12
    thm4 = {label: bound for label, _, bound in evaluate("thm4_degraded").constraints}
    for label in ("R", "R+R_K"):
        assert abs(thm4[label] - cc[label]) <= 1e-12, label
