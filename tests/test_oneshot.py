import json
import math
import os

import numpy as np
import pytest

from conftest import diag_state, rng_for
from covertq import oneshot
from covertq.cli import main
from covertq.divergences import cq_sandwiched_renyi
from covertq.errors import CapExceeded, CsiMismatch, EmptyFeasibleSet, SupportViolation
from covertq.oneshot import (
    BoundReport,
    bound_orders,
    ProtocolRates,
    bound_report,
    decoding_test_bounds,
    default_alpha_grid,
    induced_states,
    optimize_bound,
    resolvability_bound,
    verification_bounds,
)
from covertq.protocol import monte_carlo_verify
from covertq.sampling import matched_ensemble, random_problem_instance
from covertq.specio import load_spec
from covertq.states import CQState, DensityMatrix, QuantumChannel

QUBIT = os.path.join(os.path.dirname(__file__), "..", "src", "covertq", "fixtures",
                     "qubit_cnot.json")


@pytest.fixture(scope="module")
def fixture_instance():
    rng = rng_for(42)
    inst = random_problem_instance(rng)
    ens = matched_ensemble(rng, inst, 3)
    return inst, ens


def test_rates_validation():
    with pytest.raises(ValueError):
        ProtocolRates(R=-0.1, R_K=0, R_J=0, alpha=0.2)
    with pytest.raises(ValueError):
        ProtocolRates(R=0, R_K=0, R_J=0, alpha=0.5)
    with pytest.raises(ValueError):
        ProtocolRates(R=0, R_K=0, R_J=0, alpha=0.0)
    assert ProtocolRates(R=1.5, R_K=0, R_J=0.5, alpha=0.25).sizes() == (1, 1, 2)
    with pytest.raises(CapExceeded):
        ProtocolRates(R=0, R_K=5000, R_J=0, alpha=0.25).sizes()


def test_error_bound_large_randomness_kills_first_term(fixture_instance):
    inst, ens = fixture_instance
    st = induced_states(ens, inst.channel)
    rates = ProtocolRates(R=0.5, R_K=150.0, R_J=150.0, alpha=0.25)
    vb = verification_bounds(st, rates)
    assert vb["error_encoding"] < 1e-15
    assert vb["error_split"] == pytest.approx(vb["error_decoding"], rel=1e-12)


def test_error_bound_independent_closed_form():
    # U carries no information: product ensemble through a discarding channel.
    rng = rng_for(1)
    swap_out = np.zeros((4, 4), dtype=complex)  # constant-output channel
    from covertq.config import DEFAULT
    from covertq.linalg import eig_hermitian, spectral_fn
    target = np.kron(np.diag([0.6, 0.4]), np.diag([0.7, 0.3])).astype(complex)
    root = spectral_fn(eig_hermitian(target), np.sqrt, DEFAULT.support_tol)
    kraus = [np.outer(root[:, i], np.eye(4)[j]) for i in range(4) for j in range(4)]
    ch = QuantumChannel(kraus, in_factors=[("A", 2), ("S", 2)],
                        out_factors=[("B", 2), ("E", 2)])
    rho_s = diag_state(0.8, 0.2)
    cond = DensityMatrix(np.kron(np.eye(2) / 2, rho_s.matrix),
                         [("A", 2), ("S", 2)], validate=False)
    ens = CQState([0, 1], [0.5, 0.5], [cond, cond])
    st = induced_states(ens, ch)
    alpha = 0.25
    rates = ProtocolRates(R=0.5, R_K=0.5, R_J=1.0, alpha=alpha)
    vb = verification_bounds(st, rates)
    v_s, v_b = st.v_s, st.v_b
    expected = (2.0 * v_s ** alpha / alpha) * 2.0 ** (-alpha * (rates.R_J + rates.R_K)) \
        + 12.0 * v_b ** alpha * 2.0 ** (alpha * rates.total)
    assert vb["error_split"] == pytest.approx(expected, rel=1e-12)


def test_error_bound_formula_recomposition(fixture_instance):
    # recompose the bound by hand from divergence-module outputs
    inst, ens = fixture_instance
    st = induced_states(ens, inst.channel)
    alpha = 0.25
    rates = ProtocolRates(R=0.5, R_K=0.5, R_J=0.5, alpha=alpha)
    d_s = cq_sandwiched_renyi(st.cq_us, 1 + alpha).value
    d_b = cq_sandwiched_renyi(st.cq_ub, 1 - alpha).value
    by_hand = (2.0 * st.v_s ** alpha / alpha) \
        * 2.0 ** (alpha * (-(rates.R_J + rates.R_K) + d_s)) \
        + 12.0 * st.v_b ** alpha * 2.0 ** (alpha * (rates.total - d_b))
    got = verification_bounds(st, rates)["error_split"]
    assert got == pytest.approx(by_hand, rel=1e-12)


def test_covert_bound_decay_and_closed_form(fixture_instance):
    inst, ens = fixture_instance
    st = induced_states(ens, inst.channel)
    rates = ProtocolRates(R=100.0, R_K=0.0, R_J=100.0, alpha=0.25)
    assert verification_bounds(st, rates)["key_trace"] < 1e-6

    # U independent of E: every conditional equals the average
    cond = DensityMatrix(np.kron(np.eye(2) / 2, np.diag([0.7, 0.3])),
                         [("A", 2), ("S", 2)], validate=False)
    ens2 = CQState([0, 1], [0.5, 0.5], [cond, cond])
    st2 = induced_states(ens2, inst.channel)
    alpha, rj, r = 0.3, 1.0, 0.5
    got = verification_bounds(st2, ProtocolRates(R=r, R_K=0.0, R_J=rj,
                                                 alpha=alpha))["key_trace"]
    expected = (2.0 * math.sqrt(2.0) * st2.v_e ** (alpha / 2) / math.sqrt(alpha)) \
        * 2.0 ** (-(alpha / 2) * (rj + r))
    assert got == pytest.approx(expected, rel=1e-12)


def test_covert_bound_alpha_sweep_matches_grid(fixture_instance):
    inst, ens = fixture_instance
    st = induced_states(ens, inst.channel)
    for alpha in np.linspace(0.05, 0.45, 9):
        rates = ProtocolRates(R=1.0, R_K=0.0, R_J=1.0, alpha=float(alpha))
        direct = verification_bounds(st, rates)["key_trace"]
        d_e = st.finite_divergence("E", 1.0 + alpha)
        grid_val = (2.0 * math.sqrt(2.0) * st.v_e ** (alpha / 2) / math.sqrt(alpha)) \
            * 2.0 ** ((alpha / 2) * (-2.0 + d_e))
        assert direct == pytest.approx(grid_val, rel=1e-12)


def test_secure_covert_bound_relations(fixture_instance):
    inst, ens = fixture_instance
    st = induced_states(ens, inst.channel)
    alpha = 0.25
    r = 2.0
    rates = ProtocolRates(R=r, R_K=0.5, R_J=1.0, alpha=alpha)
    vb = verification_bounds(st, rates)
    thm1, thm5 = vb["key_trace"], vb["message_key_trace"]
    # the secure variant drops the message from the randomness pool and
    # the sqrt(2) prefactor: ratio is exactly 2^(alpha R / 2) / sqrt(2)
    assert thm5 / thm1 == pytest.approx(2.0 ** (alpha * r / 2.0) / math.sqrt(2.0),
                                        rel=1e-12)
    big_rj = ProtocolRates(R=0.0, R_K=0.0, R_J=200.0, alpha=alpha)
    assert verification_bounds(st, big_rj)["message_key_trace"] < 1e-6

    # U independent of E closed form
    cond = DensityMatrix(np.kron(np.eye(2) / 2, np.diag([0.7, 0.3])),
                         [("A", 2), ("S", 2)], validate=False)
    ens2 = CQState([0, 1], [0.5, 0.5], [cond, cond])
    st2 = induced_states(ens2, inst.channel)
    rj = 1.5
    got = verification_bounds(st2, ProtocolRates(R=1.0, R_K=0.0, R_J=rj,
                                                 alpha=alpha))["message_key_trace"]
    expected = (2.0 * st2.v_e ** (alpha / 2) / math.sqrt(alpha)) \
        * 2.0 ** (-alpha * rj / 2.0)
    assert got == pytest.approx(expected, rel=1e-12)


def test_resolvability_bound_values():
    rng = rng_for(2)
    rho = diag_state(0.6, 0.4)
    flat = CQState([0, 1], [0.5, 0.5], [rho, rho])
    alpha = 0.25
    got = resolvability_bound(flat, 1.0, alpha)
    v_e = 2  # distinct eigenvalues of diag(0.6, 0.4)
    assert got == pytest.approx(v_e ** alpha / (alpha * math.log(2)) * 2 ** (-alpha),
                                rel=1e-12)
    assert resolvability_bound(flat, 120.0, alpha) < 1e-6

    orth = CQState([0, 1], [0.5, 0.5], [diag_state(1, 0), diag_state(0, 1)])
    d_ue = cq_sandwiched_renyi(orth, 1.25).value
    assert d_ue == pytest.approx(1.0, abs=1e-12)  # classical formula by hand
    got2 = resolvability_bound(orth, 1.0, 0.25)
    # the average is maximally mixed: a single degenerate eigenvalue, v = 1
    hand = 1.0 / (0.25 * math.log(2)) * 2.0 ** (0.25 * (-1.0 + d_ue))
    assert got2 == pytest.approx(hand, rel=1e-12)


def test_decoding_test_bounds_zero_rate():
    # zero total rate, identical conditionals: divergence 0, bounds (v, v)^alpha
    rho = diag_state(0.6, 0.4)
    cq = CQState([0, 1], [0.5, 0.5], [rho, rho])
    alpha = 0.25
    rates = ProtocolRates(R=0.0, R_K=0.0, R_J=0.0, alpha=alpha)
    miss, alarm = decoding_test_bounds(cq, rates)
    assert miss == pytest.approx(2 ** alpha, rel=1e-12)
    assert alarm == pytest.approx(2 ** alpha, rel=1e-12)

    big = ProtocolRates(R=30.0, R_K=0.0, R_J=30.0, alpha=alpha)
    miss_b, alarm_b = decoding_test_bounds(cq, big)
    assert miss_b > 1.0  # vacuous
    assert alarm_b < 1e-9


def test_bound_report_component_sums(fixture_instance):
    inst, ens = fixture_instance
    rates = ProtocolRates(R=1.0, R_K=1.0, R_J=2.0, alpha=0.25)
    rep = bound_report(ens, inst, rates)
    assert isinstance(rep, BoundReport)
    assert rep.pe_bound == pytest.approx(
        rep.components["encoding"] + rep.components["decoding"], abs=1e-12)
    assert rep.flags["covert_target_matched"]
    assert all(v >= 0 for v in rep.components.values())
    assert set(rep.eigencounts) == {"v_S", "v_B", "v_E"}


def test_bound_monotonicity_in_rates(fixture_instance):
    inst, ens = fixture_instance
    st = induced_states(ens, inst.channel)
    prev_enc, prev_dec = None, None
    for rj in (0.0, 0.5, 1.0, 2.0):
        vb = verification_bounds(st, ProtocolRates(R=0.5, R_K=0.5, R_J=rj, alpha=0.2))
        if prev_enc is not None:
            assert vb["error_encoding"] < prev_enc
            assert vb["error_decoding"] > prev_dec
        prev_enc, prev_dec = vb["error_encoding"], vb["error_decoding"]


def test_csi_mismatch_raises(fixture_instance):
    inst, _ = fixture_instance
    bad_cond = DensityMatrix(np.kron(np.eye(2) / 2, np.diag([0.999, 0.001])),
                             [("A", 2), ("S", 2)], validate=False)
    bad = CQState([0], [1.0], [bad_cond])
    with pytest.raises(CsiMismatch):
        bound_report(bad, inst, ProtocolRates(R=0.1, R_K=0.1, R_J=0.1, alpha=0.2))


def test_optimizer_contracts(fixture_instance):
    # single grid point returns that point
    assert optimize_bound(lambda a, rj: a + rj, [0.25], [1.0]) == (0.25, 1.0, 1.25)

    # synthetic monotone-decreasing bound in R_J picks the largest R_J
    _, rj, _ = optimize_bound(lambda a, rj: 1.0 / (1.0 + rj), [0.1], [0.0, 1.0, 2.0])
    assert rj == 2.0

    # empty feasible set: every grid point reads an infinite divergence
    def infinite(a, rj):
        raise SupportViolation("divergence for E is infinite")

    with pytest.raises(EmptyFeasibleSet):
        optimize_bound(infinite, [0.1, 0.2], [0.0, 1.0])

    # grid argmin dominates every grid point on a real objective
    inst, ens = fixture_instance
    st = induced_states(ens, inst.channel)
    alphas = default_alpha_grid(8)
    rjs = [0.0, 1.0, 2.0, 4.0]

    def total(alpha, rj):
        rates = ProtocolRates(R=0.5, R_K=0.5, R_J=rj, alpha=alpha)
        vb = verification_bounds(st, rates)
        return vb["error_split"] + vb["key_trace"]

    best_a, best_rj, best_v = optimize_bound(total, alphas, rjs)
    for a in alphas:
        for rj in rjs:
            assert best_v <= total(float(a), float(rj)) + 1e-12


@pytest.mark.parametrize("alpha_grid", [None, [0.3, 0.2, 0.1, 0.1, 0.45]])
def test_optimize_fills_the_grid_in_one_stacked_call_per_marginal(alpha_grid, tmp_path,
                                                                   monkeypatch, capsys):
    with open(QUBIT) as fh:
        doc = json.load(fh)
    if alpha_grid is not None:  # repeats the spec's alpha 0.2 and the order 1.1
        doc["run"]["alpha_grid"] = alpha_grid
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    shapes = []
    real = oneshot.cq_sandwiched_renyi

    def counting(cq, order, cfg):
        shapes.append(np.shape(order))
        return real(cq, order, cfg)

    monkeypatch.setattr(oneshot, "cq_sandwiched_renyi", counting)
    assert main(["bound", "--spec", str(path), "--which", "thm1", "--optimize"]) == 0
    got = json.loads(capsys.readouterr().out)["results"]["optimized"]
    # bound_report reads the spec's alpha, then the grid takes one call per
    # marginal, and the grid loop only reads the cache
    grid = default_alpha_grid().tolist() if alpha_grid is None else alpha_grid
    new = len(set(grid) - {doc["rates"]["alpha"]})
    assert shapes == [(1,)] * 3 + [(new,)] * 3

    # the reference evaluates every alpha on a fresh, unfilled cache
    monkeypatch.undo()
    spec = load_spec(str(path))
    rates = spec.protocol_rates()
    best = None
    for a in sorted(grid):
        st = induced_states(spec.ensemble, spec.instance.channel, spec.cfg)
        for rj in [0.0, 0.5, 1.0, 2.0, 4.0, 8.0]:
            vb = verification_bounds(st, ProtocolRates(rates.R, rates.R_K, rj, a))
            value = vb["error_split"] + vb["key_trace"]
            if best is None or value < best[2]:
                best = (a, rj, value)
    assert got == {"alpha": best[0], "R_J": best[1], "value": best[2]}


def test_fill_caches_the_values_of_single_order_lookups(fixture_instance):
    inst, ens = fixture_instance
    filled, fresh = induced_states(ens, inst.channel), induced_states(ens, inst.channel)
    alphas = default_alpha_grid(6)
    for which, orders in zip("SBE", zip(*map(bound_orders, alphas.tolist()))):
        filled.fill(which, orders)
    assert len(filled._cache) == 3 * len(alphas)
    for a in alphas.tolist():
        for which, order in zip("SBE", (1.0 + a, 1.0 - a, 1.0 + a)):
            assert filled._cache[(which, order)] == fresh.divergence(which, order)


# per command: the marginals whose eigenvalue count its rows read
COUNTED = {"lemma1": ["E"], "lemma2": ["B"], "thm1": ["B", "E", "S"],
           "cc_csk": [], "csc_csk": [], "corollaries": []}


@pytest.mark.parametrize("which", sorted(COUNTED))
def test_lemma_commands_read_the_induced_states_cache(which, monkeypatch, capsys):
    # one divergence per marginal a row reads, at the row's order, and that
    # marginal's eigenvalue count once, by the count-only path: a lemma
    # counts the one marginal it reads, a region command none
    spec = load_spec(QUBIT)
    st = induced_states(spec.ensemble, spec.instance.channel, spec.cfg)
    marginal = {st.rho_s.matrix.tobytes(): "S", st.rho_b.matrix.tobytes(): "B",
                st.rho_e.matrix.tobytes(): "E"}
    assert len(marginal) == 3
    calls = {"cq_sandwiched_renyi": [], "eigencount": []}
    for name in calls:
        def counting(*args, real=getattr(oneshot, name), name=name, **kwargs):
            calls[name].append(args[0])
            return real(*args, **kwargs)
        monkeypatch.setattr(oneshot, name, counting)
    command = "bound" if which in ("lemma1", "lemma2", "thm1") else "region"
    assert main([command, "--spec", QUBIT, "--which", which]) == 0
    capsys.readouterr()
    assert sorted(marginal[rho.matrix.tobytes()] for rho in calls["eigencount"]) == COUNTED[which]
    assert len(calls["cq_sandwiched_renyi"]) == len(COUNTED[which])


def test_every_vacuity_flag_is_its_bound_above_the_table_limit():
    # a rate point where the flags differ: the error bound is vacuous, the
    # covertness bounds are not
    spec = load_spec(QUBIT)
    rates = ProtocolRates(R=1.0, R_K=0.0, R_J=10.0, alpha=0.45)
    limit = {name: row[1] for name, row in oneshot.ROWS.items()}
    limit["error_split"] = limit[oneshot.SPLIT[0]]
    assert (limit["error_split"], limit["key_p2"], limit["key_trace"]) == (1.0, 1.0, 2.0)

    rep = bound_report(spec.ensemble, spec.instance, rates, spec.cfg)
    want = {"pe_vacuous": rep.pe_bound > limit["error_split"],
            "covert_vacuous": rep.covert_bound > limit["key_trace"]}
    assert {k: v for k, v in rep.flags.items() if k.endswith("_vacuous")} == want
    assert want == {"pe_vacuous": True, "covert_vacuous": False}

    sim = monte_carlo_verify(spec.ensemble, spec.instance, rates, 30, 1, cfg=spec.cfg)
    flagged = {"error_bound_vacuous": "error_split", "key_p2_bound_vacuous": "key_p2",
               "message_key_p2_bound_vacuous": "message_key_p2",
               "key_trace_bound_vacuous": "key_trace"}
    want = {flag: sim.bounds[name] > limit[name] for flag, name in flagged.items()}
    assert {k: v for k, v in sim.flags.items() if k.endswith("_vacuous")} == want
    assert [flag for flag, on in want.items() if on] == ["error_bound_vacuous"]
