import math
import os

import numpy as np
import pytest

from conftest import diag_state, rng_for
from covertq import protocol
from covertq.divergences import fidelity
from covertq.config import DEFAULT
from covertq.errors import CapExceeded, DimMismatch, NotADistribution
from covertq.linalg import trace_norm
from covertq.oneshot import ProtocolRates, induced_states
from covertq.pinching import decoder_projector_blocks
from covertq.protocol import (
    _ideal_errors,
    _p2,
    _penalties,
    _srm,
    _warden_blocks,
    Codebook,
    build_decoder,
    monte_carlo_verify,
    sample_codebook,
)
from covertq.sampling import (
    _mean_se,
    matched_ensemble,
    random_density,
    random_problem_instance,
)
from covertq.specio import load_spec
from covertq.states import (
    CQState,
    DensityMatrix,
    ProblemInstance,
    QuantumChannel,
    innocent_output,
)

QUBIT = os.path.join(os.path.dirname(__file__), "..", "src", "covertq", "fixtures",
                     "qubit_cnot.json")


def relay_fixture():
    """Identity channel with factor relabeling: receiver gets A, warden gets S."""
    ch = QuantumChannel([np.eye(4, dtype=complex)], in_factors=[("A", 2), ("S", 2)],
                        out_factors=[("B", 2), ("E", 2)])
    phi0 = DensityMatrix(np.eye(2, dtype=complex) / 2, [("A", 2)])
    rho_s = DensityMatrix(np.diag([0.7, 0.3]).astype(complex), [("S", 2)])
    inst = ProblemInstance(ch, phi0, rho_s)
    conds = [DensityMatrix(np.kron(np.diag([1.0, 0.0]), rho_s.matrix).astype(complex),
                           [("A", 2), ("S", 2)]),
             DensityMatrix(np.kron(np.diag([0.0, 1.0]), rho_s.matrix).astype(complex),
                           [("A", 2), ("S", 2)])]
    ens = CQState([0, 1], [0.5, 0.5], conds)
    return inst, ens


def _ideal_error(cb, povm, b_conds):
    """Idealized decoding error of one codebook: the stacked evaluation on a
    stack of one, with each entry's POVM element read through ``povm``."""
    ops = np.stack([povm.element(*idx) for idx in np.ndindex(cb.sizes)])
    ops = ops.reshape(cb.entries.shape + ops.shape[-2:])
    outputs = np.asarray(b_conds)[cb.entries]
    return float(_ideal_errors(ops[None], outputs[None])[0])


def test_sample_codebook_contracts():
    rates = ProtocolRates(R=1.0, R_K=1.0, R_J=1.0, alpha=0.25)
    point = sample_codebook(np.array([0.0, 1.0]), rates, seed=0)
    assert np.all(point.entries == 1)

    single = sample_codebook(np.array([0.3, 0.7]),
                             ProtocolRates(R=0.0, R_K=0.0, R_J=0.0, alpha=0.25),
                             seed=1)
    assert single.entries.shape == (1, 1, 1)

    big = sample_codebook(np.array([0.5, 0.5]),
                          ProtocolRates(R=10.0, R_K=0.0, R_J=0.0, alpha=0.25),
                          seed=2)
    freq = np.mean(big.entries == 0)
    assert abs(freq - 0.5) < 0.05

    with pytest.raises(CapExceeded):
        sample_codebook(np.array([0.5, 0.5]),
                        ProtocolRates(R=13.0, R_K=0.0, R_J=0.0, alpha=0.25), seed=3)


def test_sample_codebook_draws_as_rng_choice():
    # the reference is the rng.choice call that sample_codebook made before
    # both simulators shared one inverse-CDF sampler
    rng = rng_for(90)
    for case in range(300):
        k = int(rng.integers(1, 9))
        p = rng.dirichlet(np.ones(k)) * float(rng.uniform(0.5, 2.0))
        p[rng.random(k) < 0.3] = 0.0
        p[int(rng.integers(k))] += 0.25  # keep some mass
        p /= p.sum()  # a codeword law sums to one
        rates = ProtocolRates(R=float(rng.integers(0, 4)), R_K=float(rng.integers(0, 3)),
                              R_J=float(rng.integers(0, 3)), alpha=0.25)
        a, b = rng_for(case), rng_for(case)
        got = sample_codebook(p, rates, a).entries
        want = b.choice(len(p), size=rates.sizes(), p=p / p.sum())
        assert got.shape == want.shape and np.array_equal(got, want)
        assert a.random() == b.random()
    with pytest.raises(NotADistribution):
        sample_codebook(np.array([0.5, -0.5, 1.0]), rates, seed=0)


def test_sample_codebook_reproducible():
    rates = ProtocolRates(R=2.0, R_K=1.0, R_J=1.0, alpha=0.25)
    a = sample_codebook(np.array([0.4, 0.6]), rates, seed=11)
    b = sample_codebook(np.array([0.4, 0.6]), rates, seed=11)
    assert np.array_equal(a.entries, b.entries)


def test_build_decoder_single_codeword_full_projector():
    inst, ens = relay_fixture()
    st = induced_states(ens, inst.channel)
    rates = ProtocolRates(R=0.0, R_K=0.0, R_J=0.0, alpha=0.25)
    cb = Codebook(np.zeros((1, 1, 1), dtype=np.intp), (1, 1, 1))
    # threshold low enough that the projector block is the identity
    povm = build_decoder(cb, st.cq_ub, rates, threshold_exponent=-60.0)
    el = povm.element(0, 0, 0)
    assert np.max(np.abs(el - np.eye(2))) < 1e-9
    assert np.max(np.abs(povm.fail)) < 1e-9

    # threshold so high the projector vanishes: everything lands in fail
    povm0 = build_decoder(cb, st.cq_ub, rates, threshold_exponent=60.0)
    assert np.max(np.abs(povm0.element(0, 0, 0))) < 1e-12
    assert np.max(np.abs(povm0.fail - np.eye(2))) < 1e-12


def test_build_decoder_povm_completeness_seeded():
    rng = rng_for(5)
    inst = random_problem_instance(rng)
    ens = matched_ensemble(rng, inst, 3)
    st = induced_states(ens, inst.channel)
    rates = ProtocolRates(R=1.0, R_K=1.0, R_J=1.0, alpha=0.25)
    cb = sample_codebook(ens.probs, rates, seed=7)
    povm = build_decoder(cb, st.cq_ub, rates)  # validates internally at 1e-8
    total = povm.fail.copy()
    nj, nk, nm = cb.sizes
    for j in range(nj):
        for k in range(nk):
            for m in range(nm):
                total = total + povm.element(j, k, m)
    assert np.max(np.abs(total - np.eye(2))) < 1e-8


def test_ideal_error_orthogonal_codewords():
    inst, ens = relay_fixture()
    st = induced_states(ens, inst.channel)
    rates = ProtocolRates(R=1.0, R_K=0.0, R_J=0.0, alpha=0.3)
    cb = Codebook(np.array([[[0, 1]]], dtype=np.intp), (1, 1, 2))
    povm = build_decoder(cb, st.cq_ub, rates)
    b_conds = [c.matrix for c in st.cq_ub.conditionals]
    err = _ideal_error(cb, povm, b_conds)
    assert err < 1e-6


def test_ideal_error_uniform_guessing():
    # channel output independent of the codeword, sizes (1, 2, 2):
    # a symmetric POVM guesses uniformly over 4 outcomes
    rho = random_density(rng_for(6), 2)
    cq = CQState([0, 1], [0.5, 0.5], [rho, rho])
    cb = Codebook(np.array([[[0, 1], [1, 0]]], dtype=np.intp), (1, 2, 2))
    rates = ProtocolRates(R=1.0, R_K=1.0, R_J=0.0, alpha=0.25)
    povm = build_decoder(cb, cq, rates, threshold_exponent=-60.0)
    err = _ideal_error(cb, povm, [rho.matrix, rho.matrix])
    assert err == pytest.approx(0.75, abs=1e-10)


def test_ideal_error_single_entry_is_fail_mass():
    inst, ens = relay_fixture()
    st = induced_states(ens, inst.channel)
    rates = ProtocolRates(R=0.0, R_K=0.0, R_J=0.0, alpha=0.25)
    cb = Codebook(np.zeros((1, 1, 1), dtype=np.intp), (1, 1, 1))
    povm = build_decoder(cb, st.cq_ub, rates, threshold_exponent=0.5)
    rho = st.cq_ub.conditionals[0].matrix
    err = _ideal_error(cb, povm, st.cq_ub.matrices)
    assert err == pytest.approx(float(np.trace(povm.fail @ rho).real), abs=1e-12)


def test_ideal_error_triple_vs_message_key():
    rng = rng_for(8)
    inst = random_problem_instance(rng)
    ens = matched_ensemble(rng, inst, 3)
    st = induced_states(ens, inst.channel)
    rates = ProtocolRates(R=1.0, R_K=1.0, R_J=1.0, alpha=0.25)
    cb = sample_codebook(ens.probs, rates, seed=9)
    povm = build_decoder(cb, st.cq_ub, rates, threshold_exponent=-60.0)
    b_conds = [c.matrix for c in st.cq_ub.conditionals]
    e_mk = _ideal_error(cb, povm, b_conds)
    # matching the full triple (j, k, m) succeeds less often than (k, m)
    succ = sum(np.trace(povm.element(*idx) @ b_conds[int(cb.entries[idx])]).real
               for idx in np.ndindex(cb.sizes))
    e_tr = min(1.0, max(0.0, 1.0 - succ / cb.num_entries))
    assert e_mk <= e_tr + 1e-12


def test_uhlmann_penalty_limits():
    rho_s = diag_state(0.7, 0.3)
    entries = np.zeros((1, 2, 2, 1), dtype=np.intp)  # a stack of one codebook
    same = np.stack([rho_s.matrix, rho_s.matrix])
    assert _penalties(entries, same, rho_s, DEFAULT)[0] == pytest.approx(0.0, abs=1e-9)
    # sub-codebook average orthogonal to the target
    orth = np.stack([np.diag([0.0, 1.0]).astype(complex)] * 2)
    assert _penalties(entries, orth, diag_state(1.0, 0.0), DEFAULT)[0] \
        == pytest.approx(1.0, abs=1e-9)


def test_uhlmann_penalty_shrinks_with_subcodebook_size():
    # soft-covering onset: the penalty mean decreases as bins multiply
    rng = rng_for(10)
    inst = random_problem_instance(rng)
    ens = matched_ensemble(rng, inst, 4, spread=1.0)
    st = induced_states(ens, inst.channel)
    means = []
    for rj in (0.0, 2.0, 4.0):
        vals = []
        for seed in range(60):
            rates = ProtocolRates(R=0.0, R_K=1.0, R_J=rj, alpha=0.25)
            cb = sample_codebook(ens.probs, rates, seed=1000 + seed)
            vals.append(_penalties(cb.entries[None], st.cq_us.matrices, st.rho_s, DEFAULT)[0])
        means.append(float(np.mean(vals)))
    assert means[0] > means[1] > means[2]


def test_covert_distance_exact_zero_and_blocks():
    # the key-covertness distance is the mean of the blockwise trace norms
    rho0 = diag_state(0.7, 0.3)
    entries = np.array([[[[0, 1], [1, 0]]]], dtype=np.intp)  # a stack of one codebook
    key, _ = _warden_blocks(entries, [rho0.matrix, rho0.matrix])
    assert np.mean(trace_norm(key[0] - rho0.matrix)) == pytest.approx(0.0, abs=1e-12)

    # block identity: distance equals the average of per-key block norms
    e0 = np.diag([1.0, 0.0]).astype(complex)
    e1 = np.diag([0.0, 1.0]).astype(complex)
    key, _ = _warden_blocks(entries, [e0, e1])
    d = np.mean(trace_norm(key[0] - rho0.matrix))
    blocks = [0.5 * (e0 + e1), 0.5 * (e1 + e0)]
    expected = np.mean([trace_norm(b - rho0.matrix) for b in blocks])
    assert d == pytest.approx(float(expected), abs=1e-12)


def test_covert_distance_mode_ordering():
    # tracing out the message can only shrink the distance
    rng = rng_for(11)
    conds = [random_density(rng, 2).matrix for _ in range(2)]
    rho0 = random_density(rng, 2)
    for seed in range(10):
        rates = ProtocolRates(R=1.0, R_K=1.0, R_J=1.0, alpha=0.25)
        cb = sample_codebook(np.array([0.5, 0.5]), rates, seed=seed)
        key, message_key = _warden_blocks(cb.entries[None], conds)
        d_cc = np.mean(trace_norm(key[0] - rho0.matrix))
        d_csc = np.mean(trace_norm(message_key[0] - rho0.matrix))
        assert d_csc >= d_cc - 1e-10


def test_covert_p2_pairs_with_distance():
    rng = rng_for(12)
    conds = [random_density(rng, 2).matrix for _ in range(3)]
    target = random_density(rng, 2)
    rates = ProtocolRates(R=1.0, R_K=1.0, R_J=1.0, alpha=0.25)
    cb = sample_codebook(np.array([0.3, 0.3, 0.4]), rates, seed=3)
    for blocks in _warden_blocks(cb.entries[None], conds):  # cc_csk, then csc_csk
        d = np.mean(trace_norm(blocks[0] - target.matrix))
        p2 = _p2(fidelity(blocks[0], target))
        assert d <= 2.0 * math.sqrt(p2) + 1e-9


def test_monte_carlo_trivial_channel_all_zero():
    # warden conditionals all equal the innocent output: metrics vanish
    inst, ens = relay_fixture()
    rates = ProtocolRates(R=1.0, R_K=0.0, R_J=0.0, alpha=0.3)
    sim = monte_carlo_verify(ens, inst, rates, trials=40, seed=2)
    assert sim.means["key_p2"] == pytest.approx(0.0, abs=1e-9)
    assert sim.means["key_trace"] == pytest.approx(0.0, abs=1e-9)
    assert all(sim.verdicts.values())


def test_monte_carlo_relay_error_is_collision_rate():
    # two messages, codewords iid uniform over two orthogonal signals:
    # half the codebooks collide and then guess between two entries
    inst, ens = relay_fixture()
    rates = ProtocolRates(R=1.0, R_K=0.0, R_J=0.0, alpha=0.3)
    sim = monte_carlo_verify(ens, inst, rates, trials=400, seed=3)
    assert sim.means["ideal_error"] == pytest.approx(0.25, abs=0.04)


def test_monte_carlo_requires_trials():
    inst, ens = relay_fixture()
    rates = ProtocolRates(R=1.0, R_K=0.0, R_J=0.0, alpha=0.3)
    with pytest.raises(ValueError):
        monte_carlo_verify(ens, inst, rates, trials=10, seed=0)


def test_monte_carlo_vacuity_flagged():
    rng = rng_for(13)
    inst = random_problem_instance(rng)
    ens = matched_ensemble(rng, inst, 3)
    rates = ProtocolRates(R=2.0, R_K=1.0, R_J=1.0, alpha=0.25)
    sim = monte_carlo_verify(ens, inst, rates, trials=40, seed=4)
    assert sim.flags["error_bound_vacuous"]
    assert sim.means["ideal_error"] > 0.9  # rates far above what the channel carries
    assert all(sim.verdicts.values())  # inequalities still hold


def test_monte_carlo_seed_determinism():
    rng = rng_for(14)
    inst = random_problem_instance(rng)
    ens = matched_ensemble(rng, inst, 3)
    rates = ProtocolRates(R=1.0, R_K=1.0, R_J=1.0, alpha=0.25)
    a = monte_carlo_verify(ens, inst, rates, trials=35, seed=9)
    b = monte_carlo_verify(ens, inst, rates, trials=35, seed=9)
    assert a.means == b.means and a.std_errors == b.std_errors


def _per_block_covertness(cb, e_conds, rho_e, rho0) -> dict[str, float]:
    """Reference for one trial: blocks built as lists, then one fidelity or
    trace norm per block (the loop monte_carlo_verify used to run)."""
    nj, nk, nm = cb.sizes

    def mean(mats):
        return sum(mats) / len(mats)

    key = [mean([e_conds[int(cb.entries[j, k, m])] for j in range(nj) for m in range(nm)])
           for k in range(nk)]
    message_key = [mean([e_conds[int(cb.entries[j, k, m])] for j in range(nj)])
                   for k in range(nk) for m in range(nm)]

    def p2(blocks, target):
        f = float(np.mean([fidelity(DensityMatrix(b, validate=False), target)
                           for b in blocks]))
        return min(1.0, max(0.0, 1.0 - f * f))

    def dist(blocks, target):
        return float(np.mean([trace_norm(b - target.matrix) for b in blocks]))

    return {"key_p2": p2(key, rho_e), "message_key_p2": p2(message_key, rho_e),
            "key_trace": dist(key, rho0), "message_key_trace": dist(message_key, rho0),
            "key_p2_innocent": p2(key, rho0),
            "message_key_p2_innocent": p2(message_key, rho0)}


@pytest.mark.parametrize("case", ["qubit_cnot", "seeded"])
def test_monte_carlo_covertness_matches_per_block_loop(case):
    if case == "qubit_cnot":
        spec = load_spec(QUBIT)
        ens, inst, rates = spec.ensemble, spec.instance, spec.protocol_rates()
    else:
        # unmatched ensemble, so the induced warden state differs from rho0
        rng = rng_for(15)
        inst = random_problem_instance(rng)
        conds = [random_density(rng, 4, factors=[("A", 2), ("S", 2)]) for _ in range(3)]
        ens = CQState(range(3), rng.dirichlet(np.ones(3)), conds)
        rates = ProtocolRates(R=1.0, R_K=1.0, R_J=1.0, alpha=0.25)
    trials, seed = 40, 21
    sim = monte_carlo_verify(ens, inst, rates, trials, seed)
    st = induced_states(ens, inst.channel)
    rho0 = innocent_output(inst)
    e_conds = [c.matrix for c in st.cq_ue.conditionals]
    pairs_ok = True
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(trials)):
        cb = sample_codebook(ens.probs, rates, np.random.default_rng(child))
        if case == "seeded":
            assert cb.sizes[1] > 1 and cb.sizes[2] > 1
            assert trace_norm(st.rho_e.matrix - rho0.matrix) > 0.1
        ref = _per_block_covertness(cb, e_conds, st.rho_e, rho0)
        for name in ("key_p2", "message_key_p2", "key_trace", "message_key_trace"):
            assert sim.per_trial[name][i] == pytest.approx(ref[name], abs=1e-12)
        pairs_ok &= (ref["key_trace"] <= 2.0 * math.sqrt(ref["key_p2_innocent"]) + 1e-9
                     and ref["message_key_trace"]
                     <= 2.0 * math.sqrt(ref["message_key_p2_innocent"]) + 1e-9)
    assert sim.verdicts["trace_pairing"] == pairs_ok


# ---------------------------------------------------------------------------
# monte_carlo_verify evaluates all trials of a chunk in stacked calls; the
# per-codebook loop it replaced stays here as the reference.

def _loop_decoder(cb, blocks, cfg):
    """Square-root measurement built label by label, one element at a time."""
    d = blocks[0].shape[0]
    labels, counts = np.unique(cb.entries, return_counts=True)
    s_op = np.zeros((d, d), dtype=complex)
    for lab, cnt in zip(labels, counts):
        s_op += cnt * blocks[int(lab)]
    w, v = np.linalg.eigh(s_op)
    cut = cfg.support_tol * np.max(np.abs(w))
    inv = np.array([x ** -0.5 if x > cut else 0.0 for x in w])
    s_inv_sqrt = (v * inv) @ v.conj().T
    return {int(lab): s_inv_sqrt @ blocks[int(lab)] @ s_inv_sqrt for lab in labels}


def _loop_ideal_error(cb, elements, b_conds):
    nj, nk, nm = cb.sizes
    succ = 0.0
    for k in range(nk):
        for m in range(nm):
            w = sum(elements[int(cb.entries[jp, k, m])] for jp in range(nj))
            for j in range(nj):
                succ += float(np.real(np.trace(w @ b_conds[int(cb.entries[j, k, m])])))
    return min(1.0, max(0.0, 1.0 - succ / cb.num_entries))


def _loop_penalty(cb, rho_s, s_conds):
    nj, nk, _ = cb.sizes
    tau = sum(s_conds[int(cb.entries[j, k, 0])] for j in range(nj) for k in range(nk))
    f = fidelity(DensityMatrix(tau / (nj * nk), validate=False), rho_s)
    return min(1.0, max(0.0, 1.0 - f * f))


def _seeded_unmatched():
    rng = rng_for(15)
    inst = random_problem_instance(rng)
    conds = [random_density(rng, 4, factors=[("A", 2), ("S", 2)]) for _ in range(3)]
    ens = CQState(range(3), rng.dirichlet(np.ones(3)), conds)
    return ens, inst, ProtocolRates(R=1.0, R_K=1.0, R_J=1.0, alpha=0.25)


@pytest.mark.parametrize("case", ["qubit_cnot", "seeded"])
@pytest.mark.parametrize("cap", [None, 20])
def test_monte_carlo_matches_per_trial_loop(case, cap):
    if case == "qubit_cnot":
        spec = load_spec(QUBIT)
        ens, inst, rates = spec.ensemble, spec.instance, spec.protocol_rates()
    else:
        ens, inst, rates = _seeded_unmatched()
    # A cap of 20 entries splits the 41 trials into chunks of 5 (qubit_cnot,
    # 4 entries per codebook) or 2 (seeded, 8 entries), the last one short.
    cfg = DEFAULT if cap is None else DEFAULT.replaced(codebook_cap=cap)
    trials, seed = 41, 5
    sim = monte_carlo_verify(ens, inst, rates, trials, seed, cfg=cfg)
    st = induced_states(ens, inst.channel)
    rho0 = innocent_output(inst)
    nj, nk, nm = rates.sizes()
    blocks = decoder_projector_blocks(st.cq_ub, math.log2(nj * nk * nm), st.rho_b)
    b_conds = [c.matrix for c in st.cq_ub.conditionals]
    s_conds = [c.matrix for c in st.cq_us.conditionals]
    e_conds = [c.matrix for c in st.cq_ue.conditionals]
    pairs_ok = True
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(trials)):
        cb = sample_codebook(ens.probs, rates, np.random.default_rng(child))
        if case == "seeded":
            assert min(cb.sizes) > 1
        elements = _loop_decoder(cb, blocks, DEFAULT)
        err = _loop_ideal_error(cb, elements, b_conds)
        pen = _loop_penalty(cb, st.rho_s, s_conds)
        ref = _per_block_covertness(cb, e_conds, st.rho_e, rho0)
        ref.update(ideal_error=err, penalty_p2=pen, split_lhs=2.0 * err + 2.0 * pen)
        for name, series in sim.per_trial.items():
            assert series[i] == pytest.approx(ref[name], abs=1e-12), name
        pairs_ok &= (ref["key_trace"] <= 2.0 * math.sqrt(ref["key_p2_innocent"]) + 1e-9
                     and ref["message_key_trace"]
                     <= 2.0 * math.sqrt(ref["message_key_p2_innocent"]) + 1e-9)
        # the one-codebook decoder and a stack of one are the same stacked code
        povm = build_decoder(cb, st.cq_ub, rates, threshold_exponent=math.log2(nj * nk * nm))
        assert povm.elements_by_label.keys() == elements.keys()
        for lab, el in elements.items():
            assert np.max(np.abs(povm.elements_by_label[lab] - el)) < 1e-12
        assert _ideal_error(cb, povm, b_conds) == pytest.approx(err, abs=1e-12)
        assert _penalties(cb.entries[None], st.cq_us.matrices, st.rho_s, DEFAULT)[0] \
            == pytest.approx(pen, abs=1e-12)
    assert len(sim.per_trial) == 7
    assert sim.verdicts["trace_pairing"] == pairs_ok


def test_monte_carlo_keeps_per_trial_lists_only_when_asked():
    # the means and standard errors come from the sample arrays: the same
    # doubles as from the per-trial lists, built only under keep_trials
    ens, inst, rates = _seeded_unmatched()
    kept = monte_carlo_verify(ens, inst, rates, 40, 3)
    bare = monte_carlo_verify(ens, inst, rates, 40, 3, keep_trials=False)
    assert bare.per_trial == {}
    assert (bare.means, bare.std_errors, bare.verdicts) \
        == (kept.means, kept.std_errors, kept.verdicts)
    assert len(kept.per_trial) == 7
    for name, series in kept.per_trial.items():
        assert type(series) is list and {type(x) for x in series} == {float}
        assert _mean_se(series) == (kept.means[name], kept.std_errors[name])


def test_stacked_decoder_reports_first_failing_codebook():
    # Codebook 0 uses only the identity block and is valid; codebook 1 mixes
    # in a block that is not PSD, so its element for label 0 is not PSD.
    blocks = np.stack([np.diag([2.0, -0.5, 1.0, 1.0]).astype(complex),
                       np.eye(4, dtype=complex)])
    entries = np.array([[[[1, 1]]], [[[0, 1]]]])
    with pytest.raises(DimMismatch, match="label 0 is not PSD"):
        _srm(entries, blocks, DEFAULT)
    keys, elements, fail = _srm(entries[:1], blocks, DEFAULT)
    assert keys.tolist() == [1]
    assert np.allclose(elements[0], np.eye(4) / 2) and np.allclose(fail, 0.0)


@pytest.mark.parametrize("trials, cap", [(41, None), (41, 20), (61, 24), (30, 4)])
def test_monte_carlo_chunked_codebooks_equal_per_trial_draws(trials, cap, monkeypatch):
    # qubit_cnot codebooks hold 4 entries: caps 20, 24 and 4 give chunks of
    # 5, 6 and 1 trials, each spawning its own children of SeedSequence(seed)
    spec = load_spec(QUBIT)
    ens, inst, rates = spec.ensemble, spec.instance, spec.protocol_rates()
    cfg = DEFAULT if cap is None else DEFAULT.replaced(codebook_cap=cap)
    drawn, stacks, spawned = [], [], []
    real_symbols, real_srm, real_seq = protocol._symbols, protocol._srm, np.random.SeedSequence

    def recording_symbols(cdf, u):
        drawn.append(real_symbols(cdf, u))
        return drawn[-1]

    def recording_srm(entries, blocks, cfg):
        stacks.append(entries)
        return real_srm(entries, blocks, cfg)

    class RecordingSeq(real_seq):
        def spawn(self, n):
            spawned.append(n)
            return super().spawn(n)

    monkeypatch.setattr(protocol, "_symbols", recording_symbols)
    monkeypatch.setattr(protocol, "_srm", recording_srm)
    monkeypatch.setattr(np.random, "SeedSequence", RecordingSeq)
    monte_carlo_verify(ens, inst, rates, trials, 17, cfg=cfg)
    monkeypatch.undo()
    chunk = min(trials, (cap or DEFAULT.codebook_cap) // 4)
    assert spawned == [chunk] * (trials // chunk) + [trials % chunk] * (trials % chunk > 0)
    want = np.stack([sample_codebook(ens.probs, rates, np.random.default_rng(child)).entries
                     for child in np.random.SeedSequence(17).spawn(trials)])
    got = np.concatenate(drawn)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    # the decoder is built for each chunk's distinct codebooks, in the order
    # of their first draw
    assert len(stacks) == len(drawn)
    for chunk_entries, stack in zip(drawn, stacks):
        distinct = []
        for cb in chunk_entries:
            if not any(np.array_equal(cb, seen) for seen in distinct):
                distinct.append(cb)
        assert np.array_equal(stack, np.stack(distinct))


@pytest.mark.parametrize("case", ["qubit_cnot", "one_label"])
def test_monte_carlo_shared_codebooks_equal_unshared(case, monkeypatch):
    # A cap of one codebook's entries puts one trial in each chunk, so no
    # evaluation is shared; the default cap shares every repeated codebook.
    if case == "qubit_cnot":
        spec = load_spec(QUBIT)
        ens, inst, rates = spec.ensemble, spec.instance, spec.protocol_rates()
    else:
        inst = random_problem_instance(rng_for(16))
        ens = matched_ensemble(rng_for(17), inst, 1)  # every codebook is all label 0
        rates = ProtocolRates(R=1.0, R_K=1.0, R_J=1.0, alpha=0.25)
    stacks, real_srm = [], protocol._srm

    def recording_srm(entries, blocks, cfg):
        stacks.append(len(entries))
        return real_srm(entries, blocks, cfg)

    monkeypatch.setattr(protocol, "_srm", recording_srm)
    shared = monte_carlo_verify(ens, inst, rates, 60, 8)
    if case == "one_label":
        assert stacks == [1]
    unshared = monte_carlo_verify(ens, inst, rates, 60, 8,
                                  cfg=DEFAULT.replaced(codebook_cap=math.prod(rates.sizes())))
    assert (shared.per_trial, shared.means, shared.std_errors, shared.verdicts) \
        == (unshared.per_trial, unshared.means, unshared.std_errors, unshared.verdicts)
    if case == "one_label":
        assert stacks == [1] * 61


def test_monte_carlo_over_cap_message_is_sample_codebooks():
    spec = load_spec(QUBIT)
    ens, inst, rates = spec.ensemble, spec.instance, spec.protocol_rates()
    cfg = DEFAULT.replaced(codebook_cap=3)
    message = "codebook with 4 entries exceeds cap 3"
    with pytest.raises(CapExceeded) as one:
        sample_codebook(ens.probs, rates, 0, cfg)
    with pytest.raises(CapExceeded) as run:
        monte_carlo_verify(ens, inst, rates, 30, 0, cfg=cfg)
    assert str(one.value) == str(run.value) == message


def test_codeword_law_must_sum_to_one():
    rates = ProtocolRates(R=1.0, R_K=0.0, R_J=0.0, alpha=0.3)
    sample_codebook(np.array([0.4, 0.6 + 5e-10]), rates, seed=0)  # within the slack
    inst, ens = relay_fixture()
    for scale in (2.0, 0.5, 1.0 + 2e-9):
        with pytest.raises(NotADistribution, match="codeword distribution"):
            sample_codebook(np.array([0.4, 0.6]) * scale, rates, seed=0)
        scaled = CQState(ens.labels, ens.probs * scale, ens.stack, validate=False)
        with pytest.raises(NotADistribution, match="codeword distribution"):
            monte_carlo_verify(scaled, inst, rates, trials=30, seed=0)
