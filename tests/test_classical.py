import math
from itertools import product

import numpy as np
import pytest

from conftest import rng_for
from covertq import classical, sampling
from covertq.classical import (
    ClassicalCodebook,
    classical_resolvability_bound,
    end_to_end_error,
    exact_warden_distribution,
    gp_encode,
    ml_decode,
    receiver_likelihood,
    resolvability_oracle,
    sample_classical_codebook,
    transmit,
    warden_rows,
)
from covertq.config import DEFAULT
from covertq.errors import CapExceeded, EncodingFailure
from covertq.regions import AuxiliaryPolicy, ClassicalProblem, total_variation


def xor_problem(eps=0.03, q=0.25):
    w = np.zeros((2, 2, 2, 2))
    for a in range(2):
        for s in range(2):
            for b in range(2):
                pb = (1 - eps) if b == a else eps
                for e in range(2):
                    pe = (1 - q) if e == (a ^ s) else q
                    w[a, s, b, e] = pb * pe
    return ClassicalProblem([0.5, 0.5], w, x0=0)


def stacked_policy():
    """Codeword = (signal bit, state copy); input = signal xor state."""
    p_u_s = np.zeros((2, 4))
    for s in range(2):
        for ut in range(2):
            p_u_s[s, 2 * ut + s] = 0.5
    p_a_us = np.zeros((4, 2, 2))
    for ut in range(2):
        for sp in range(2):
            for s in range(2):
                p_a_us[2 * ut + sp, s, ut ^ s] = 1.0
    return AuxiliaryPolicy(p_u_s, p_a_us)


def test_codebook_sampling_and_cap():
    cb = sample_classical_codebook(np.array([0.5, 0.5]), (2, 2, 2), 4, seed=0)
    assert cb.entries.shape == (2, 2, 2, 4)
    with pytest.raises(CapExceeded):
        sample_classical_codebook(np.array([0.5, 0.5]), (64, 64, 2), 4, seed=0)


def test_gp_encode_flat_weights_uniform():
    # with P(u|s) = p_u every bin is equally likely
    rng = rng_for(1)
    p_u_s = np.full((2, 2), 0.5)
    pol = AuxiliaryPolicy(p_u_s, np.full((2, 2, 2), 0.5))
    p_u = np.array([0.5, 0.5])
    cb = sample_classical_codebook(p_u, (4, 4, 1), 6, seed=1)
    counts = np.zeros((4, 4))
    s_seq = rng.integers(0, 2, size=6)
    for _ in range(2000):
        j, k, _a = gp_encode(cb, 0, s_seq, pol, p_u, rng, "likelihood")
        counts[j, k] += 1
    freq = counts / counts.sum()
    assert np.max(np.abs(freq - 1.0 / 16)) < 0.02


def test_gp_encode_single_bin():
    rng = rng_for(2)
    pol = stacked_policy()
    p_u = np.full(4, 0.25)
    cb = sample_classical_codebook(p_u, (1, 1, 1), 4, seed=2)
    j, k, a_seq = gp_encode(cb, 0, np.zeros(4, dtype=int), pol, p_u, rng)
    assert (j, k) == (0, 0)
    assert a_seq.shape == (4,)


def test_gp_encode_typicality_failure_and_success_trend():
    rng = rng_for(3)
    pol = stacked_policy()
    p_u = np.full(4, 0.25)
    n = 8
    # tiny codebook: typically no bin matches the state sequence exactly
    failures_small, failures_big = 0, 0
    for t in range(200):
        s_seq = rng.integers(0, 2, size=n)
        small = sample_classical_codebook(p_u, (1, 1, 1), n, seed=300 + t)
        try:
            gp_encode(small, 0, s_seq, pol, p_u, rng, "typicality")
        except EncodingFailure:
            failures_small += 1
        big = sample_classical_codebook(p_u, (64, 16, 1), n, seed=600 + t)
        try:
            gp_encode(big, 0, s_seq, pol, p_u, rng, "typicality")
        except EncodingFailure:
            failures_big += 1
    assert failures_big < failures_small


def test_ml_decode_noiseless_recovery():
    # distinct codewords through a noiseless receiver decode exactly
    from covertq.classical import ClassicalCodebook

    prob = xor_problem(eps=0.0, q=0.25)
    pol = stacked_policy()
    rng = rng_for(4)
    like = receiver_likelihood(prob, pol, receiver_csi=True)
    n = 4
    s_seq = np.array([0, 1, 0, 1])
    # codewords share the state copy (= s_seq) but differ in signal bits
    signals = [(0, 0, 0, 0), (1, 1, 1, 1), (0, 1, 0, 1), (1, 0, 1, 0)]
    entries = np.zeros((1, 2, 2, n), dtype=np.intp)
    for idx, sig in enumerate(signals):
        k, m = divmod(idx, 2)
        entries[0, k, m] = [2 * ut + s for ut, s in zip(sig, s_seq)]
    cb = ClassicalCodebook(entries, (1, 2, 2), n)
    for k in range(2):
        for m in range(2):
            u_seq = cb.entries[0, k, m]
            a_seq = np.array([(u // 2) ^ s for u, s in zip(u_seq, s_seq)])
            b_seq, _ = transmit(prob, a_seq, s_seq, rng)
            assert ml_decode(cb, b_seq, like, s_seq, pol.p_u_s) == (0, k, m)


def test_warden_rows_and_likelihood_of_unused_label():
    # Label 2 has P(u) = 0, so its posterior column is 0: its warden row
    # and its likelihood row without receiver CSI are 0, never 1/|S| mixes.
    rng = rng_for(12)
    prob = xor_problem()
    p_u_s = np.zeros((2, 3))
    p_u_s[:, :2] = rng.dirichlet(np.ones(2), size=2)
    pol = AuxiliaryPolicy(p_u_s, rng.dirichlet(np.ones(2), size=(3, 2)))
    rows = warden_rows(prob, pol)
    like = receiver_likelihood(prob, pol, receiver_csi=False)
    assert not rows[2].any() and not like[2].any()
    # the used labels: P(e|u) = sum_s P(s|u) P(e|u,s), entry by entry
    joint = prob.q_s[:, None] * p_u_s
    for u in range(2):
        post = joint[:, u] / joint[:, u].sum()
        w_e_us = np.einsum("sa,ase->se", pol.p_a_us[u], prob.w_e())
        np.testing.assert_allclose(rows[u], post @ w_e_us, rtol=1e-14)
        assert rows[u].sum() == pytest.approx(1.0, abs=1e-12)


def test_ml_decode_tie_break_first_index():
    prob = xor_problem()
    pol = stacked_policy()
    like = np.full((4, 2), 0.5)  # likelihood carries no information
    cb = sample_classical_codebook(np.full(4, 0.25), (2, 2, 2), 4, seed=6)
    out = ml_decode(cb, np.zeros(4, dtype=int), like)
    assert out == (0, 0, 0)


def test_ml_decode_uninformative_channel_error_rate():
    # with a constant likelihood the decoder always answers (0,0,0):
    # over uniform transmissions the (j,k,m) error rate is 1 - 1/(JKM)
    sizes = (2, 2, 2)
    total = np.prod(sizes)
    like = np.full((4, 2), 0.5)
    cb = sample_classical_codebook(np.full(4, 0.25), sizes, 4, seed=7)
    errors = 0
    cases = 0
    for j in range(sizes[0]):
        for k in range(sizes[1]):
            for m in range(sizes[2]):
                out = ml_decode(cb, np.zeros(4, dtype=int), like)
                errors += 1 if out != (j, k, m) else 0
                cases += 1
    assert errors / cases == pytest.approx(1.0 - 1.0 / total)


def test_exact_warden_all_innocent_rows():
    # every input induces exactly the innocent warden row: TV = 0
    w = np.zeros((2, 1, 2, 2))
    for a in range(2):
        for b in range(2):
            for e in range(2):
                w[a, 0, b, e] = 0.5 * (0.7 if e == 0 else 0.3)
    prob = ClassicalProblem([1.0], w, x0=0)
    pol = AuxiliaryPolicy(np.array([[0.5, 0.5]]),
                          np.array([[[1.0, 0.0]], [[0.0, 1.0]]]))
    cb = sample_classical_codebook(np.array([0.5, 0.5]), (2, 2, 1), 3, seed=8)
    res = exact_warden_distribution(cb, prob, pol, np.array([0.5, 0.5]))
    assert res["tv_from_innocent"] == pytest.approx(0.0, abs=1e-12)
    assert res["total_mass"] == pytest.approx(1.0, abs=1e-10)


def test_exact_warden_single_codeword_row():
    # n = 1, one codeword u: TV equals the classical TV of the two rows
    q = 0.2
    w = np.zeros((2, 1, 2, 2))
    for a in range(2):
        for b in range(2):
            for e in range(2):
                w[a, 0, b, e] = 0.5 * ((1 - q) if e == a else q)
    prob = ClassicalProblem([1.0], w, x0=0)
    pol = AuxiliaryPolicy(np.array([[0.0, 1.0]]),
                          np.array([[[1.0, 0.0]], [[0.0, 1.0]]]))
    cb = sample_classical_codebook(np.array([0.0, 1.0]), (1, 1, 1), 1, seed=9)
    assert cb.entries[0, 0, 0, 0] == 1
    res = exact_warden_distribution(cb, prob, pol, np.array([0.0, 1.0]))
    row_u = np.array([q, 1 - q])  # input a = 1
    row_0 = np.array([1 - q, q])
    assert res["tv_from_innocent"] == pytest.approx(
        total_variation(row_u, row_0), abs=1e-12)


def test_exact_warden_tv_decreases_with_randomness():
    prob = xor_problem()
    pol = stacked_policy()
    p_u = np.full(4, 0.25)
    n = 6
    means = []
    for jk in ((2, 2), (8, 4), (32, 8)):
        tvs = []
        for seed in range(6):
            cb = sample_classical_codebook(p_u, (jk[0], jk[1], 2), n,
                                           seed=10 + seed)
            tvs.append(exact_warden_distribution(cb, prob, pol, p_u)
                       ["tv_from_innocent"])
        means.append(float(np.mean(tvs)))
    assert means[0] > means[1] > means[2]


def test_exact_warden_cap():
    prob = xor_problem()
    pol = stacked_policy()
    cb = sample_classical_codebook(np.full(4, 0.25), (1, 1, 1), 20, seed=0)
    with pytest.raises(CapExceeded):
        exact_warden_distribution(cb, prob, pol, np.full(4, 0.25),
                                  cfg=DEFAULT.replaced(warden_cap=1000))


def test_resolvability_constant_row_is_zero():
    p_u = np.array([0.5, 0.5])
    p_e_u = np.array([[0.7, 0.3], [0.7, 0.3]])
    res = resolvability_oracle(p_u, p_e_u, rate=0.5, n=2, mode="exact")
    assert res["estimate"] == pytest.approx(0.0, abs=1e-12)


def test_resolvability_exact_matches_mc():
    p_u = np.array([0.5, 0.5])
    p_e_u = np.array([[0.9, 0.1], [0.6, 0.4]])
    exact = resolvability_oracle(p_u, p_e_u, rate=1.0, n=1, mode="exact")
    mc = resolvability_oracle(p_u, p_e_u, rate=1.0, n=1, mode="mc",
                              trials=4000, seed=1)
    assert abs(mc["estimate"] - exact["estimate"]) <= 3.0 * mc["std_error"]


def test_resolvability_exact_cap():
    with pytest.raises(CapExceeded):
        resolvability_oracle(np.array([0.5, 0.5]),
                             np.array([[0.9, 0.1], [0.6, 0.4]]),
                             rate=2.0, n=4, mode="exact")


def test_resolvability_bound_dominates():
    p_u = np.array([0.5, 0.5])
    p_e_u = np.array([[0.75, 0.25], [0.25, 0.75]])
    for rate in (0.5, 1.0, 2.0):
        res = resolvability_oracle(p_u, p_e_u, rate=rate, n=3, mode="mc",
                                   trials=300, seed=2)
        assert res["estimate"] <= res["bound"] + 3.0 * res["std_error"]


def test_classical_resolvability_bound_shape():
    out = classical_resolvability_bound(np.array([0.5, 0.5]),
                                        np.array([[0.75, 0.25], [0.25, 0.75]]),
                                        rate=1.0, n=4)
    assert out["bound"] > 0.0
    assert 1 <= out["eigencount"] <= 5 ** 2


def test_end_to_end_error_improves_with_blocklength():
    prob = xor_problem()
    pol = stacked_policy()
    p_u = np.full(4, 0.25)
    cfg = DEFAULT.replaced(codebook_cap=16384)
    errs = []
    for n, sizes in ((4, (2, 10, 2)), (8, (3, 201, 2))):
        res = end_to_end_error(prob, pol, p_u, sizes, n, trials=250, seed=3,
                               receiver_csi=True, cfg=cfg)
        errs.append(res["error_rate"])
    assert errs[1] < errs[0]


# ---------------------------------------------------------------------------
# Vectorised paths against the per-bin / per-symbol loops they replaced.  The
# loops are kept here as the reference.

def _bin_weights_reference(codebook, m, s_seq, p_u_s, p_u):
    """Per-symbol product of the soft-covering density ratios."""
    nj, nk, _ = codebook.sizes
    w = np.ones((nj, nk))
    for t, s in enumerate(s_seq):
        u_t = codebook.entries[:, :, m, t]
        w *= p_u_s[s, u_t] / np.maximum(p_u[u_t], 1e-300)
    return w


def _warden_reference(codebook, problem, policy, p_u):
    """Per-bin np.kron loop over every (state sequence, message, bin)."""
    n = codebook.n
    ns, ne = problem.q_s.shape[0], problem.w.shape[3]
    w_e_us = np.einsum("usa,ase->use", policy.p_a_us, problem.w_e())
    nj, nk, nm = codebook.sizes
    p_hat = np.zeros(ne ** n)
    for s_seq in product(range(ns), repeat=n):
        q_seq = float(np.prod(problem.q_s[list(s_seq)]))
        if q_seq == 0.0:
            continue
        for m in range(nm):
            w = _bin_weights_reference(codebook, m, s_seq, policy.p_u_s, p_u)
            tot = float(w.sum())
            probs = (w / tot).ravel() if tot > 0 else np.full(nj * nk, 1.0 / (nj * nk))
            for flat, pw in enumerate(probs):
                if pw == 0.0:
                    continue
                j, k = divmod(flat, nk)
                out = np.array([1.0])
                for r in w_e_us[codebook.entries[j, k, m], list(s_seq)]:
                    out = np.kron(out, r)
                p_hat += (q_seq * pw / nm) * out
    return p_hat


def _choice_loop(rows, rng, shape=None):
    """One rng.choice call per row, as gp_encode and transmit drew symbols
    (or one sized call for a single distribution, as codebooks were drawn)."""
    if shape is not None:
        return rng.choice(len(rows), size=shape, p=rows / rows.sum())
    return np.array([rng.choice(len(r), p=r / r.sum()) for r in rows], dtype=np.intp)


def _random_instance(rng, na=2, ns=2, nb=2, ne=2, nu=3, sparse=False):
    w = rng.dirichlet(np.ones(nb * ne), size=(na, ns)).reshape(na, ns, nb, ne)
    p_u_s = rng.dirichlet(np.ones(nu), size=ns)
    if sparse:  # zero P(u|s) entries make some bin weights vanish
        p_u_s[rng.random(p_u_s.shape) < 0.4] = 0.0
        p_u_s[np.arange(ns), rng.integers(nu, size=ns)] += 0.1
        p_u_s /= p_u_s.sum(axis=1, keepdims=True)
    prob = ClassicalProblem(rng.dirichlet(np.ones(ns)), w, x0=0)
    pol = AuxiliaryPolicy(p_u_s, rng.dirichlet(np.ones(na), size=(nu, ns)))
    return prob, pol, prob.q_s @ pol.p_u_s


# max abs error of float64 sums of at most a few hundred terms of size <= 1
WARDEN_TOL = 1e-12


@pytest.mark.parametrize("seed", range(6))
def test_exact_warden_matches_kron_loop(seed):
    rng = rng_for(500 + seed)
    prob, pol, p_u = _random_instance(rng, na=2 + seed % 2, ne=2 + seed % 2,
                                      nu=2 + seed % 3, sparse=seed % 2 == 0)
    n = 3 + seed % 2
    cb = sample_classical_codebook(p_u, (2 + seed % 3, 2, 1 + seed % 2), n, seed=seed)
    ref = _warden_reference(cb, prob, pol, p_u)
    res = exact_warden_distribution(cb, prob, pol, p_u)
    assert np.max(np.abs(res["distribution"] - ref)) <= WARDEN_TOL
    q0n = classical._product_rows(np.tile(prob.q0(), (1, n, 1)))[0]
    assert abs(res["tv_from_innocent"] - total_variation(ref, q0n)) <= WARDEN_TOL


def test_exact_warden_uniform_fallback_matches_kron_loop():
    # the state is always 1 and every codeword symbol is 0, which the
    # stacked policy never emits in state 1: every bin weight is zero
    w = xor_problem().w
    prob = ClassicalProblem([0.0, 1.0], w, x0=0)
    pol = stacked_policy()
    p_u = prob.q_s @ pol.p_u_s
    cb = ClassicalCodebook(np.zeros((3, 2, 2, 4), dtype=np.intp), (3, 2, 2), 4)
    assert _bin_weights_reference(cb, 0, np.ones(4, dtype=np.intp),
                                  pol.p_u_s, p_u).sum() == 0.0
    res = exact_warden_distribution(cb, prob, pol, p_u)
    ref = _warden_reference(cb, prob, pol, p_u)
    assert np.max(np.abs(res["distribution"] - ref)) <= WARDEN_TOL
    assert res["total_mass"] == pytest.approx(1.0, abs=1e-12)


def test_exact_warden_chunked_matches_kron_loop():
    rng = rng_for(520)
    prob, pol, p_u = _random_instance(rng, ne=3)
    n = 3
    cb = sample_classical_codebook(p_u, (5, 3, 2), n, seed=7)
    cfg = DEFAULT.replaced(warden_cap=2 * 3 ** n)  # 15 bins in chunks of 2
    res = exact_warden_distribution(cb, prob, pol, p_u, cfg=cfg)
    ref = _warden_reference(cb, prob, pol, p_u)
    assert np.max(np.abs(res["distribution"] - ref)) <= WARDEN_TOL
    whole = exact_warden_distribution(cb, prob, pol, p_u)
    assert np.max(np.abs(res["distribution"] - whole["distribution"])) <= WARDEN_TOL


def test_draw_matches_choice():
    rng = rng_for(530)
    for k in (1, 2, 3, 7, 9, 16, 25):
        rows = rng.dirichlet(np.ones(k), size=200)
        rows[rng.random(rows.shape) < 0.3] = 0.0
        rows[:, 0] += 1e-3  # keep every row nonzero
        a, b = rng_for(k), rng_for(k)
        assert np.array_equal(sampling._draw(rows, a), _choice_loop(rows, b))
        assert a.random() == b.random()
        a, b = rng_for(k), rng_for(k)
        assert np.array_equal(sampling._draw(rows[0], a, (3, 40, 2, 5)),
                              _choice_loop(rows[0], b, (3, 40, 2, 5)))
        assert a.random() == b.random()


# The per-trial scheme as it was written before the trials were stacked:
# every draw is an rng.choice call, every bin and decoding a loop over symbols.

def _codebook_reference(p_u, sizes, n, rng):
    return rng.choice(len(p_u), size=(*sizes, n), p=p_u / p_u.sum())


def _encode_reference(codebook, m, s_seq, policy, p_u, rng, mode, eps=None):
    """gp_encode as a loop; returns (j, k, a_seq, bin weights were all zero)."""
    nj, nk, _ = codebook.sizes
    zero = False
    if mode == "likelihood":
        w = _bin_weights_reference(codebook, m, s_seq, policy.p_u_s, p_u)
        tot = float(w.sum())
        zero = tot <= 0.0
        flat = rng.integers(nj * nk) if zero else rng.choice(nj * nk, p=(w / tot).ravel())
        j, k = divmod(int(flat), nk)
    else:
        cond_ent = 0.0
        for s in s_seq:
            row = policy.p_u_s[s][policy.p_u_s[s] > 0.0]
            cond_ent += -float(np.sum(row * np.log2(row)))
        cond_ent /= len(s_seq)
        if eps is None:
            eps = 0.1 * max(cond_ent, 1e-12)
        scores = np.zeros((nj, nk))
        ok = np.ones((nj, nk), dtype=bool)
        for t, s in enumerate(s_seq):
            p_t = policy.p_u_s[s, codebook.entries[:, :, m, t]]
            ok &= p_t > 0.0
            scores += np.where(p_t > 0.0, -np.log2(np.maximum(p_t, 1e-300)), 0.0)
        ok &= np.abs(scores / len(s_seq) - cond_ent) <= eps
        hits = np.argwhere(ok)
        if hits.shape[0] == 0:
            raise EncodingFailure("no typical bin")
        j, k = (int(x) for x in hits[rng.integers(hits.shape[0])])
    a_seq = _choice_loop(policy.p_a_us[codebook.entries[j, k, m], s_seq], rng)
    return j, k, a_seq, zero


def _transmit_reference(problem, a_seq, s_seq, rng):
    _, _, nb, ne = problem.w.shape
    joint = problem.w[a_seq, s_seq].reshape(len(a_seq), nb * ne)
    return np.divmod(_choice_loop(joint, rng), ne)


def _decode_reference(codebook, b_seq, likelihood, s_seq=None, prior=None):
    ll_tab = np.log(np.maximum(likelihood, 1e-300))
    prior_tab = None if prior is None else np.log(np.maximum(prior, 1e-300))
    ll = np.zeros(codebook.sizes)
    for t in range(codebook.n):
        u_t = codebook.entries[..., t]
        if s_seq is None:
            ll += ll_tab[u_t, b_seq[t]]
            if prior_tab is not None:
                ll += prior_tab[u_t]
        else:
            ll += ll_tab[u_t, b_seq[t], s_seq[t]]
            if prior_tab is not None:
                ll += prior_tab[s_seq[t], u_t]
    j, rem = divmod(int(np.argmax(ll)), codebook.sizes[1] * codebook.sizes[2])
    return (j, *divmod(rem, codebook.sizes[2]))


def _end_to_end_reference(problem, policy, p_u, sizes, n, trials, seed,
                          receiver_csi=True, mode="likelihood"):
    """The per-trial loop; also returns how many trials had all bin weights 0."""
    rng = np.random.default_rng(seed)
    like = receiver_likelihood(problem, policy, receiver_csi)
    prior = policy.p_u_s if receiver_csi else p_u
    errors = enc_failures = zero_weight = 0
    for _ in range(trials):
        cb = ClassicalCodebook(_codebook_reference(p_u, sizes, n, rng), sizes, n)
        s_seq = rng.choice(problem.q_s.shape[0], size=n, p=problem.q_s)
        m = int(rng.integers(sizes[2]))
        try:
            j, k, a_seq, zero = _encode_reference(cb, m, s_seq, policy, p_u, rng, mode)
        except EncodingFailure:
            enc_failures += 1
            errors += 1
            continue
        zero_weight += zero
        b_seq, _ = _transmit_reference(problem, a_seq, s_seq, rng)
        _, k_hat, m_hat = _decode_reference(cb, b_seq, like,
                                            s_seq if receiver_csi else None, prior)
        if (k_hat, m_hat) != (k, m):
            errors += 1
    p_err = errors / trials
    return {
        "error_rate": p_err,
        "std_error": math.sqrt(max(p_err * (1 - p_err), 1e-12) / trials),
        "encoding_failure_rate": enc_failures / trials,
        "trials": trials,
    }, zero_weight


@pytest.mark.parametrize("mode", ["likelihood", "typicality"])
def test_codebook_and_symbol_draws_match_choice_loop(mode):
    prob, pol, p_u = _random_instance(rng_for(540), na=3, nb=3, ne=2, nu=4)
    stacked, looped = [], []
    for out, ref in ((stacked, False), (looped, True)):
        rng = rng_for(541)
        for trial in range(40):
            # n = 0 draws nothing; the typicality window needs n >= 1
            n = trial % 7 if mode == "likelihood" else 1 + trial % 6
            if ref:
                cb = ClassicalCodebook(_codebook_reference(p_u, (4, 4, 2), n, rng), (4, 4, 2), n)
            else:
                cb = sample_classical_codebook(p_u, (4, 4, 2), n, rng)
            s_seq = rng.choice(2, size=n, p=prob.q_s)
            try:
                if ref:
                    j, k, a_seq, _ = _encode_reference(cb, trial % 2, s_seq, pol, p_u, rng,
                                                       mode, eps=1.0)
                else:
                    j, k, a_seq = gp_encode(cb, trial % 2, s_seq, pol, p_u, rng, mode, eps=1.0)
            except EncodingFailure:
                out.append(None)
                continue
            b_seq, e_seq = (_transmit_reference if ref else transmit)(prob, a_seq, s_seq, rng)
            like = receiver_likelihood(prob, pol, trial % 3 == 0)
            args = (cb, b_seq, like, s_seq if trial % 3 == 0 else None,
                    None if trial % 4 == 0 else pol.p_u_s if trial % 3 == 0 else p_u)
            decoded = (_decode_reference if ref else ml_decode)(*args)
            out.append((j, k, a_seq.tolist(), b_seq.tolist(), e_seq.tolist(), decoded))
        out.append(rng.random())
    assert stacked == looped
    assert any(o is not None for o in stacked[:-1])


def test_codebook_divergence_matches_digit_loop():
    rng = rng_for(550)
    p_e_u = rng.dirichlet(np.ones(3), size=4)
    n = 4
    q = rng.dirichlet(np.ones(3))
    q_n = classical._product_rows(np.tile(q, (1, n, 1)))[0]
    q_kron = np.array([1.0])
    for _ in range(n):
        q_kron = np.kron(q_kron, q)
    assert np.array_equal(q_n, q_kron)
    u_matrix = rng.integers(4, size=(6, n))
    digits = np.asarray(list(product(range(3), repeat=n)), dtype=np.intp)
    p = np.ones((6, digits.shape[0]))
    for t in range(n):
        p *= p_e_u[u_matrix[:, t]][:, digits[:, t]]
    p_hat = p.mean(axis=0)
    ref = float(np.sum(p_hat * np.log2(p_hat / q_n)))
    assert classical._codebook_divergence(u_matrix, p_e_u, q_n) == ref


# ---------------------------------------------------------------------------
# Size caps are checked before anything is allocated.

@pytest.mark.parametrize("mode", ["exact", "mc"])
def test_resolvability_caps_checked_first(mode):
    p_u = np.array([0.5, 0.5])
    p_e_u = np.array([[0.9, 0.1], [0.6, 0.4]])
    with pytest.raises(CapExceeded, match="codewords"):
        resolvability_oracle(p_u, p_e_u, rate=1.0, n=4, mode=mode,
                             cfg=DEFAULT.replaced(codebook_cap=8))
    with pytest.raises(CapExceeded, match=r"\|E\|\^n"):
        resolvability_oracle(p_u, p_e_u, rate=0.25, n=4, mode=mode,
                             cfg=DEFAULT.replaced(warden_cap=8))
    with pytest.raises(CapExceeded):
        resolvability_oracle(p_u, p_e_u, rate=5000.0, n=7, mode=mode)


@pytest.mark.parametrize("mode", ["exact", "mc"])
def test_resolvability_codebook_buffer_capped(mode):
    # 2 codewords and |E|^n = 4 each pass their own cap; the oracle's
    # (codewords x |E|^n) buffer of 8 floats must pass warden_cap too.
    p_u = np.array([0.5, 0.5])
    p_e_u = np.array([[0.9, 0.1], [0.6, 0.4]])
    with pytest.raises(CapExceeded, match="2 codewords x"):
        resolvability_oracle(p_u, p_e_u, rate=0.5, n=2, mode=mode, trials=30,
                             cfg=DEFAULT.replaced(codebook_cap=2, warden_cap=4))
    res = resolvability_oracle(p_u, p_e_u, rate=0.5, n=2, mode=mode, trials=30,
                               cfg=DEFAULT.replaced(codebook_cap=2, warden_cap=8))
    assert res["codewords"] == 2 and res["estimate"] >= 0.0


# ---------------------------------------------------------------------------
# Stacked trials against the per-trial loop: every result must be equal.

E2E_CASES = {
    # n = 6 with 20 bins: all bin weights are zero in about 73% of trials
    "xor_csi": ("xor", 6, (2, 10, 2), True, "likelihood", None),
    "xor_no_csi": ("xor", 6, (2, 10, 2), False, "likelihood", None),
    "xor_typicality": ("xor", 4, (3, 4, 2), True, "typicality", None),
    "m1": ("xor", 5, (3, 4, 1), True, "likelihood", None),
    "n1": ("xor", 1, (2, 2, 2), False, "likelihood", None),
    # 40 entries per codebook, cap 120: 61 trials in chunks of 3
    "uneven_chunks": ("xor", 4, (2, 10, 2), True, "likelihood", 120),
    "random_sparse": (0, 5, (3, 4, 2), True, "likelihood", 50),
    "random_typicality": (1, 3, (2, 3, 2), False, "typicality", 13),
    "random_wide": (2, 4, (2, 3, 3), False, "likelihood", None),
}


def _e2e_instance(name):
    if name == "xor":
        prob, pol = xor_problem(), stacked_policy()
        return prob, pol, prob.q_s @ pol.p_u_s
    rng = rng_for(560 + name)
    # alphabets of 8 to 12 joint outputs and up to 9 codeword symbols
    return _random_instance(rng, na=2 + name, ns=2 + name % 2, nb=4, ne=2 + name,
                            nu=4 + 2 * name, sparse=name == 0)


@pytest.mark.parametrize("case", sorted(E2E_CASES))
def test_end_to_end_matches_trial_loop(case):
    inst, n, sizes, csi, mode, cap = E2E_CASES[case]
    prob, pol, p_u = _e2e_instance(inst)
    cfg = DEFAULT if cap is None else DEFAULT.replaced(codebook_cap=cap)
    trials = 61
    ref, zero_weight = _end_to_end_reference(prob, pol, p_u, sizes, n, trials, 11,
                                             csi, mode)
    assert end_to_end_error(prob, pol, p_u, sizes, n, trials, 11, csi, mode, cfg=cfg) == ref
    if case.startswith("xor_") and mode == "likelihood":
        assert 0 < zero_weight < trials
    if mode == "typicality":
        assert 0.0 < ref["encoding_failure_rate"] < 1.0


def test_bin_weights_match_symbol_loop():
    for seed in range(6):
        rng = rng_for(570 + seed)
        _, pol, p_u = _random_instance(rng, ns=3, nu=5, sparse=seed % 2 == 0)
        n = 2 + 2 * seed  # up to 12 factors
        cb = sample_classical_codebook(p_u, (3, 7, 2), n, rng)
        s_seq = rng.integers(3, size=n)
        ratio = classical._density_ratio(pol.p_u_s, p_u)
        for m in range(2):
            assert np.array_equal(classical._bin_weights(ratio, cb.entries[:, :, m], s_seq),
                                  _bin_weights_reference(cb, m, s_seq, pol.p_u_s, p_u))


def test_end_to_end_checks_before_drawing():
    prob, pol, p_u = _e2e_instance("xor")
    with pytest.raises(CapExceeded):
        end_to_end_error(prob, pol, p_u, (64, 64, 2), 4, 30, 0)
    with pytest.raises(ValueError, match="codeword distribution"):
        end_to_end_error(prob, pol, -p_u, (2, 2, 2), 4, 30, 0)


def _oracle_reference(p_u, p_e_u, rate, n, trials, seed):
    """The mc estimate with one rng.choice codebook per trial and the product
    distributions built over the digits of E^n, symbol by symbol."""
    size = max(1, int(2.0 ** (n * rate)))
    digits = np.asarray(list(product(range(p_e_u.shape[1]), repeat=n)), dtype=np.intp)
    q = p_u @ p_e_u
    q_n = np.ones(len(digits))
    for t in range(n):
        q_n *= q[digits[:, t]]
    rng = np.random.default_rng(seed)
    vals = []
    for _ in range(trials):
        u_matrix = rng.choice(len(p_u), size=(size, n), p=p_u / p_u.sum())
        p = np.ones((size, len(digits)))
        for t in range(n):
            p *= p_e_u[u_matrix[:, t]][:, digits[:, t]]
        p_hat = p.mean(axis=0)
        mask = p_hat > 0.0
        vals.append(float(np.sum(p_hat[mask] * np.log2(p_hat[mask] / q_n[mask]))))
    mean = math.fsum(vals) / trials
    var = math.fsum((v - mean) ** 2 for v in vals) / (trials - 1)
    return mean, math.sqrt(var / trials)


@pytest.mark.parametrize("warden_cap", [None, 7 * 64 + 5])
def test_oracle_matches_choice_loop_criterion_8(warden_cap):
    # the criterion-8 sweep; the lowered cap splits 2000 codebooks of up to
    # 16 codewords into uneven chunks (7 codebooks at rate 0.5)
    q = 0.25
    p_u = np.array([0.5, 0.5])
    p_e_u = np.array([[1 - q, q], [q, 1 - q]])
    cfg = DEFAULT if warden_cap is None else DEFAULT.replaced(warden_cap=warden_cap)
    for rate in (0.25, 0.5, 1.0, 1.5, 2.0):
        if cfg.warden_cap < int(2 ** (4 * rate)) * 16:
            continue
        res = resolvability_oracle(p_u, p_e_u, rate, n=4, mode="mc", trials=2000,
                                   seed=31, cfg=cfg)
        assert (res["estimate"], res["std_error"]) == \
            _oracle_reference(p_u, p_e_u, rate, 4, 2000, 31)


@pytest.mark.parametrize("seed", range(4))
def test_oracle_matches_choice_loop_with_zero_cells(seed):
    rng = rng_for(580 + seed)
    p_e_u = rng.dirichlet(np.ones(3), size=4)
    p_e_u[0, 1] = p_e_u[2, 0] = 0.0  # some product cells of P_hat are zero
    p_e_u /= p_e_u.sum(axis=1, keepdims=True)
    p_u = rng.dirichlet(np.ones(4))
    n = 1 + seed
    cfg = DEFAULT.replaced(warden_cap=5 * 2 ** n * 3 ** n + 1)
    res = resolvability_oracle(p_u, p_e_u, 1.0, n=n, mode="mc", trials=97, seed=seed,
                               cfg=cfg)
    assert (res["estimate"], res["std_error"]) == \
        _oracle_reference(p_u, p_e_u, 1.0, n, 97, seed)
