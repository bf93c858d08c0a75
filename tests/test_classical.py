from itertools import product

import numpy as np
import pytest

from conftest import rng_for
from covertq import classical
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
            w = classical._bin_weights_likelihood(codebook, m, s_seq, policy.p_u_s, p_u)
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
    assert classical._bin_weights_likelihood(cb, 0, np.ones(4, dtype=np.intp),
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
        assert np.array_equal(classical._draw(rows, a), _choice_loop(rows, b))
        assert a.random() == b.random()
        a, b = rng_for(k), rng_for(k)
        assert np.array_equal(classical._draw(rows[0], a, (3, 40, 2, 5)),
                              _choice_loop(rows[0], b, (3, 40, 2, 5)))
        assert a.random() == b.random()


@pytest.mark.parametrize("mode", ["likelihood", "typicality"])
def test_codebook_and_symbol_draws_match_choice_loop(mode, monkeypatch):
    prob, pol, p_u = _random_instance(rng_for(540), na=3, nb=3, ne=2, nu=4)
    vectorised, looped = [], []
    for out, patch in ((vectorised, False), (looped, True)):
        if patch:
            monkeypatch.setattr(classical, "_draw", _choice_loop)
        rng = rng_for(541)
        for trial in range(40):
            # n = 0 draws nothing; the typicality window needs n >= 1
            n = trial % 7 if mode == "likelihood" else 1 + trial % 6
            cb = sample_classical_codebook(p_u, (4, 4, 2), n, rng)
            s_seq = rng.choice(2, size=n, p=prob.q_s)
            try:
                j, k, a_seq = gp_encode(cb, trial % 2, s_seq, pol, p_u, rng, mode, eps=1.0)
            except EncodingFailure:
                out.append(None)
                continue
            b_seq, e_seq = transmit(prob, a_seq, s_seq, rng)
            out.append((j, k, a_seq.tolist(), b_seq.tolist(), e_seq.tolist()))
        out.append(rng.random())
    assert vectorised == looped
    assert any(o is not None for o in vectorised[:-1])


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
