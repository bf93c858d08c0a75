import math
import warnings
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
    receiver_likelihood,
    resolvability_oracle,
    sample_classical_codebook,
    warden_rows,
)
from covertq.config import DEFAULT, pow2
from covertq.divergences import cq_sandwiched_renyi
from covertq.errors import CapExceeded, NotADistribution, RunParameterError
from covertq.oneshot import resolvability_bound
from covertq.pinching import tensor_power_eigencount
from covertq.regions import AuxiliaryPolicy, ClassicalProblem, total_variation
from covertq.states import CQState, DensityMatrix


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


def _encode(enc, u_m, s_seq, rng):
    """The flat (j, k) bin and the inputs that the encoder ``enc`` draws for
    the codewords ``u_m`` (J, K, n) of one message."""
    weights = np.empty(u_m.shape[0] * u_m.shape[1])
    flat, tot, u = enc.draw(u_m.astype(enc.index_dtype), s_seq.astype(enc.index_dtype), rng,
                            weights)
    if flat < 0:
        flat = int(sampling._symbols(sampling._cdf(weights / tot, normalized=True), u))
    u_seq = u_m[divmod(flat, u_m.shape[1])]
    return flat, sampling._symbols(enc.cdf_a[u_seq, s_seq], rng.random(len(s_seq)))


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
    enc = classical._Encoder(pol, p_u, (4, 4, 6))
    counts = np.zeros(16)
    s_seq = rng.integers(0, 2, size=6)
    for _ in range(2000):
        flat, _a = _encode(enc, cb.entries[:, :, 0], s_seq, rng)
        counts[flat] += 1
    freq = counts / counts.sum()
    assert np.max(np.abs(freq - 1.0 / 16)) < 0.02


def test_gp_encode_single_bin():
    rng = rng_for(2)
    pol = stacked_policy()
    p_u = np.full(4, 0.25)
    cb = sample_classical_codebook(p_u, (1, 1, 1), 4, seed=2)
    flat, a_seq = _encode(classical._Encoder(pol, p_u, (1, 1, 4)), cb.entries[:, :, 0],
                          np.zeros(4, dtype=int), rng)
    assert flat == 0  # (j, k) = (0, 0)
    assert a_seq.shape == (4,)


def test_gp_encode_all_zero_weights_still_sends():
    # every codeword copies state 1 at symbol 0 while the state is 0, so
    # P(u|s) = 0 zeroes every bin weight; the encoder still picks a bin,
    # uniformly, and sends its inputs: it has no failure outcome
    rng = rng_for(3)
    pol = stacked_policy()
    p_u = np.full(4, 0.25)
    enc = classical._Encoder(pol, p_u, (4, 4, 3))
    u_m = 2 * rng.integers(0, 2, size=(4, 4, 3)) + 1  # state copy 1 everywhere
    s_seq = np.array([0, 1, 1])
    weights = np.empty(16)
    counts = np.zeros(16)
    for _ in range(3200):
        flat, tot, u = enc.draw(u_m.astype(enc.index_dtype), s_seq.astype(enc.index_dtype),
                                rng, weights)
        assert (tot, u) == (0.0, 0.0) and not weights.any()
        counts[flat] += 1
    assert np.max(np.abs(counts / counts.sum() - 1.0 / 16)) < 0.02
    flat, a_seq = _encode(enc, u_m, s_seq, rng)
    assert np.array_equal(a_seq, (u_m[divmod(flat, 4)] // 2) ^ s_seq)  # signal xor state


def test_ml_decode_noiseless_recovery():
    # distinct codewords through a noiseless receiver decode exactly; the
    # four transmissions are one stack of trials of the same codebook
    prob = xor_problem(eps=0.0, q=0.25)
    pol = stacked_policy()
    rng = rng_for(4)
    like = receiver_likelihood(prob, pol, receiver_csi=True)
    n = 4
    s_seq = np.array([0, 1, 0, 1])
    # codewords share the state copy (= s_seq) but differ in signal bits
    signals = [(0, 0, 0, 0), (1, 1, 1, 1), (0, 1, 0, 1), (1, 0, 1, 0)]
    codes = np.zeros((1, 4, n), dtype=np.intp)  # entries (j, k, m) = (0, k, m)
    for idx, sig in enumerate(signals):
        codes[0, idx] = [2 * ut + s for ut, s in zip(sig, s_seq)]
    a = (codes[0] // 2) ^ s_seq
    s = np.tile(s_seq, (4, 1))
    b = sampling._symbols(classical._channel_cdf(prob)[a, s], rng.random((4, n))) // 2
    flat = classical._ml_indices(np.repeat(codes, 4, axis=0), b, classical._log_table(like),
                                 s, classical._log_table(pol.p_u_s))
    assert flat.tolist() == [0, 1, 2, 3]


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
    out = classical._ml_indices(cb.entries.reshape(1, 8, 4), np.zeros((1, 4), dtype=int),
                                classical._log_table(like), None, None)
    assert out.tolist() == [0]  # (j, k, m) = (0, 0, 0)


def test_ml_decode_uninformative_channel_error_rate():
    # with a constant likelihood the decoder always answers (0,0,0):
    # over uniform transmissions the (j,k,m) error rate is 1 - 1/(JKM)
    sizes = (2, 2, 2)
    total = np.prod(sizes)
    like = np.full((4, 2), 0.5)
    cb = sample_classical_codebook(np.full(4, 0.25), sizes, 4, seed=7)
    # one decoding per transmitted triple, all of the same received sequence
    codes = np.broadcast_to(cb.entries.reshape(1, total, 4), (total, total, 4))
    out = classical._ml_indices(codes, np.zeros((total, 4), dtype=int),
                                classical._log_table(like), None, None)
    errors = 0
    cases = 0
    for flat, sent in zip(out, np.ndindex(sizes)):
        errors += 1 if np.unravel_index(flat, sizes) != sent else 0
        cases += 1
    assert errors / cases == pytest.approx(1.0 - 1.0 / total)


def _ml_reference(codes, b, ll_tab, s, prior_tab):
    """Per trial, the first entry of largest sum over symbols of its
    log-likelihood and then its log-prior, added one by one from 0."""
    out = []
    for i, words in enumerate(codes.tolist()):
        sums = []
        for word in words:
            ll = 0.0
            for t, u in enumerate(word):
                ll += ll_tab[u, b[i, t]] if s is None else ll_tab[u, b[i, t], s[i, t]]
                if prior_tab is not None:
                    ll += prior_tab[u] if s is None else prior_tab[s[i, t], u]
            sums.append(ll)
        out.append(sums.index(max(sums)))
    return out


@pytest.mark.parametrize("nu, p, n", [(2, 3, 5), (2, 3, 3), (3, 2, 4), (4, 4, 7), (300, 1, 3)])
@pytest.mark.parametrize("delta", [-1, 0, 1])
@pytest.mark.parametrize("csi", [True, False])
@pytest.mark.parametrize("prior", [True, False])
def test_ml_indices_match_the_symbol_loop(nu, p, n, delta, csi, prior):
    # entries U^p - 1, U^p and U^p + 1 tabulate p - 1, p and p symbols (at
    # most n); tables of five values make ties and near-ties common
    rng = rng_for(580 + nu + 10 * p + n)
    c, entries, nb, ns = 3, nu ** p + delta, 3, 2
    values = np.array([-0.1, -0.2, -0.3, -0.6, -1.0])
    ll_tab = rng.choice(values, size=(nu, nb, ns) if csi else (nu, nb))
    prior_tab = rng.choice(values, size=(ns, nu) if csi else nu) if prior else None
    codes = rng.integers(nu, size=(c, entries, n)).astype(np.min_scalar_type(nu - 1))
    b = rng.integers(nb, size=(c, n))
    s = rng.integers(ns, size=(c, n)).astype(np.uint8) if csi else None
    got = classical._ml_indices(codes, b, ll_tab, s, prior_tab)
    assert got.tolist() == _ml_reference(codes, b, ll_tab, s, prior_tab)


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


def _resolvability_laws(count=300):
    """Seeded (p_u, p_e_u, rate): 1-4 labels, 2-4 outputs, a zero cell in
    every third law, rate from U(0, 2)."""
    rng = rng_for(17)
    for i in range(count):
        nu, ne = int(rng.integers(1, 5)), int(rng.integers(2, 5))
        p_u = rng.dirichlet(np.ones(nu))
        p_e_u = rng.dirichlet(np.ones(ne), size=nu)
        if i % 3 == 0:
            p_e_u[rng.integers(nu), rng.integers(ne)] = 0.0
            p_e_u /= p_e_u.sum(axis=1, keepdims=True)
        yield p_u, p_e_u, float(rng.uniform(0.0, 2.0))


def test_classical_resolvability_bound_is_the_commuting_case():
    # at n = 1 the classical bound is the one-shot quantum bound on the
    # diagonal cq embedding, minimised over the same alpha grid
    alphas = np.linspace(0.05, 0.45, 9)
    for p_u, p_e_u, rate in _resolvability_laws():
        got = classical_resolvability_bound(p_u, p_e_u, rate, 1)
        cq = CQState(range(len(p_u)), p_u,
                     [DensityMatrix(np.diag(row).astype(complex)) for row in p_e_u])
        vals = [resolvability_bound(cq, rate, float(a)) for a in alphas]
        best = int(np.argmin(vals))
        assert got["alpha"] == float(alphas[best])
        assert abs(got["bound"] - vals[best]) <= 1e-12 * vals[best]


def _closed_form_bound(p_u, p_e_u, rate, n):
    """Lemma 1 written out for the classical bound, as classical.py held it
    before it read the shared row: v^a / (a ln 2) 2^(a(-n rate + n D)) at
    the best of the nine alphas (a copy of its ingredients too)."""
    p_u = np.asarray(p_u, dtype=np.float64)
    conds = np.asarray(p_e_u, dtype=complex)[:, :, None] * np.eye(np.shape(p_e_u)[1])
    cq = CQState(range(len(p_u)), p_u, DensityMatrix(conds, validate=False), validate=False)
    alphas = np.linspace(0.05, 0.45, 9)
    d_ue = cq_sandwiched_renyi(cq, 1.0 + alphas, DEFAULT).value.tolist()
    v = tensor_power_eigencount(cq.average(), n, cfg=DEFAULT)
    best, alpha = min(((v ** a / (a * math.log(2.0))) * pow2(a * (-n * rate + n * d))
                       if d < math.inf else math.inf, a)
                      for a, d in zip(alphas.tolist(), d_ue))
    return {"bound": best, "alpha": alpha if best < math.inf else None, "eigencount": v}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_classical_resolvability_bound_is_the_closed_form_bit_for_bit(n):
    # the shared row computes a*(n*D - n*rate) where the closed form has
    # a*(-n*rate + n*D): in IEEE arithmetic x - y is -y + x exactly; the last
    # law's second row lies outside the average's support (infinite divergence)
    laws = [*_resolvability_laws(), ([1.0 - 1e-12, 1e-12], np.eye(2), 1.0)]
    for p_u, p_e_u, rate in laws:
        got = classical_resolvability_bound(p_u, p_e_u, rate, n)
        assert got == _closed_form_bound(p_u, p_e_u, rate, n)
    assert got["bound"] == math.inf and got["alpha"] is None


def _product_cq(p_u, p_e_u, n):
    """The explicit n-fold product of the diagonal cq embedding: labels
    U^n, probabilities p_u^(x n), conditionals diag of the product rows."""
    probs, rows = np.ones(1), np.ones((1, 1))
    for _ in range(n):
        probs = np.kron(probs, p_u)
        rows = np.einsum("ae,bf->abef", rows, p_e_u).reshape(len(probs), -1)
    return CQState(range(len(probs)), probs,
                   DensityMatrix(np.stack([np.diag(r) for r in rows]).astype(complex)))


@pytest.mark.parametrize("n", [2, 3])
def test_classical_resolvability_bound_is_the_commuting_case_of_the_product(n):
    # the n-fold bound is the one-shot quantum bound on the product cq state
    # at rate n*rate: n D_(1+a)(U;E) is D_(1+a)(U^n;E^n), and the tensor-power
    # eigencount is the distinct-eigenvalue count of the product average
    alphas = np.linspace(0.05, 0.45, 9)
    checked = 0
    for p_u, p_e_u, rate in _resolvability_laws():
        if max(p_e_u.shape) > 3:
            continue
        got = classical_resolvability_bound(p_u, p_e_u, rate, n)
        cq = _product_cq(p_u, p_e_u, n)
        vals = [resolvability_bound(cq, n * rate, float(a)) for a in alphas]
        best = int(np.argmin(vals))
        assert got["alpha"] == float(alphas[best])
        assert abs(got["bound"] - vals[best]) <= 1e-12 * vals[best]
        checked += 1
    assert checked > 100


def test_classical_resolvability_bound_follows_the_quantum_support_rule():
    # label 1 is drawn with p = 1e-12, so the average's second eigenvalue is
    # below support_tol: its row lies outside the support and every
    # divergence is infinite, as in the quantum bound (a Renyi sum over the
    # outputs with p_e > 0 would give 2.346922482345545)
    got = classical_resolvability_bound([1.0 - 1e-12, 1e-12], np.eye(2), 1.0, 2)
    assert got["bound"] == math.inf and got["alpha"] is None


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
    """One rng.choice call per row, as the per-trial encoder and channel drew
    symbols (or one sized call for a single distribution, as codebooks were
    drawn)."""
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


def _encode_reference(codebook, m, s_seq, policy, p_u, rng):
    """The encoder as a loop; returns (j, k, a_seq, bin weights were all zero)."""
    nj, nk, _ = codebook.sizes
    w = _bin_weights_reference(codebook, m, s_seq, policy.p_u_s, p_u)
    tot = float(w.sum())
    zero = tot <= 0.0
    flat = rng.integers(nj * nk) if zero else rng.choice(nj * nk, p=(w / tot).ravel())
    j, k = divmod(int(flat), nk)
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
                          receiver_csi=True):
    """The per-trial loop; also returns how many trials had all bin weights 0."""
    rng = np.random.default_rng(seed)
    like = receiver_likelihood(problem, policy, receiver_csi)
    prior = policy.p_u_s if receiver_csi else p_u
    errors = zero_weight = 0
    for _ in range(trials):
        cb = ClassicalCodebook(_codebook_reference(p_u, sizes, n, rng), sizes, n)
        s_seq = rng.choice(problem.q_s.shape[0], size=n, p=problem.q_s)
        m = int(rng.integers(sizes[2]))
        j, k, a_seq, zero = _encode_reference(cb, m, s_seq, policy, p_u, rng)
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
        "encoding_failure_rate": 0.0,
        "trials": trials,
    }, zero_weight


def test_codebook_and_symbol_draws_match_choice_loop():
    prob, pol, p_u = _random_instance(rng_for(540), na=3, nb=3, ne=2, nu=4)
    cdf_w = classical._channel_cdf(prob)
    stacked, looped = [], []
    for out, ref in ((stacked, False), (looped, True)):
        rng = rng_for(541)
        for trial in range(40):
            n = trial % 7  # n = 0 draws nothing
            if ref:
                cb = ClassicalCodebook(_codebook_reference(p_u, (4, 4, 2), n, rng), (4, 4, 2), n)
            else:
                cb = sample_classical_codebook(p_u, (4, 4, 2), n, rng)
            s_seq = rng.choice(2, size=n, p=prob.q_s)
            if ref:
                j, k, a_seq, _ = _encode_reference(cb, trial % 2, s_seq, pol, p_u, rng)
            else:
                enc = classical._Encoder(pol, p_u, (4, 4, n))
                flat, a_seq = _encode(enc, cb.entries[:, :, trial % 2], s_seq, rng)
                j, k = divmod(flat, 4)
            if ref:
                b_seq, e_seq = _transmit_reference(prob, a_seq, s_seq, rng)
            else:
                b_seq, e_seq = np.divmod(sampling._symbols(cdf_w[a_seq, s_seq], rng.random(n)),
                                         prob.w.shape[3])
            like = receiver_likelihood(prob, pol, trial % 3 == 0)
            s_dec = s_seq if trial % 3 == 0 else None
            prior = None if trial % 4 == 0 else pol.p_u_s if trial % 3 == 0 else p_u
            if ref:
                decoded = _decode_reference(cb, b_seq, like, s_dec, prior)
            else:
                flat = classical._ml_indices(
                    cb.entries.reshape(1, 32, n), b_seq[None], classical._log_table(like),
                    None if s_dec is None else s_dec[None],
                    None if prior is None else classical._log_table(prior))[0]
                decoded = tuple(int(x) for x in np.unravel_index(flat, (4, 4, 2)))
            out.append((j, k, a_seq.tolist(), b_seq.tolist(), e_seq.tolist(), decoded))
        out.append(rng.random())
    assert stacked == looped


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
    assert classical._codebook_divergences(u_matrix[None], p_e_u, q_n)[0] == ref


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
    "xor_csi": ("xor", 6, (2, 10, 2), True, None),
    "xor_no_csi": ("xor", 6, (2, 10, 2), False, None),
    "m1": ("xor", 5, (3, 4, 1), True, None),
    "n1": ("xor", 1, (2, 2, 2), False, None),
    # 40 entries x 4 symbols, warden_cap 500: 61 trials in chunks of 3
    "uneven_chunks": ("xor", 4, (2, 10, 2), True, 500),
    # 24 entries x 5 symbols, warden_cap 300: chunks of 2
    "random_sparse": (0, 5, (3, 4, 2), True, 300),
    # 12 entries x 3 symbols exceed warden_cap 30: chunks of the one-trial floor
    "random_one_trial_chunks": (1, 3, (2, 3, 2), False, 30),
    "random_wide": (2, 4, (2, 3, 3), False, None),
    # every ratio is 2 or 2e-200: each bin with two mismatched symbols
    # underflows to 0.0, and in most trials every bin does
    "underflow": ("underflow", 6, (2, 2, 2), True, None),
    # 300 codeword labels: uint16 codebook buffers; 80 entries x 4 symbols
    # are at least one uniform per CDF entry, so the codebook takes the loop
    "wide_alphabet": ("wide", 4, (40, 1, 2), False, None),
}
E2E_CHUNK = {"uneven_chunks": 3, "random_sparse": 2, "random_one_trial_chunks": 1}
E2E_DTYPE = {"wide_alphabet": np.uint16}


def _e2e_instance(name):
    if name == "xor":
        prob, pol = xor_problem(), stacked_policy()
        return prob, pol, prob.q_s @ pol.p_u_s
    if name == "underflow":  # u = s with P(u|s) = 1, else 1e-200
        prob = xor_problem()
        pol = AuxiliaryPolicy(np.array([[1.0, 1e-200], [1e-200, 1.0]]),
                              np.eye(2)[:, None, :].repeat(2, axis=1))
        return prob, pol, prob.q_s @ pol.p_u_s
    if name == "wide":
        return _random_instance(rng_for(563), nu=300)
    rng = rng_for(560 + name)
    # alphabets of 8 to 12 joint outputs and up to 9 codeword symbols
    return _random_instance(rng, na=2 + name, ns=2 + name % 2, nb=4, ne=2 + name,
                            nu=4 + 2 * name, sparse=name == 0)


@pytest.mark.parametrize("case", sorted(E2E_CASES))
def test_end_to_end_matches_trial_loop(case, monkeypatch):
    inst, n, sizes, csi, cap = E2E_CASES[case]
    prob, pol, p_u = _e2e_instance(inst)
    cfg = DEFAULT if cap is None else DEFAULT.replaced(warden_cap=cap)
    trials = 61
    ref, zero_weight = _end_to_end_reference(prob, pol, p_u, sizes, n, trials, 11, csi)
    chunks, ml_indices = [], classical._ml_indices

    def recorded(codes, *args):
        chunks.append((len(codes), codes.dtype))
        return ml_indices(codes, *args)
    monkeypatch.setattr(classical, "_ml_indices", recorded)
    assert end_to_end_error(prob, pol, p_u, sizes, n, trials, 11, csi, cfg=cfg) == ref
    # the chunk boundaries the case is meant to cross, in uint8 codebook
    # buffers (uint16 for the wide alphabet)
    k, dtype = E2E_CHUNK.get(case, trials), E2E_DTYPE.get(case, np.uint8)
    assert chunks == [(k, dtype)] * (trials // k) + [(trials % k, dtype)] * (trials % k > 0)
    if case.startswith("xor_") or case == "underflow":
        assert 0 < zero_weight < trials
    if case == "underflow":  # all bins 0.0 by underflow, not by a zero factor
        assert np.all(classical._density_ratio(pol.p_u_s, p_u) > 0.0)
    if case in ("underflow", "wide_alphabet"):  # decodings both right and wrong
        assert 0.0 < ref["error_rate"] < 1.0


def test_bin_weights_match_symbol_loop():
    for seed in range(6):
        rng = rng_for(570 + seed)
        _, pol, p_u = _random_instance(rng, ns=3, nu=5, sparse=seed % 2 == 0)
        n = 2 + 2 * seed  # up to 12 factors
        cb = sample_classical_codebook(p_u, (3, 7, 2), n, rng)
        s_seq = rng.integers(3, size=n)
        enc = classical._Encoder(pol, p_u, (3, 7, n))
        weights = np.empty(21)
        for m in range(2):
            _, tot, _ = enc.draw(cb.entries[:, :, m].astype(enc.index_dtype),
                                 s_seq.astype(enc.index_dtype), rng, weights)
            ref = _bin_weights_reference(cb, m, s_seq, pol.p_u_s, p_u)
            assert np.array_equal(weights.reshape(3, 7), ref)
            assert tot == float(ref.sum())


def test_end_to_end_checks_before_drawing():
    prob, pol, p_u = _e2e_instance("xor")
    with pytest.raises(CapExceeded):
        end_to_end_error(prob, pol, p_u, (64, 64, 2), 4, 30, 0)
    with pytest.raises(NotADistribution, match="codeword distribution"):
        end_to_end_error(prob, pol, -p_u, (2, 2, 2), 4, 30, 0)


@pytest.mark.parametrize("trials", [0, -3])
def test_end_to_end_needs_a_trial(trials, monkeypatch):
    prob, pol, p_u = _e2e_instance("xor")

    def no_draws(seed):
        raise AssertionError("drew before checking trials")
    monkeypatch.setattr(classical.np.random, "default_rng", no_draws)
    with pytest.raises(RunParameterError, match="trials must be >= 1"):
        end_to_end_error(prob, pol, p_u, (2, 2, 2), 4, trials, 0)


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


def _exact_oracle_reference(p_u, p_e_u, rate, n):
    """The exact estimate as one divergence call per codebook configuration,
    in lexicographic order, zero-weight configurations skipped."""
    size = max(1, int(2.0 ** (n * rate)))
    q_n = classical._product_rows(np.tile(p_u @ p_e_u, (1, n, 1)))[0]
    total = 0.0
    for assignment in product(range(len(p_u)), repeat=size * n):
        u_matrix = np.asarray(assignment, dtype=np.intp).reshape(size, n)
        weight = float(np.prod(p_u[list(assignment)]))
        if weight == 0.0:
            continue
        total += weight * float(classical._codebook_divergences(u_matrix[None], p_e_u, q_n)[0])
    return total


@pytest.mark.parametrize("split", [False, True])
def test_exact_oracle_matches_per_configuration_loop(split):
    # zero-probability labels, zero cells of P_hat and (split) a warden_cap
    # that cuts the configurations into several uneven chunks
    rng = rng_for(590 + split)
    cases = 0
    while cases < 20:
        nu, ne, n = (int(x) for x in rng.integers(2, (5, 4, 4)))
        rate = float(rng.choice([0.0, 0.5, 1.0]))
        size = max(1, int(2.0 ** (n * rate)))
        if nu ** (size * n) > 1000:
            continue
        cases += 1
        p_e_u = rng.dirichlet(np.ones(ne), size=nu)
        p_e_u[rng.random(p_e_u.shape) < 0.25] = 0.0
        p_e_u[:, cases % ne] += 0.1
        p_e_u /= p_e_u.sum(axis=1, keepdims=True)
        p_u = rng.dirichlet(np.ones(nu))
        if cases % 2:
            p_u[0] = 0.0
            p_u /= p_u.sum()  # a codeword law sums to one
        cfg = DEFAULT.replaced(warden_cap=size * ne ** n * 3 + 1) if split else DEFAULT
        res = resolvability_oracle(p_u, p_e_u, rate, n, mode="exact", cfg=cfg)
        assert res["estimate"] == _exact_oracle_reference(p_u, p_e_u, rate, n)


def test_resolvability_bound_skips_zero_probability_label():
    # label 0 is never drawn, yet its row has mass where p_e is 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = classical_resolvability_bound([0.0, 1.0], [[0.5, 0.5], [0.0, 1.0]], 1.0, 2)
    want = classical_resolvability_bound([1.0], [[0.0, 1.0]], 1.0, 2)
    assert got == want
    assert got["bound"] == 2.3469213033080227 and got["alpha"] == 0.45


def _product_rows_broadcast(rows):
    """The broadcast product kernel: one (b, e^t, e) product per symbol."""
    out = np.ones((rows.shape[0], 1))
    for t in range(rows.shape[1]):
        out = (out[:, :, None] * rows[:, t, None, :]).reshape(rows.shape[0], -1)
    return out


def _warden_pair_loop(codebook, problem, policy, p_u, cfg=DEFAULT):
    """One pass per (state sequence, message) pair, each piece's product
    rows built on its own with the broadcast kernel."""
    n, (nj, nk, nm) = codebook.n, codebook.sizes
    ns, ne = problem.q_s.shape[0], problem.w.shape[3]
    w_e_us = np.einsum("usa,asx->usx", policy.p_a_us, problem.w_e())
    ratio = policy.p_u_s / np.maximum(np.asarray(p_u, dtype=np.float64), 1e-300)
    chunk = max(1, cfg.warden_cap // ne ** n)
    p_hat = np.zeros(ne ** n)
    for s_tuple in product(range(ns), repeat=n):
        s_seq = np.asarray(s_tuple, dtype=np.intp)
        q_seq = float(np.prod(problem.q_s[s_seq]))
        if q_seq == 0.0:
            continue
        for m in range(nm):
            flat = codebook.entries[:, :, m].transpose(2, 0, 1) \
                + ratio.shape[1] * s_seq[:, None, None]
            w = np.prod(ratio.ravel().take(flat), axis=0)
            tot = float(w.sum())
            probs = (w / tot).ravel() if tot > 0 else np.full(nj * nk, 1.0 / (nj * nk))
            bins = np.flatnonzero(probs)
            coef = q_seq * probs[bins] / nm
            u_seqs = codebook.entries[:, :, m].reshape(nj * nk, n)[bins]
            for lo in range(0, len(bins), chunk):
                rows = w_e_us[u_seqs[lo:lo + chunk], s_seq]
                p_hat += coef[lo:lo + chunk] @ _product_rows_broadcast(rows)
    return p_hat


@pytest.mark.parametrize("shape", [(0, 3, 2), (4, 0, 2), (3, 4, 1), (5, 1, 3), (1, 7, 2),
                                   (309, 7, 2), (6, 3, 4)])
def test_product_rows_matches_broadcast_kernel(shape):
    rows = rng_for(600 + sum(shape)).dirichlet(np.ones(shape[2]), size=shape[:2])
    got = classical._product_rows(rows)
    assert got.shape == (shape[0], shape[2] ** shape[1])
    if shape[0]:  # the broadcast kernel cannot reshape an empty batch
        assert np.array_equal(got, _product_rows_broadcast(rows))


# (seed, ns, ne, nu, sizes (J, K, M), n, sparse, zero q_s entry, warden_cap)
WARDEN_CASES = [
    (0, 2, 2, 4, (3, 5, 2), 4, True, False, 16),   # 1-bin pieces, one sequence per block
    (1, 2, 2, 4, (3, 5, 2), 4, True, False, 32),   # 2-bin pieces
    (2, 3, 2, 3, (2, 10, 2), 2, True, True, 160),  # 2-sequence blocks, runs of pieces
    (3, 2, 3, 3, (4, 3, 1), 3, True, False, 162),  # |E| = 3 and M = 1
    (4, 3, 3, 3, (5, 4, 3), 1, False, True, 6),    # n = 1
    (5, 2, 2, 4, (3, 40, 2), 5, True, False, None),  # default cap: one block
    (6, 3, 2, 4, (4, 6, 2), 3, False, True, 64),   # dense policy
    (7, 2, 2, 3, (2, 2, 3), 6, True, False, 640),  # the last block is partial
]


@pytest.mark.parametrize("case", WARDEN_CASES, ids=[f"case{c[0]}" for c in WARDEN_CASES])
def test_exact_warden_matches_pair_loop_bitwise(case):
    seed, ns, ne, nu, sizes, n, sparse, zero_q, cap = case
    rng = rng_for(620 + seed)
    prob, pol, p_u = _random_instance(rng, ns=ns, ne=ne, nu=nu, sparse=sparse)
    if zero_q:
        q_s = prob.q_s.copy()
        q_s[1] = 0.0
        prob = ClassicalProblem(q_s / q_s.sum(), prob.w, x0=0)
        p_u = prob.q_s @ pol.p_u_s
    cfg = DEFAULT if cap is None else DEFAULT.replaced(warden_cap=cap)
    cb = sample_classical_codebook(p_u, sizes, n, seed=seed)
    res = exact_warden_distribution(cb, prob, pol, p_u, cfg=cfg)
    ref = _warden_pair_loop(cb, prob, pol, p_u, cfg)
    assert np.array_equal(res["distribution"], ref)
    q0n = _product_rows_broadcast(np.tile(prob.q0(), (1, n, 1)))[0]
    assert res["tv_from_innocent"] == total_variation(ref, q0n)
    assert res["total_mass"] == float(ref.sum())


def test_exact_warden_uniform_fallback_bitwise():
    # every bin weight is zero, so every (s, m) pair takes the uniform law
    prob = ClassicalProblem([0.0, 1.0], xor_problem().w, x0=0)
    pol = stacked_policy()
    p_u = prob.q_s @ pol.p_u_s
    cb = ClassicalCodebook(np.zeros((3, 2, 2, 4), dtype=np.intp), (3, 2, 2), 4)
    for cap in (2 ** 4, 2 * 2 ** 4, DEFAULT.warden_cap):
        cfg = DEFAULT.replaced(warden_cap=cap)
        res = exact_warden_distribution(cb, prob, pol, p_u, cfg=cfg)
        assert np.array_equal(res["distribution"], _warden_pair_loop(cb, prob, pol, p_u, cfg))


# ---------------------------------------------------------------------------
# Every entry point that takes a codeword law checks that it sums to one

def _law_calls():
    prob, pol, p_u = _e2e_instance("xor")
    p_e_u = warden_rows(prob, pol)
    cb = sample_classical_codebook(p_u, (2, 2, 2), 2, 0)
    return {
        "sample_classical_codebook": lambda law: sample_classical_codebook(law, (2, 2, 2), 2, 0),
        "end_to_end_error": lambda law: end_to_end_error(prob, pol, law, (2, 2, 2), 2, 30, 0),
        "exact_warden_distribution": lambda law: exact_warden_distribution(cb, prob, pol, law),
        "resolvability_oracle.mc": lambda law: resolvability_oracle(law, p_e_u, 1.0, 2,
                                                                    trials=30),
        "resolvability_oracle.exact": lambda law: resolvability_oracle(law, p_e_u, 0.5, 2,
                                                                       mode="exact"),
        "classical_resolvability_bound": lambda law: classical_resolvability_bound(
            law, p_e_u, 1.0, 2),
    }, p_u


@pytest.mark.parametrize("entry", sorted(_law_calls()[0]))
def test_codeword_law_must_sum_to_one(entry):
    calls, p_u = _law_calls()
    call = calls[entry]
    assert abs(p_u.sum() - 1.0) < 1e-15
    call(p_u)
    call(p_u * (1.0 + 5e-10))  # within the slack AuxiliaryPolicy rows get
    for bad in (2.0 * p_u, 0.5 * p_u, p_u * (1.0 + 2e-9), -p_u,
                np.where(p_u == p_u.max(), np.nan, p_u)):
        with pytest.raises(NotADistribution, match="codeword distribution"):
            call(bad)


def test_scaled_law_no_longer_moves_the_exact_oracle():
    # scaling p_u by 2 moved the exact estimate from 0.1856 to -464.5
    p_e_u = np.array([[0.9, 0.1], [0.2, 0.8]])
    res = resolvability_oracle([0.3, 0.7], p_e_u, 1.0, 2, mode="exact")
    assert res["estimate"] == pytest.approx(0.1856, abs=1e-4)
    with pytest.raises(NotADistribution):
        resolvability_oracle([0.6, 1.4], p_e_u, 1.0, 2, mode="exact")
