"""Finite-blocklength simulation of the classical covert coding scheme and
an exact resolvability oracle.

The encoder is the two-layer binning scheme with likelihood encoding:
given the message and the state sequence it draws a (local randomness,
key) bin with the soft-covering weight of its codeword under the state,
then transmits symbolwise through the input policy.  Exact warden
distributions are computed by enumerating state sequences and bin
choices; resolvability experiments average the relative entropy of the
codebook-induced output over random codebooks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT, ROWS, Numerics, ProtocolRates, check_codebook_cap, code_size
from .divergences import cq_sandwiched_renyi
from .errors import CapExceeded, RunParameterError
from .pinching import tensor_power_eigencount
from .regions import AuxiliaryPolicy, ClassicalProblem, total_variation
from .sampling import _cdf, _codeword_law, _draw, _mean_se, _Sampler, _symbols
from .states import CQState, DensityMatrix

__all__ = [
    "ClassicalCodebook",
    "sample_classical_codebook",
    "receiver_likelihood",
    "warden_rows",
    "end_to_end_error",
    "exact_warden_distribution",
    "resolvability_oracle",
    "classical_resolvability_bound",
]


@dataclass(frozen=True)
class ClassicalCodebook:
    """Blocklength-n codeword table indexed by (j, k, m)."""

    entries: np.ndarray  # (J, K, M, n) symbol indices
    sizes: tuple[int, int, int]
    n: int


def sample_classical_codebook(p_u: np.ndarray, sizes: tuple[int, int, int],
                              n: int, seed, cfg: Numerics = DEFAULT
                              ) -> ClassicalCodebook:
    """iid codewords of length n for every (j, k, m) bin."""
    check_codebook_cap(sizes, cfg)
    entries = _draw(_codeword_law(p_u), np.random.default_rng(seed), (*sizes, n))
    return ClassicalCodebook(entries, tuple(int(x) for x in sizes), int(n))


def _density_ratio(p_u_s: np.ndarray, p_u) -> np.ndarray:
    """P(u|s) / P(u) as an (S, U) table."""
    return p_u_s / np.maximum(np.asarray(p_u, dtype=np.float64), 1e-300)


class _Encoder:
    """Lookup tables of the likelihood encoder for one policy and codeword
    law, and the scratch buffers of its bin weights for codebooks of shape
    ``(J, K, n)``.

    Each entry is computed with the arithmetic the encoder applies per
    symbol, so gathering from the tables gives the same doubles.  State
    sequences come in ``index_dtype``, the narrowest dtype that holds every
    flat (s, u) index s*U + u, so the bin weights' index arithmetic runs in
    one dtype.
    """

    def __init__(self, policy: AuxiliaryPolicy, p_u: np.ndarray, shape: tuple[int, int, int]):
        p_u_s = policy.p_u_s
        ns, nu = p_u_s.shape
        self.ratio = _density_ratio(p_u_s, p_u).ravel()  # P(u|s) / P(u) at s*U + u
        self.cdf_a = _cdf(policy.p_a_us)  # (U, S, A)
        self.index_dtype = np.min_scalar_type(ns * nu - 1)
        self.nu = self.index_dtype.type(nu)
        nj, nk, n = shape
        self.offsets = np.empty(n, dtype=self.index_dtype)
        self.index = np.empty((n, nj, nk), dtype=self.index_dtype)
        self.factors = np.empty((n, nj, nk))

    def draw(self, u_m: np.ndarray, s_seq: np.ndarray, rng: np.random.Generator,
             weights: np.ndarray) -> tuple[int, float, float]:
        """The bin draw for the codewords ``u_m`` (J, K, n) of one message
        under the state sequence ``s_seq``, both in dtypes no wider than
        ``index_dtype``.

        Writes the unnormalized soft-covering weights of the bins into
        ``weights`` (J*K,): the product 1*r_0*r_1*... over symbols, in
        symbol order, of the density ratio ``r_t = P(u_t|s_t) / P(u_t)``.
        Returns ``(flat, tot, 0.0)`` when the flat (j, k) index is already
        drawn (uniformly, when every weight is 0), or ``(-1, tot, u)`` when
        it is ``_symbols(_cdf(weights / tot, normalized=True), u)``, where
        ``tot`` is the weights' sum.
        """
        np.multiply(s_seq, self.nu, out=self.offsets)
        np.add(u_m.transpose(2, 0, 1), self.offsets[:, None, None], out=self.index)
        self.ratio.take(self.index, out=self.factors, mode="clip")  # indices < S*U
        np.multiply.reduce(self.factors, axis=0, out=weights.reshape(u_m.shape[:2]))
        tot = float(np.add.reduce(weights))
        if tot <= 0.0:
            return int(rng.integers(weights.size)), tot, 0.0
        return -1, tot, rng.random()


def _channel_cdf(problem: ClassicalProblem) -> np.ndarray:
    """CDF rows of the joint (b, e) output, flattened b-major, per (a, s)."""
    na, ns, nb, ne = problem.w.shape
    return _cdf(problem.w.reshape(na, ns, nb * ne))


def _state_posterior(problem: ClassicalProblem, policy: AuxiliaryPolicy) -> np.ndarray:
    """P(s|u) as an (S, U) table.

    A label with P(u) = 0 gets a zero column: the inverse-CDF draws never
    put it into a codebook, so no decoder or warden row of it is read.
    """
    joint_su = problem.q_s[:, None] * policy.p_u_s
    p_u = joint_su.sum(axis=0)
    return np.where(p_u[None, :] > 0, joint_su / np.maximum(p_u[None, :], 1e-300), 0.0)


def _output_given_us(policy: AuxiliaryPolicy, w_x: np.ndarray) -> np.ndarray:
    """P(x|u,s) as a (U, S, X) table for a marginal channel ``w_x[a, s, x]``."""
    return np.einsum("usa,asx->usx", policy.p_a_us, w_x)


def warden_rows(problem: ClassicalProblem, policy: AuxiliaryPolicy) -> np.ndarray:
    """P(e|u) rows induced by the policy through the channel, as (U, E)."""
    return np.einsum("su,use->ue", _state_posterior(problem, policy),
                     _output_given_us(policy, problem.w_e()))


def receiver_likelihood(problem: ClassicalProblem, policy: AuxiliaryPolicy,
                        receiver_csi: bool) -> np.ndarray:
    """Per-symbol decoding likelihood table.

    Without receiver CSI: L[u, b] marginalizes the state with its
    posterior given u.  With CSI: L[u, b, s] conditions on the known
    state.
    """
    cond = _output_given_us(policy, problem.w_b())  # P(b|u,s)
    if receiver_csi:
        return np.transpose(cond, (0, 2, 1))  # (u, b, s)
    return np.einsum("su,usb->ub", _state_posterior(problem, policy), cond)


def _log_table(p: np.ndarray) -> np.ndarray:
    return np.log(np.maximum(p, 1e-300))


def _ml_indices(codes: np.ndarray, b: np.ndarray, ll_tab: np.ndarray,
                s: np.ndarray | None, prior_tab: np.ndarray | None) -> np.ndarray:
    """First-maximum flat (j, k, m) index of each of a stack of decodings.

    ``codes`` is (c, entries, n): the codebook of each trial; ``b`` and
    ``s`` are (c, n).  Per symbol the log-likelihood and then the
    log-prior of every entry are added, in symbol order from 0.  The sums
    of the first p symbols, for the largest p <= n with U^p <= entries,
    are tabulated per trial by those additions and gathered once by prefix.
    """
    c, entries, n = codes.shape
    nu = ll_tab.shape[0]
    if s is None:  # likelihood (U, B), prior (U,)
        ll_rows = ll_tab.T[b]
        pr_rows = None if prior_tab is None else np.broadcast_to(prior_tab, ll_rows.shape)
    else:  # likelihood (U, B, S), prior (S, U)
        ll_rows = ll_tab.transpose(1, 2, 0)[b, s]
        pr_rows = None if prior_tab is None else prior_tab[s]
    p = max(t for t in range(n + 1) if nu ** t <= entries)  # the tabulated prefix length
    offsets = (np.arange(c) * nu)[:, None]  # into the (c, U) rows of one symbol
    ll = np.zeros((c, 1 if p else entries))
    for t in range(p):  # the sums of (u_0, ..., u_t) at u_0 + U u_1 + ... + U^t u_t
        ll = ll[:, None, :] + ll_rows[:, t, :, None]
        if pr_rows is not None:
            ll += pr_rows[:, t, :, None]
        ll = ll.reshape(c, -1)
    if p:
        prefix = codes[:, :, p - 1] + offsets  # Horner's rule, into each trial's row
        for t in range(p - 2, -1, -1):
            prefix *= nu
            prefix += codes[:, :, t]
        ll = ll.ravel().take(prefix)
    for t in range(p, n):
        idx = codes[:, :, t] + offsets
        ll += ll_rows[:, t].ravel().take(idx)
        if pr_rows is not None:
            ll += pr_rows[:, t].ravel().take(idx)
    return ll.argmax(axis=1)  # first maximum wins


def end_to_end_error(problem: ClassicalProblem, policy: AuxiliaryPolicy,
                     p_u: np.ndarray, sizes: tuple[int, int, int], n: int,
                     trials: int, seed: int, receiver_csi: bool = True,
                     cfg: Numerics = DEFAULT) -> dict:
    """Empirical (key, message) error of the full scheme over random codebooks.

    Each trial draws a fresh codebook, state sequence, message, bin, and
    channel noise; ``trials`` must be at least 1.  The draws come from
    one ``default_rng(seed)`` stream, trial by trial, in the order of
    ``sample_classical_codebook``, the state draw, the bin draw, and the
    input and channel draws, by two inverse-CDF samplers prepared once per
    call, into buffers allocated once per call for a chunk of trials
    holding at most ``cfg.warden_cap`` codebook symbols (trials x entries x
    n, at least one trial), the codebook in the narrowest index dtype of
    the codeword alphabet: no per-trial array is allocated.  The rest, the
    bin laws' normalization included, is evaluated for the chunk at once.
    ``cfg.codebook_cap`` caps the entries of one codebook.
    """
    check_codebook_cap(sizes, cfg)
    if trials < 1:
        raise RunParameterError(f"trials must be >= 1, got {trials}")
    p_u = _codeword_law(p_u)
    nj, nk, nm = (int(x) for x in sizes)
    entries = nj * nk * nm
    rng = np.random.default_rng(seed)
    enc = _Encoder(policy, p_u, (nj, nk, n))
    cdf_u, cdf_w = _cdf(p_u), _channel_cdf(problem)
    cdf_s = _cdf(problem.q_s, normalized=True)  # rng.choice(S, p=q_s): no renormalization
    ll_tab = _log_table(receiver_likelihood(problem, policy, receiver_csi))
    prior_tab = _log_table(policy.p_u_s if receiver_csi else p_u)
    ne = problem.w.shape[3]
    uniforms = np.empty(entries * n + n)  # one trial's codebook, then state uniforms
    u_code = uniforms[:entries * n].reshape(nj, nk, nm, n)
    u_state = uniforms[entries * n:]
    draw_code, draw_state = _Sampler(cdf_u, u_code.shape), _Sampler(cdf_s, u_state.shape)

    errors = 0
    chunk = max(1, min(trials, cfg.warden_cap // (entries * n)))
    # codes, states, messages, bins (-1: drawn from its law in the stacked pass),
    # bin weights, sums and uniforms, input then channel uniforms
    buffers = [np.empty((chunk, *shape), dtype=dtype) for shape, dtype in (
        ((nj, nk, nm, n), np.min_scalar_type(len(p_u) - 1)), ((n,), enc.index_dtype),
        ((), np.intp), ((), np.intp), ((nj * nk,), float), ((), float), ((), float),
        ((2, n), float))]
    for lo in range(0, trials, chunk):
        c = min(chunk, trials - lo)
        codes, s, m, bins, laws, tot, u_bin, u_io = (buf[:c] for buf in buffers)
        # Draw pass: the draws of each trial in stream order, written into
        # the chunk's buffers.  Besides the codebook symbols only the bin
        # weights of the sent message are evaluated here, because they
        # decide which draw comes next.
        for i in range(c):
            rng.random(out=uniforms)
            draw_code(u_code, out=codes[i])
            draw_state(u_state, out=s[i])
            m[i] = rng.integers(nm)
            bins[i], tot[i], u_bin[i] = enc.draw(codes[i, :, :, m[i]], s[i], rng, laws[i])
            rng.random(out=u_io[i])

        # Stacked pass: the rest of each trial, for the chunk at once.
        pending = bins < 0
        bins[pending] = _symbols(_cdf(laws[pending] / tot[pending, None], normalized=True),
                                 u_bin[pending])
        codes = codes.reshape(c, entries, n)
        u_seq = codes[np.arange(c), bins * nm + m]
        a = _symbols(enc.cdf_a[u_seq, s], u_io[:, 0])
        b = _symbols(cdf_w[a, s], u_io[:, 1]) // ne
        flat = _ml_indices(codes, b, ll_tab, s if receiver_csi else None, prior_tab)
        wrong = (flat // nm % nk != bins % nk) | (flat % nm != m)
        errors += int(np.count_nonzero(wrong))
    p_err = errors / trials
    return {
        "error_rate": p_err,
        "std_error": math.sqrt(max(p_err * (1 - p_err), 1e-12) / trials),
        # 0.0: the encoder sends even when every bin weight is 0; kept for stable bodies
        "encoding_failure_rate": 0.0,
        "trials": trials,
    }


def _product_rows(rows: np.ndarray) -> np.ndarray:
    """Product distributions of a batch of per-symbol rows.

    ``rows`` is (b, n, e); the result is (b, e^n) with the first symbol
    most significant.  Each entry is the product 1*a_0*a_1*... taken in
    symbol order.  Each step fills its output one symbol x at a time, so
    the inner loops run over the e^t entries of the previous step.
    """
    b, n, e = rows.shape
    out = np.ones((b, 1))
    for t in range(n):
        new = np.empty((b, out.shape[1], e))
        for x in range(e):
            np.multiply(out, rows[:, t, x, None], out=new[:, :, x])
        out = new.reshape(b, out.shape[1] * e)
    return out


def exact_warden_distribution(codebook: ClassicalCodebook,
                              problem: ClassicalProblem, policy: AuxiliaryPolicy,
                              p_u: np.ndarray, cfg: Numerics = DEFAULT) -> dict:
    """Exact induced warden distribution over E^n and its TV from q0^n,
    under likelihood encoding.

    Sums over state sequences, messages, bin choices (with their exact
    encoder probabilities), and the symbolwise input randomness, adding
    ``coef @ product rows`` per piece of at most ``cfg.warden_cap // |E|^n``
    bins of one (state sequence, message) pair, in that order.  State
    sequences go in lexicographic blocks and product rows in runs of pieces,
    each within ``cfg.warden_cap // 2`` floats (a lone piece within ``cfg.warden_cap``).
    """
    n = codebook.n
    ns = problem.q_s.shape[0]
    ne = problem.w.shape[3]
    if ne ** n > cfg.warden_cap or ns ** n > cfg.warden_cap:
        raise CapExceeded(f"alphabet powers exceed cap {cfg.warden_cap}")

    w_e_us = _output_given_us(policy, problem.w_e())  # P(e|u,s)
    ratio = _density_ratio(policy.p_u_s, _codeword_law(p_u))
    nj, nk, nm = codebook.sizes
    u_mb = codebook.entries.reshape(nj * nk, nm, n).transpose(1, 0, 2)  # (M, JK, n)
    chunk = max(1, cfg.warden_cap // ne ** n)
    half = cfg.warden_cap // 2
    block = max(1, half // (nm * nj * nk))
    p_hat = np.zeros(ne ** n)
    for lo in range(0, ns ** n, block):
        s_seq = np.arange(lo, min(lo + block, ns ** n))[:, None] // ns ** np.arange(n)[::-1] % ns
        q_seq = np.prod(problem.q_s[s_seq], axis=1)
        s_seq, q_seq = s_seq[q_seq != 0.0], q_seq[q_seq != 0.0]
        w = np.ones((len(s_seq), nm, nj * nk))  # bin weights 1*r_0*r_1*...
        for t in range(n):
            w *= ratio[:, u_mb[:, :, t]][s_seq[:, t]]
        tot = w.sum(axis=2, keepdims=True)
        np.divide(w, tot, out=w, where=tot > 0)  # encoder probabilities
        w[~(tot[:, :, 0] > 0)] = 1.0 / (nj * nk)
        idx = np.flatnonzero(w)  # in (s, m, bin) order
        coef = q_seq[idx // (nm * nj * nk)] * w.ravel()[idx] / nm
        counts = np.count_nonzero(w, axis=2).ravel()
        del w
        cuts = np.append(np.flatnonzero((np.arange(len(idx)) - np.repeat(  # piece bounds
            np.cumsum(counts) - counts, counts)) % chunk == 0), len(idx))
        k = 0
        while k < len(cuts) - 1:
            end = max(k + 1, np.searchsorted(cuts, cuts[k] + half // ne ** n, "right") - 1)
            si, mi, bi = np.unravel_index(idx[cuts[k]:cuts[end]], (len(s_seq), nm, nj * nk))
            rows = _product_rows(w_e_us[u_mb[mi, bi], s_seq[si]])
            for a, b in zip(cuts[k:end], cuts[k + 1:end + 1]):
                p_hat += coef[a:b] @ rows[a - cuts[k]:b - cuts[k]]
            del rows
            k = end

    q0n = _product_rows(np.tile(problem.q0(), (1, n, 1)))[0]
    return {
        "distribution": p_hat,
        "tv_from_innocent": total_variation(p_hat, q0n),
        "total_mass": float(p_hat.sum()),
    }


def classical_resolvability_bound(p_u: np.ndarray, p_e_u: np.ndarray,
                                  rate: float, n: int,
                                  cfg: Numerics = DEFAULT) -> dict:
    """Closed-form bound on the expected codebook-to-product divergence.

    :func:`oneshot.resolvability_bound` on the n-fold product of the diagonal
    cq embedding (conditionals diag(p_e_u[u]), probabilities p_u), at the best
    of nine alphas: the row ``config.ROWS["resolvability"]`` at rate n*rate,
    with n D_(1+alpha)(U;E) from one :func:`cq_sandwiched_renyi` call and the
    eigencount of the n-fold tensor power of its average.
    Supports follow the quantum rule (``support_tol``, ``support_mass_tol``):
    a drawn label's row outside the average's support gives +inf, alpha None.
    """
    p_u = _codeword_law(p_u)
    conds = np.asarray(p_e_u, dtype=complex)[:, :, None] * np.eye(np.shape(p_e_u)[1])
    cq = CQState(range(len(p_u)), p_u, DensityMatrix(conds, validate=False), validate=False)
    alphas = np.linspace(0.05, 0.45, 9)
    d_ue = cq_sandwiched_renyi(cq, 1.0 + alphas, cfg).value.tolist()
    v = tensor_power_eigencount(cq.average(), n, cfg=cfg)
    row = ROWS["resolvability"][2]
    best, alpha = min((row(v, a, ProtocolRates(n * rate, 0.0, 0.0, a), n * d)
                       if d < math.inf else math.inf, a)
                      for a, d in zip(alphas.tolist(), d_ue))
    return {"bound": best, "alpha": alpha if best < math.inf else None, "eigencount": v}


def _codebook_divergences(u_mats: np.ndarray, p_e_u: np.ndarray,
                          q_n: np.ndarray) -> np.ndarray:
    """D(P_hat || q^n) of each codebook of a (codebooks, size, n) symbol stack."""
    c, size, n = u_mats.shape
    p_hat = _product_rows(p_e_u[u_mats].reshape(c * size, n, p_e_u.shape[1])) \
        .reshape(c, size, q_n.size).mean(axis=1)
    out = np.empty(c)
    full = p_hat.all(axis=1)
    rows = p_hat if full.all() else p_hat[full]
    terms = np.log2(rows / q_n)
    out[full] = np.sum(np.multiply(rows, terms, out=terms), axis=1)
    # Zero cells are left out: sum the compacted row, whose pairwise
    # summation differs from that of the row with zero terms.
    for i in np.flatnonzero(~full):
        mask = p_hat[i] > 0.0
        out[i] = np.sum(p_hat[i, mask] * np.log2(p_hat[i, mask] / q_n[mask]))
    return out


def resolvability_oracle(p_u: np.ndarray, p_e_u: np.ndarray, rate: float,
                         n: int, mode: str = "mc", trials: int = 1000,
                         seed: int = 0, cfg: Numerics = DEFAULT) -> dict:
    """Expected divergence of a random codebook's output from the product.

    "exact" enumerates every codebook realization (capped); "mc" samples
    codebooks and reports the mean with its standard error, alongside the
    closed-form bound.  The codebook size and |E|^n are checked against
    ``cfg.codebook_cap`` and ``cfg.warden_cap`` before anything is built.
    """
    p_u = _codeword_law(p_u)
    p_e_u = np.asarray(p_e_u, dtype=np.float64)
    nu, ne = p_e_u.shape
    if n * ne > cfg.warden_cap:  # the (n, |E|) product rows; n * rate may overflow a float
        raise CapExceeded(f"blocklength {n} x |E| = {n * ne} exceeds cap {cfg.warden_cap}")
    size = code_size(n * rate)
    if size > cfg.codebook_cap:
        raise CapExceeded(f"{size} codewords exceed cap {cfg.codebook_cap}")
    if ne ** n > cfg.warden_cap:
        raise CapExceeded(f"|E|^n = {ne ** n} exceeds cap {cfg.warden_cap}")
    if size * ne ** n > cfg.warden_cap:  # one codebook's (codewords, |E|^n) buffer
        raise CapExceeded(f"{size} codewords x |E|^n = {size * ne ** n} floats "
                          f"exceed cap {cfg.warden_cap}")
    q_n = _product_rows(np.tile(p_u @ p_e_u, (1, n, 1)))[0]

    out = {"codewords": size, "n": n, "rate": rate}
    out.update(classical_resolvability_bound(p_u, p_e_u, rate, n, cfg=cfg))
    chunk = cfg.warden_cap // (size * ne ** n)  # codebooks per warden_cap floats

    if mode == "exact":
        configs = nu ** (size * n)
        if configs > cfg.exact_resolvability_cap:
            raise CapExceeded(f"{configs} codebook configurations exceed cap")
        # Every configuration in lexicographic order, first symbol most
        # significant, a chunk at a time; zero-weight ones are skipped.
        places = nu ** np.arange(size * n)[::-1]
        total = 0.0
        for lo in range(0, configs, chunk):
            digits = np.arange(lo, min(lo + chunk, configs))[:, None] // places % nu
            weights = np.prod(p_u[digits], axis=1)
            keep = weights != 0.0
            vals = _codebook_divergences(digits[keep].reshape(-1, size, n), p_e_u, q_n)
            for weight, value in zip(weights[keep].tolist(), vals.tolist()):
                total += weight * value
        out.update({"estimate": total, "std_error": 0.0, "mode": "exact"})
        return out

    if mode != "mc":
        raise ValueError(f"unknown mode {mode!r}")
    if trials < 30:
        raise RunParameterError("mc mode needs at least 30 codebooks")
    # One rng.random((c, size, n)) call yields the doubles of c calls of
    # rng.choice(nu, size=(size, n), p=p_u / p_u.sum()).
    rng = np.random.default_rng(seed)
    cdf = _cdf(p_u)
    vals = []
    for lo in range(0, trials, chunk):
        u_mats = _symbols(cdf, rng.random((min(chunk, trials - lo), size, n)))
        vals += _codebook_divergences(u_mats, p_e_u, q_n).tolist()
    mean, se = _mean_se(vals)
    out.update({"estimate": mean, "std_error": se, "mode": "mc", "trials": trials})
    return out
