"""Finite-blocklength simulation of the classical covert coding scheme and
an exact resolvability oracle.

The encoder is the two-layer binning scheme: given the message and the
state sequence it picks a (local randomness, key) bin whose codeword fits
the state, then transmits symbolwise through the input policy.  Exact
warden distributions are computed by enumerating state sequences and bin
choices; resolvability experiments average the relative entropy of the
codebook-induced output over random codebooks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .config import DEFAULT, Numerics, code_size, pow2
from .errors import CapExceeded, EncodingFailure
from .pinching import tensor_power_eigencount
from .regions import AuxiliaryPolicy, ClassicalProblem, total_variation
from .sampling import _cdf, _codeword_law, _draw, _mean_se, _symbols

__all__ = [
    "ClassicalCodebook",
    "sample_classical_codebook",
    "gp_encode",
    "transmit",
    "receiver_likelihood",
    "warden_rows",
    "ml_decode",
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

    @property
    def num_entries(self) -> int:
        return int(np.prod(self.sizes))


def _check_codebook_cap(sizes, cfg: Numerics) -> None:
    if int(np.prod(sizes)) > cfg.codebook_cap:
        raise CapExceeded(f"codebook entries {np.prod(sizes)} exceed cap")


def sample_classical_codebook(p_u: np.ndarray, sizes: tuple[int, int, int],
                              n: int, seed, cfg: Numerics = DEFAULT
                              ) -> ClassicalCodebook:
    """iid codewords of length n for every (j, k, m) bin."""
    _check_codebook_cap(sizes, cfg)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    entries = _draw(_codeword_law(p_u), rng, (*sizes, n))
    return ClassicalCodebook(entries, tuple(int(x) for x in sizes), int(n))


def _density_ratio(p_u_s: np.ndarray, p_u) -> np.ndarray:
    """P(u|s) / P(u) as an (S, U) table."""
    return p_u_s / np.maximum(np.asarray(p_u, dtype=np.float64), 1e-300)


def _bin_weights(ratio: np.ndarray, u_m: np.ndarray, s_seq: np.ndarray) -> np.ndarray:
    """Unnormalized soft-covering weights of the bins whose codewords are
    ``u_m`` (J, K, n): the product 1*r_0*r_1*... over symbols, in symbol
    order, of the density ratio ``ratio[s_t, u_t]`` = P(u|s) / P(u)."""
    flat = u_m.transpose(2, 0, 1) + ratio.shape[1] * s_seq[:, None, None]
    return np.prod(ratio.ravel().take(flat), axis=0)


class _Encoder:
    """Lookup tables of the binning encoder for one policy and codeword law.

    Each entry is computed with the arithmetic the encoder applies per
    symbol, so gathering from the tables gives the same doubles.
    """

    def __init__(self, policy: AuxiliaryPolicy, p_u: np.ndarray):
        p_u_s = policy.p_u_s
        self.ratio = _density_ratio(p_u_s, p_u)
        self.allowed = p_u_s > 0.0
        self.surprisal = np.where(self.allowed, -np.log2(np.maximum(p_u_s, 1e-300)), 0.0)
        # per-state conditional entropy, which centers the typicality window
        self.entropy = [-float(np.sum(row[row > 0.0] * np.log2(row[row > 0.0])))
                        for row in p_u_s]
        self.cdf_a = _cdf(policy.p_a_us)  # (U, S, A)

    def draw(self, u_m: np.ndarray, s_seq: np.ndarray, rng: np.random.Generator,
             mode: str, eps: float | None = None) -> tuple[int, np.ndarray | None, float]:
        """The bin draw for the codewords ``u_m`` (J, K, n) of one message.

        Returns ``(flat, None, 0.0)`` when the flat (j, k) index is already
        drawn, or ``(-1, law, u)`` when it is ``_symbols(_cdf(law, normalized=True), u)``.
        Raises :class:`EncodingFailure` when no bin is typical.
        """
        if mode == "likelihood":
            w = _bin_weights(self.ratio, u_m, s_seq)
            tot = float(w.sum())
            if tot <= 0.0:
                return int(rng.integers(w.size)), None, 0.0
            return -1, (w / tot).ravel(), rng.random()
        if mode == "typicality":
            cond_ent = 0.0
            for s in s_seq:
                cond_ent += self.entropy[s]
            cond_ent /= len(s_seq)
            if eps is None:
                eps = 0.1 * max(cond_ent, 1e-12)
            scores = np.zeros(u_m.shape[:2])
            ok = np.ones(u_m.shape[:2], dtype=bool)
            for t, s in enumerate(s_seq):
                u_t = u_m[:, :, t]
                ok &= self.allowed[s, u_t]
                scores += self.surprisal[s, u_t]
            ok &= np.abs(scores / len(s_seq) - cond_ent) <= eps
            hits = np.flatnonzero(ok)
            if hits.size == 0:
                raise EncodingFailure("no jointly typical bin for this state sequence")
            return int(hits[rng.integers(hits.size)]), None, 0.0
        raise ValueError(f"unknown encoding mode {mode!r}")


def gp_encode(codebook: ClassicalCodebook, m: int, s_seq: np.ndarray,
              policy: AuxiliaryPolicy, p_u: np.ndarray, rng: np.random.Generator,
              mode: str = "likelihood", eps: float | None = None
              ) -> tuple[int, int, np.ndarray]:
    """Pick a (j, k) bin for message m against the observed state sequence.

    "likelihood" samples bins proportionally to the per-symbol density
    ratio (well defined at every blocklength); "typicality" draws
    uniformly among bins whose codeword is jointly entropy-typical with
    the state sequence and raises :class:`EncodingFailure` when no bin
    qualifies.  The channel input is then drawn symbolwise.
    """
    s_seq = np.asarray(s_seq, dtype=np.intp)
    enc = _Encoder(policy, p_u)
    u_m = codebook.entries[:, :, m]
    flat, law, u = enc.draw(u_m, s_seq, rng, mode, eps)
    if law is not None:
        flat = int(_symbols(_cdf(law, normalized=True), u))
    j, k = divmod(flat, codebook.sizes[1])
    a_seq = _symbols(enc.cdf_a[u_m[j, k], s_seq], rng.random(len(s_seq)))
    return j, k, a_seq


def _channel_cdf(problem: ClassicalProblem) -> np.ndarray:
    """CDF rows of the joint (b, e) output, flattened b-major, per (a, s)."""
    na, ns, nb, ne = problem.w.shape
    return _cdf(problem.w.reshape(na, ns, nb * ne))


def transmit(problem: ClassicalProblem, a_seq: np.ndarray, s_seq: np.ndarray,
             rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Sample receiver and warden sequences through the channel law."""
    u = rng.random(len(a_seq))
    return np.divmod(_symbols(_channel_cdf(problem)[a_seq, s_seq], u), problem.w.shape[3])


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
    log-prior of every entry are added, in symbol order from 0.
    """
    c, entries, n = codes.shape
    nu = ll_tab.shape[0]
    if s is None:  # likelihood (U, B), prior (U,)
        ll_rows = ll_tab.T[b]
        pr_rows = None if prior_tab is None else np.broadcast_to(prior_tab, ll_rows.shape)
    else:  # likelihood (U, B, S), prior (S, U)
        ll_rows = ll_tab.transpose(1, 2, 0)[b, s]
        pr_rows = None if prior_tab is None else prior_tab[s]
    offsets = (np.arange(c) * nu)[:, None]  # into the (c, U) rows of one symbol
    ll = np.zeros((c, entries))
    for t in range(n):
        idx = codes[:, :, t] + offsets
        ll += ll_rows[:, t].ravel().take(idx)
        if pr_rows is not None:
            ll += pr_rows[:, t].ravel().take(idx)
    return ll.argmax(axis=1)  # first maximum wins


def ml_decode(codebook: ClassicalCodebook, b_seq: np.ndarray,
              likelihood: np.ndarray, s_seq: np.ndarray | None = None,
              prior: np.ndarray | None = None) -> tuple[int, int, int]:
    """Maximum-likelihood triple over all codebook entries.

    ``likelihood`` is (U, B) or, with ``s_seq`` given, (U, B, S); an
    optional ``prior`` ((U,) or (S, U)) multiplies per symbol, turning the
    rule into MAP decoding.  Ties break toward the smallest (j, k, m).
    """
    codes = codebook.entries.reshape(1, codebook.num_entries, codebook.n)
    s = None if s_seq is None else np.asarray(s_seq, dtype=np.intp)[None]
    flat = int(_ml_indices(codes, np.asarray(b_seq, dtype=np.intp)[None],
                           _log_table(likelihood), s,
                           None if prior is None else _log_table(prior))[0])
    j, rem = divmod(flat, codebook.sizes[1] * codebook.sizes[2])
    k, m = divmod(rem, codebook.sizes[2])
    return j, k, m


def end_to_end_error(problem: ClassicalProblem, policy: AuxiliaryPolicy,
                     p_u: np.ndarray, sizes: tuple[int, int, int], n: int,
                     trials: int, seed: int, receiver_csi: bool = True,
                     mode: str = "likelihood",
                     cfg: Numerics = DEFAULT) -> dict:
    """Empirical (key, message) error of the full scheme over random codebooks.

    Each trial draws a fresh codebook, state sequence, message, bin, and
    channel noise; encoding failures count as errors.  The draws come from
    one ``default_rng(seed)`` stream, trial by trial, in the order of
    ``sample_classical_codebook``, the state draw, ``gp_encode`` and
    ``transmit``.  The rest is evaluated for chunks of trials holding at
    most ``cfg.codebook_cap`` codebook entries.
    """
    _check_codebook_cap(sizes, cfg)
    p_u = _codeword_law(p_u)
    nj, nk, nm = (int(x) for x in sizes)
    entries = nj * nk * nm
    rng = np.random.default_rng(seed)
    enc = _Encoder(policy, p_u)
    cdf_u, cdf_w = _cdf(p_u), _channel_cdf(problem)
    cdf_s = _cdf(problem.q_s, normalized=True)  # rng.choice(S, p=q_s): no renormalization
    ll_tab = _log_table(receiver_likelihood(problem, policy, receiver_csi))
    prior_tab = _log_table(policy.p_u_s if receiver_csi else p_u)
    ne = problem.w.shape[3]

    errors = 0
    enc_failures = 0
    chunk = max(1, cfg.codebook_cap // entries)
    for lo in range(0, trials, chunk):
        c = min(chunk, trials - lo)
        # Draw pass: the draws of each trial in stream order.  Besides the
        # codebook symbols only the bin weights of the sent message are
        # evaluated here, because they decide which draw comes next.
        codes = np.empty((c, nj, nk, nm, n), dtype=np.intp)
        s = np.empty((c, n), dtype=np.intp)
        m = np.empty(c, dtype=np.intp)
        bins = np.zeros(c, dtype=np.intp)
        laws = np.empty((c, nj * nk))
        u_bin = np.zeros(c)
        u_io = np.zeros((c, 2, n))  # input then channel uniforms
        pending = np.zeros(c, dtype=bool)
        sent = np.ones(c, dtype=bool)
        for i in range(c):
            codes[i] = _symbols(cdf_u, rng.random((nj, nk, nm, n)))
            s[i] = _symbols(cdf_s, rng.random(n))
            m[i] = rng.integers(nm)
            try:
                flat, law, u_bin[i] = enc.draw(codes[i, :, :, m[i]], s[i], rng, mode)
            except EncodingFailure:
                sent[i] = False
                continue
            if law is None:
                bins[i] = flat
            else:
                laws[i], pending[i] = law, True
            rng.random(out=u_io[i])

        # Stacked pass.  Trials whose encoding failed run through it with
        # bin 0 and zero uniforms and are left out of the count.
        enc_failures += c - int(sent.sum())
        bins[pending] = _symbols(_cdf(laws[pending], normalized=True), u_bin[pending])
        codes = codes.reshape(c, entries, n)
        u_seq = codes[np.arange(c), bins * nm + m]
        a = _symbols(enc.cdf_a[u_seq, s], u_io[:, 0])
        b = _symbols(cdf_w[a, s], u_io[:, 1]) // ne
        flat = _ml_indices(codes, b, ll_tab, s if receiver_csi else None, prior_tab)
        wrong = (flat // nm % nk != bins % nk) | (flat % nm != m)
        errors += int(np.count_nonzero(wrong & sent))
    errors += enc_failures
    p_err = errors / trials
    return {
        "error_rate": p_err,
        "std_error": math.sqrt(max(p_err * (1 - p_err), 1e-12) / trials),
        "encoding_failure_rate": enc_failures / trials,
        "trials": trials,
    }


def _product_rows(rows: np.ndarray) -> np.ndarray:
    """Product distributions of a batch of per-symbol rows.

    ``rows`` is (b, n, e); the result is (b, e^n) with the first symbol
    most significant.  Each entry is the product 1*a_0*a_1*... taken in
    symbol order.
    """
    out = np.ones((rows.shape[0], 1))
    for t in range(rows.shape[1]):
        out = (out[:, :, None] * rows[:, t, None, :]).reshape(rows.shape[0], -1)
    return out


def exact_warden_distribution(codebook: ClassicalCodebook,
                              problem: ClassicalProblem, policy: AuxiliaryPolicy,
                              p_u: np.ndarray, cfg: Numerics = DEFAULT) -> dict:
    """Exact induced warden distribution over E^n and its TV from q0^n,
    under likelihood encoding.

    Sums over state sequences, messages, bin choices (with their exact
    encoder probabilities), and the symbolwise input randomness.  The
    product distributions of the bins are built in chunks of at most
    ``cfg.warden_cap`` floats.
    """
    n = codebook.n
    ns = problem.q_s.shape[0]
    ne = problem.w.shape[3]
    if ne ** n > cfg.warden_cap or ns ** n > cfg.warden_cap:
        raise CapExceeded(f"alphabet powers exceed cap {cfg.warden_cap}")

    w_e_us = _output_given_us(policy, problem.w_e())  # P(e|u,s)
    ratio = _density_ratio(policy.p_u_s, p_u)
    nj, nk, nm = codebook.sizes
    chunk = max(1, cfg.warden_cap // ne ** n)
    p_hat = np.zeros(ne ** n)
    for s_tuple in product(range(ns), repeat=n):
        s_seq = np.asarray(s_tuple, dtype=np.intp)
        q_seq = float(np.prod(problem.q_s[s_seq]))
        if q_seq == 0.0:
            continue
        for m in range(nm):
            w = _bin_weights(ratio, codebook.entries[:, :, m], s_seq)
            tot = float(w.sum())
            probs = (w / tot).ravel() if tot > 0 else np.full(nj * nk, 1.0 / (nj * nk))
            bins = np.flatnonzero(probs)
            coef = q_seq * probs[bins] / nm
            u_seqs = codebook.entries[:, :, m].reshape(nj * nk, n)[bins]
            for lo in range(0, len(bins), chunk):
                rows = w_e_us[u_seqs[lo:lo + chunk], s_seq]  # (chunk, n, E)
                p_hat += coef[lo:lo + chunk] @ _product_rows(rows)

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

    Classical specialization of the one-shot resolvability bound applied
    to the n-fold product: the divergence term is additive and the
    distinct-eigenvalue count is taken over the product distribution.
    """
    p_u = np.asarray(p_u, dtype=np.float64)
    p_e_u = np.asarray(p_e_u, dtype=np.float64)
    p_e = p_u @ p_e_u
    v = tensor_power_eigencount(np.diag(p_e).astype(complex), n, cfg=cfg)
    best = math.inf
    best_alpha = None
    for alpha in np.linspace(0.05, 0.45, 9):
        mass = 0.0
        for pu, row in zip(p_u, p_e_u):
            mask = row > 0.0
            mass += pu * float(np.sum(row[mask] ** (1 + alpha)
                                      * p_e[mask] ** (-alpha)))
        d_ue = math.log2(mass) / alpha
        val = (v ** alpha / (alpha * math.log(2.0))) \
            * pow2(alpha * (-n * rate + n * d_ue))
        if val < best:
            best, best_alpha = val, float(alpha)
    return {"bound": best, "alpha": best_alpha, "eigencount": v}


def _codebook_divergences(u_mats: np.ndarray, p_e_u: np.ndarray,
                          q_n: np.ndarray) -> np.ndarray:
    """D(P_hat || q^n) of each codebook of a (codebooks, size, n) symbol stack."""
    c, size, n = u_mats.shape
    p_hat = _product_rows(p_e_u[u_mats].reshape(c * size, n, -1)) \
        .reshape(c, size, -1).mean(axis=1)
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


def _codebook_divergence(u_matrix: np.ndarray, p_e_u: np.ndarray,
                         q_n: np.ndarray) -> float:
    """D(P_hat || q^n) for one codebook given as a (size, n) symbol matrix."""
    return float(_codebook_divergences(u_matrix[None], p_e_u, q_n)[0])


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

    if mode == "exact":
        configs = nu ** (size * n)
        if configs > cfg.exact_resolvability_cap:
            raise CapExceeded(f"{configs} codebook configurations exceed cap")
        total = 0.0
        for assignment in product(range(nu), repeat=size * n):
            u_matrix = np.asarray(assignment, dtype=np.intp).reshape(size, n)
            weight = float(np.prod(p_u[list(assignment)]))
            if weight == 0.0:
                continue
            total += weight * _codebook_divergence(u_matrix, p_e_u, q_n)
        out.update({"estimate": total, "std_error": 0.0, "mode": "exact"})
        return out

    if mode != "mc":
        raise ValueError(f"unknown mode {mode!r}")
    if trials < 30:
        raise ValueError("mc mode needs at least 30 codebooks")
    # One rng.random((c, size, n)) call yields the doubles of c calls of
    # rng.choice(nu, size=(size, n), p=p_u / p_u.sum()); a chunk of c
    # codebooks holds at most warden_cap floats of product rows.
    rng = np.random.default_rng(seed)
    cdf = _cdf(p_u)
    chunk = cfg.warden_cap // (size * ne ** n)
    vals = []
    for lo in range(0, trials, chunk):
        u_mats = _symbols(cdf, rng.random((min(chunk, trials - lo), size, n)))
        vals += _codebook_divergences(u_mats, p_e_u, q_n).tolist()
    mean, se = _mean_se(vals)
    out.update({"estimate": mean, "std_error": se, "mode": "mc", "trials": trials})
    return out
