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

from .config import DEFAULT, Numerics, code_size
from .errors import CapExceeded, EncodingFailure
from .pinching import tensor_power_eigencount
from .regions import AuxiliaryPolicy, ClassicalProblem, total_variation

__all__ = [
    "ClassicalCodebook",
    "sample_classical_codebook",
    "gp_encode",
    "transmit",
    "receiver_likelihood",
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


def sample_classical_codebook(p_u: np.ndarray, sizes: tuple[int, int, int],
                              n: int, seed, cfg: Numerics = DEFAULT
                              ) -> ClassicalCodebook:
    """iid codewords of length n for every (j, k, m) bin."""
    if int(np.prod(sizes)) > cfg.codebook_cap:
        raise CapExceeded(f"codebook entries {np.prod(sizes)} exceed cap")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    p = np.asarray(p_u, dtype=np.float64)
    if not (np.all(p >= 0.0) and p.sum() > 0.0):
        raise ValueError("codeword distribution needs nonnegative entries and positive mass")
    entries = _draw(p, rng, (*sizes, n))
    return ClassicalCodebook(entries, tuple(int(x) for x in sizes), int(n))


def _draw(p: np.ndarray, rng: np.random.Generator, shape=None) -> np.ndarray:
    """Categorical draws by inverse CDF from one ``rng.random(shape)`` call.

    ``p`` holds unnormalized distributions along its last axis and
    broadcasts against ``shape`` (default: one draw per distribution).
    The arithmetic is that of ``rng.choice(k, p=row / row.sum())``:
    normalize, cumsum, divide by the last entry, count the entries <= u.
    So the uniforms consumed and the indices returned are those of one
    ``choice`` call per distribution in order, or of one ``choice(k,
    size=shape)`` call for a single distribution.
    """
    cdf = np.cumsum(p / p.sum(axis=-1, keepdims=True), axis=-1)
    cdf /= cdf[..., -1:]
    u = rng.random(p.shape[:-1] if shape is None else shape)
    idx = np.zeros(u.shape, dtype=np.intp)
    for i in range(cdf.shape[-1]):
        idx += cdf[..., i] <= u
    return idx


def _bin_weights_likelihood(codebook: ClassicalCodebook, m: int,
                            s_seq: np.ndarray, p_u_s: np.ndarray,
                            p_u: np.ndarray) -> np.ndarray:
    """Unnormalized soft-covering weights over the (j, k) bins."""
    nj, nk, _ = codebook.sizes
    w = np.ones((nj, nk))
    for t, s in enumerate(s_seq):
        u_t = codebook.entries[:, :, m, t]
        w *= p_u_s[s, u_t] / np.maximum(p_u[u_t], 1e-300)
    return w


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
    nj, nk, _ = codebook.sizes
    if mode == "likelihood":
        w = _bin_weights_likelihood(codebook, m, s_seq, policy.p_u_s, p_u)
        tot = float(w.sum())
        if tot <= 0.0:
            flat = rng.integers(nj * nk)
        else:
            flat = rng.choice(nj * nk, p=(w / tot).ravel())
        j, k = divmod(int(flat), nk)
    elif mode == "typicality":
        cond_ent = _empirical_conditional_entropy(policy.p_u_s, s_seq)
        if eps is None:
            eps = 0.1 * max(cond_ent, 1e-12)
        scores = np.zeros((nj, nk))
        ok = np.ones((nj, nk), dtype=bool)
        for t, s in enumerate(s_seq):
            u_t = codebook.entries[:, :, m, t]
            p_t = policy.p_u_s[s, u_t]
            ok &= p_t > 0.0
            with np.errstate(divide="ignore"):
                scores += np.where(p_t > 0.0, -np.log2(np.maximum(p_t, 1e-300)), 0.0)
        ok &= np.abs(scores / len(s_seq) - cond_ent) <= eps
        hits = np.argwhere(ok)
        if hits.shape[0] == 0:
            raise EncodingFailure("no jointly typical bin for this state sequence")
        j, k = (int(x) for x in hits[rng.integers(hits.shape[0])])
    else:
        raise ValueError(f"unknown encoding mode {mode!r}")

    a_seq = _draw(policy.p_a_us[codebook.entries[j, k, m], s_seq], rng)
    return int(j), int(k), a_seq


def _empirical_conditional_entropy(p_u_s: np.ndarray, s_seq: np.ndarray) -> float:
    """Per-symbol conditional entropy averaged over the observed states.

    Centers the typicality window; the window half-width defaults to a
    fraction of this value.
    """
    h = 0.0
    for s in s_seq:
        row = p_u_s[s]
        row = row[row > 0.0]
        h += -float(np.sum(row * np.log2(row)))
    return h / len(s_seq)


def transmit(problem: ClassicalProblem, a_seq: np.ndarray, s_seq: np.ndarray,
             rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Sample receiver and warden sequences through the channel law."""
    _, _, nb, ne = problem.w.shape
    joint = problem.w[a_seq, s_seq].reshape(len(a_seq), nb * ne)
    return np.divmod(_draw(joint, rng), ne)


def receiver_likelihood(problem: ClassicalProblem, policy: AuxiliaryPolicy,
                        receiver_csi: bool) -> np.ndarray:
    """Per-symbol decoding likelihood table.

    Without receiver CSI: L[u, b] marginalizes the state with its
    posterior given u.  With CSI: L[u, b, s] conditions on the known
    state.
    """
    w_b = problem.w_b()  # (a, s, b)
    cond = np.einsum("usa,asb->usb", policy.p_a_us, w_b)  # P(b|u,s)
    if receiver_csi:
        return np.transpose(cond, (0, 2, 1))  # (u, b, s)
    joint_su = problem.q_s[:, None] * policy.p_u_s  # (s, u)
    p_u = joint_su.sum(axis=0)
    post_s_u = np.where(p_u[None, :] > 0, joint_su / np.maximum(p_u[None, :], 1e-300),
                        1.0 / problem.q_s.shape[0])
    return np.einsum("su,usb->ub", post_s_u, cond)


def ml_decode(codebook: ClassicalCodebook, b_seq: np.ndarray,
              likelihood: np.ndarray, s_seq: np.ndarray | None = None,
              prior: np.ndarray | None = None) -> tuple[int, int, int]:
    """Maximum-likelihood triple over all codebook entries.

    ``likelihood`` is (U, B) or, with ``s_seq`` given, (U, B, S); an
    optional ``prior`` ((U,) or (S, U)) multiplies per symbol, turning the
    rule into MAP decoding.  Ties break toward the smallest (j, k, m).
    """
    b_seq = np.asarray(b_seq, dtype=np.intp)
    with np.errstate(divide="ignore"):
        ll_tab = np.log(np.maximum(likelihood, 1e-300))
        prior_tab = None if prior is None else np.log(np.maximum(prior, 1e-300))
    entries = codebook.entries
    ll = np.zeros(codebook.sizes)
    for t in range(codebook.n):
        u_t = entries[..., t]
        if s_seq is None:
            ll += ll_tab[u_t, b_seq[t]]
            if prior_tab is not None:
                ll += prior_tab[u_t]
        else:
            ll += ll_tab[u_t, b_seq[t], s_seq[t]]
            if prior_tab is not None:
                ll += prior_tab[s_seq[t], u_t]
    flat = int(np.argmax(ll))  # first maximum wins
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
    channel noise; encoding failures count as errors.
    """
    rng = np.random.default_rng(seed)
    like = receiver_likelihood(problem, policy, receiver_csi)
    prior = policy.p_u_s if receiver_csi else p_u
    errors = 0
    enc_failures = 0
    for _ in range(trials):
        cb = sample_classical_codebook(p_u, sizes, n, rng, cfg)
        s_seq = rng.choice(problem.q_s.shape[0], size=n, p=problem.q_s)
        m = int(rng.integers(sizes[2]))
        try:
            j, k, a_seq = gp_encode(cb, m, s_seq, policy, p_u, rng, mode)
        except EncodingFailure:
            enc_failures += 1
            errors += 1
            continue
        b_seq, _ = transmit(problem, a_seq, s_seq, rng)
        _, k_hat, m_hat = ml_decode(cb, b_seq, like,
                                    s_seq if receiver_csi else None, prior)
        if (k_hat, m_hat) != (k, m):
            errors += 1
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
                              p_u: np.ndarray, mode: str = "likelihood",
                              cfg: Numerics = DEFAULT) -> dict:
    """Exact induced warden distribution over E^n and its TV from q0^n.

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
    if mode != "likelihood":
        raise ValueError("exact warden distribution is defined for likelihood encoding")

    w_e_us = np.einsum("usa,ase->use", policy.p_a_us, problem.w_e())  # P(e|u,s)
    nj, nk, nm = codebook.sizes
    chunk = max(1, cfg.warden_cap // ne ** n)
    p_hat = np.zeros(ne ** n)
    for s_tuple in product(range(ns), repeat=n):
        s_seq = np.asarray(s_tuple, dtype=np.intp)
        q_seq = float(np.prod(problem.q_s[s_seq]))
        if q_seq == 0.0:
            continue
        for m in range(nm):
            w = _bin_weights_likelihood(codebook, m, s_seq, policy.p_u_s, p_u)
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
                                  alpha_grid=None,
                                  cfg: Numerics = DEFAULT) -> dict:
    """Closed-form bound on the expected codebook-to-product divergence.

    Classical specialization of the one-shot resolvability bound applied
    to the n-fold product: the divergence term is additive and the
    distinct-eigenvalue count is taken over the product distribution.
    """
    if alpha_grid is None:
        alpha_grid = np.linspace(0.05, 0.45, 9)
    p_u = np.asarray(p_u, dtype=np.float64)
    p_e_u = np.asarray(p_e_u, dtype=np.float64)
    p_e = p_u @ p_e_u
    v = tensor_power_eigencount(np.diag(p_e).astype(complex), n, cfg=cfg)
    best = math.inf
    best_alpha = None
    for alpha in alpha_grid:
        mass = 0.0
        for pu, row in zip(p_u, p_e_u):
            mask = row > 0.0
            mass += pu * float(np.sum(row[mask] ** (1 + alpha)
                                      * p_e[mask] ** (-alpha)))
        d_ue = math.log2(mass) / alpha
        val = (v ** alpha / (alpha * math.log(2.0))) \
            * 2.0 ** (alpha * (-n * rate + n * d_ue))
        if val < best:
            best, best_alpha = val, float(alpha)
    return {"bound": best, "alpha": best_alpha, "eigencount": v}


def _codebook_divergence(u_matrix: np.ndarray, p_e_u: np.ndarray,
                         q_n: np.ndarray) -> float:
    """D(P_hat || q^n) for one codebook given as a (size, n) symbol matrix."""
    p_hat = _product_rows(p_e_u[u_matrix]).mean(axis=0)
    mask = p_hat > 0.0
    return float(np.sum(p_hat[mask] * np.log2(p_hat[mask] / q_n[mask])))


def resolvability_oracle(p_u: np.ndarray, p_e_u: np.ndarray, rate: float,
                         n: int, mode: str = "mc", trials: int = 1000,
                         seed: int = 0, cfg: Numerics = DEFAULT) -> dict:
    """Expected divergence of a random codebook's output from the product.

    "exact" enumerates every codebook realization (capped); "mc" samples
    codebooks and reports the mean with its standard error, alongside the
    closed-form bound.  The codebook size and |E|^n are checked against
    ``cfg.codebook_cap`` and ``cfg.warden_cap`` before anything is built.
    """
    p_u = np.asarray(p_u, dtype=np.float64)
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
    rng = np.random.default_rng(seed)
    vals = []
    for _ in range(trials):
        u_matrix = rng.choice(nu, size=(size, n), p=p_u / p_u.sum())
        vals.append(_codebook_divergence(u_matrix, p_e_u, q_n))
    mean = math.fsum(vals) / trials
    var = math.fsum((v - mean) ** 2 for v in vals) / (trials - 1)
    out.update({"estimate": mean, "std_error": math.sqrt(var / trials),
                "mode": "mc", "trials": trials})
    return out
