"""Exact small-dimension simulation of the one-shot coding scheme.

Monte Carlo over codebooks verifies the closed-form bounds.  For each
sampled codebook the decoder is the square-root normalization of the
pinched projector blocks, the idealized decoding error and the encoder
mismatch penalty are computed exactly, and covertness distances come out
of the block-diagonal structure over the classical indices.  Every step
is evaluated for a stack of codebooks at once; :func:`build_decoder` is
the one-codebook case of the decoder build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT, Numerics, check_codebook_cap
from .divergences import fidelity
from .errors import DimMismatch, RunParameterError
from .linalg import dagger, eig_hermitian, eigvals_hermitian, spectral_fn, trace_norm
from .oneshot import InducedStates, ProtocolRates, induced_states, vacuous, verification_bounds
from .pinching import decoder_projector_blocks
from .sampling import _cdf, _codeword_law, _mean_se, _symbols, _verdict
from .states import CQState, DensityMatrix, ProblemInstance, innocent_output

__all__ = [
    "Codebook",
    "DecoderPOVM",
    "SimulationReport",
    "sample_codebook",
    "build_decoder",
    "monte_carlo_verify",
]


@dataclass(frozen=True)
class Codebook:
    """Indexed family u(j, k, m) of classical symbols.

    ``entries[j, k, m]`` holds the index of the symbol in the ensemble's
    label list.  Two-layer binning: j is local randomness, k the generated
    key, m the message.
    """

    entries: np.ndarray
    sizes: tuple[int, int, int]

    @property
    def num_entries(self) -> int:
        return int(np.prod(self.sizes))


def _codeword_cdf(p_u: np.ndarray, rates: ProtocolRates, cfg: Numerics) -> tuple:
    """Codebook sizes, checked against the cap, and the CDF of p_U."""
    sizes = rates.sizes()
    check_codebook_cap(sizes, cfg)
    return sizes, _cdf(_codeword_law(p_u))


def sample_codebook(p_u: np.ndarray, rates: ProtocolRates, seed,
                    cfg: Numerics = DEFAULT) -> Codebook:
    """Draw a codebook iid from p_U with floor(2^rate) entries per index."""
    sizes, cdf = _codeword_cdf(p_u, rates, cfg)
    return Codebook(_symbols(cdf, np.random.default_rng(seed).random(sizes)), sizes)


@dataclass(frozen=True, eq=False)
class DecoderPOVM:
    """Square-root-measurement decoder for one codebook.

    Entries that share a codeword share the same POVM element, so elements
    are stored per label; ``element(j, k, m)`` resolves through the
    codebook.  ``fail`` absorbs the complement of the support of the
    normalization operator.
    """

    codebook: Codebook
    elements_by_label: dict[int, np.ndarray]
    fail: np.ndarray

    def element(self, j: int, k: int, m: int) -> np.ndarray:
        return self.elements_by_label[int(self.codebook.entries[j, k, m])]


def _srm(entries: np.ndarray, blocks: np.ndarray,
         cfg: Numerics) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Square-root measurements of a stack of codebooks ``(T, nj, nk, nm)``.

    Returns the keys ``trial * labels + label`` of the labels present in
    the codebooks, sorted, the POVM element ``(P, d, d)`` of each key, and
    the fail elements ``(T, d, d)``.  Sums over a codebook's labels run in
    ascending label order.
    """
    trials = entries.shape[0]
    n_labels, d = blocks.shape[0], blocks.shape[-1]
    keys = np.arange(trials)[:, None] * n_labels + entries.reshape(trials, -1)
    keys, counts = np.unique(keys, return_counts=True)
    pt, pl = keys // n_labels, keys % n_labels
    weights = counts[:, None, None]

    s_op = np.zeros((trials, d, d), dtype=np.complex128)
    np.add.at(s_op, pt, weights * blocks[pl])
    s_inv_sqrt = spectral_fn(eig_hermitian(s_op, cfg), lambda w: w ** -0.5,
                             cfg.support_tol)[pt]
    elements = s_inv_sqrt @ blocks[pl] @ s_inv_sqrt
    total = np.zeros((trials, d, d), dtype=np.complex128)
    np.add.at(total, pt, weights * elements)
    eye = np.eye(d)
    fail = eye - total
    fail = 0.5 * (fail + dagger(fail))

    dev = np.max(np.abs(total + fail - eye), axis=(-2, -1))
    el_bad = eigvals_hermitian(elements, cfg)[:, 0] < -1e-9
    fail_bad = eigvals_hermitian(fail, cfg)[:, 0] < -1e-9
    bad = (dev > cfg.povm_tol) | fail_bad
    bad[pt[el_bad]] = True
    if bad.any():  # report the first failing codebook as a loop would
        t = int(np.argmax(bad))
        if dev[t] > cfg.povm_tol:
            raise DimMismatch(f"POVM completeness violated by {dev[t]:.2e}")
        if el_bad[pt == t].any():
            lab = int(pl[pt == t][np.argmax(el_bad[pt == t])])
            raise DimMismatch(f"POVM element for label {lab} is not PSD")
        raise DimMismatch("POVM fail element is not PSD")
    return keys, elements, fail


def build_decoder(codebook: Codebook, cq_ub: CQState, rates: ProtocolRates,
                  threshold_exponent: float | None = None,
                  cfg: Numerics = DEFAULT) -> DecoderPOVM:
    """Square-root normalization of the per-codeword projector blocks.

    The test operator for a codeword is the corresponding block of the
    decoding projector at threshold exponent R_J + R_K + R (overridable
    for diagnostics).
    """
    t = rates.total if threshold_exponent is None else threshold_exponent
    labels, elements, fail = _srm(codebook.entries[None],
                                  decoder_projector_blocks(cq_ub, t, cfg=cfg), cfg)
    return DecoderPOVM(codebook, {int(lab): el for lab, el in zip(labels, elements)}, fail[0])


def _ideal_errors(ops: np.ndarray, outputs: np.ndarray) -> np.ndarray:
    """Idealized decoding errors of a stack of codebooks.

    ``ops`` and ``outputs`` hold, per codebook entry ``(T, nj, nk, nm)``,
    the entry's POVM element and the receiver's state for its codeword.
    The receiver decodes (k, m): an element of any j that fires for the
    right (k, m) is a success.
    """
    ops = ops.sum(axis=1, keepdims=True)
    succ = np.sum((ops * outputs.swapaxes(-1, -2)).real, axis=(1, 2, 3, 4, 5))
    return np.clip(1.0 - succ / np.prod(outputs.shape[1:4]), 0.0, 1.0)


def _penalties(entries: np.ndarray, s_conditionals: np.ndarray,
               rho_s: DensityMatrix, cfg: Numerics) -> np.ndarray:
    """Encoder penalties of a stack of codebooks ``(T, nj, nk, nm)``: the
    squared purified distance of the message-0 sub-codebook S-average from
    ``rho_s``, which the encoder's state-merging isometry pays (the
    isometry itself is never built).  The S-average sums in the j-major
    order of the codebook."""
    tau = s_conditionals[entries[..., 0]]
    trials, nj, nk, d = tau.shape[:3] + tau.shape[-1:]
    tau = tau.reshape(trials, nj * nk, d, d).sum(axis=1) / (nj * nk)
    f = fidelity(tau, rho_s, cfg)
    return np.clip(1.0 - f * f, 0.0, 1.0)


def _warden_blocks(entries: np.ndarray,
                   e_conditionals) -> tuple[np.ndarray, np.ndarray]:
    """Key blocks ``(T, nk, d, d)`` and message-key blocks
    ``(T, nk*nm, d, d)`` of the induced warden state, for a stack of
    codebooks ``(T, nj, nk, nm)``.

    A key block averages the codeword outputs over (j, m), a message-key
    block over j; both sum in the j-major order of the codebook.
    """
    trials, nj, nk, nm = entries.shape
    outs = np.asarray(e_conditionals)[entries]  # (T, nj, nk, nm, d, d)
    d = outs.shape[-1]
    key = outs.swapaxes(1, 2).reshape(trials, nk, nj * nm, d, d).sum(axis=2) / (nj * nm)
    message_key = outs.sum(axis=1).reshape(trials, nk * nm, d, d) / nj
    return key, message_key


def _p2(fids: np.ndarray) -> np.ndarray:
    """Squared purified distance from the blockwise fidelities (last axis),
    by the direct-sum property of fidelity over the classical blocks."""
    f = np.mean(fids, axis=-1)
    return np.clip(1.0 - f * f, 0.0, 1.0)


@dataclass(frozen=True)
class SimulationReport:
    """Monte Carlo means, standard errors, bound values, and verdicts."""

    trials: int
    rates: ProtocolRates
    match_mode: str = field(default="message_key", init=False)  # the receiver decodes (k, m)
    means: dict[str, float]
    std_errors: dict[str, float]
    bounds: dict[str, float]
    verdicts: dict[str, bool]
    flags: dict[str, bool]
    per_trial: dict[str, list[float]] = field(repr=False, default_factory=dict)


def monte_carlo_verify(ensemble: CQState, instance: ProblemInstance,
                       rates: ProtocolRates, trials: int, seed: int,
                       keep_trials: bool = True,
                       cfg: Numerics = DEFAULT) -> SimulationReport:
    """Sample codebooks and check every bound at mean + 3 standard errors.

    Verifies the reliability split (twice the idealized error plus twice
    the encoder penalty), the two covertness endpoints in squared purified
    distance, and, when the induced warden marginal matches the
    no-communication state, the trace-distance covertness bounds.

    Bounds are evaluated at the effective rates log2(floor(2^rate)) of the
    code actually simulated, so the comparison is exact even when the
    nominal rates are not integers.

    Trial i samples its codebook from the i-th child of
    ``SeedSequence(seed)``; trials are evaluated together in stacked calls,
    in chunks of at most ``cfg.codebook_cap`` codebook entries, and a
    codebook drawn more than once in a chunk is evaluated once.
    """
    if trials < 30:
        raise RunParameterError(f"trials must be >= 30, got {trials}")
    st: InducedStates = induced_states(ensemble, instance.channel, cfg)
    nj, nk, nm = rates.sizes()
    effective = ProtocolRates(R=math.log2(nm), R_K=math.log2(nk),
                              R_J=math.log2(nj), alpha=rates.alpha)
    bounds = verification_bounds(st, effective)
    rho0 = innocent_output(instance)
    _, covert_applicable = st.covert_gap(rho0)

    b_stack, s_stack, e_stack = st.cq_ub.matrices, st.cq_us.matrices, st.cq_ue.matrices
    # Fidelity targets: the induced warden marginal, then the innocent output.
    targets = np.stack([st.rho_e.matrix, rho0.matrix])[:, None, None]
    blocks = decoder_projector_blocks(st.cq_ub, effective.total, st.rho_b, cfg)

    def evaluate(entries: np.ndarray) -> dict[str, np.ndarray]:
        """Every per-trial number of a stack of codebooks ``(T, nj, nk, nm)``."""
        keys, elements, _ = _srm(entries, blocks, cfg)
        trial = np.arange(len(entries))[:, None, None, None]
        ops = elements[np.searchsorted(keys, trial * len(blocks) + entries)]
        err = _ideal_errors(ops, b_stack[entries])
        pen = _penalties(entries, s_stack, st.rho_s, cfg)
        key, message_key = _warden_blocks(entries, e_stack)
        nk_blocks = key.shape[1]
        warden = np.concatenate([key, message_key], axis=1)
        fids = fidelity(warden, targets, cfg)  # (2, T, blocks)
        dists = trace_norm(warden - rho0.matrix, cfg)
        d_key = np.mean(dists[:, :nk_blocks], axis=-1)
        d_mk = np.mean(dists[:, nk_blocks:], axis=-1)
        # Trace distance never exceeds twice the purified distance.
        paired = ((d_key <= 2.0 * np.sqrt(_p2(fids[1, :, :nk_blocks])) + 1e-9)
                  & (d_mk <= 2.0 * np.sqrt(_p2(fids[1, :, nk_blocks:])) + 1e-9))
        return {"ideal_error": err, "penalty_p2": pen, "split_lhs": 2.0 * err + 2.0 * pen,
                "key_p2": _p2(fids[0, :, :nk_blocks]),
                "message_key_p2": _p2(fids[0, :, nk_blocks:]),
                "key_trace": d_key, "message_key_trace": d_mk, "paired": paired}

    # Each trial draws from its own child stream; trials are evaluated in
    # chunks that together hold at most codebook_cap entries.  A chunk spawns
    # its own children: spawning is sequential, so they are the same ones.
    # Every kernel of evaluate works one codebook at a time, so a chunk's
    # distinct codebooks are evaluated once, in first-occurrence order, and
    # each trial reads its codebook's numbers back unchanged.
    sizes, cdf = _codeword_cdf(ensemble.probs, rates, cfg)
    root = np.random.SeedSequence(seed)
    chunk = max(1, cfg.codebook_cap // (nj * nk * nm))
    parts = []
    for start in range(0, trials, chunk):
        u = np.stack([np.random.default_rng(child).random(sizes)
                      for child in root.spawn(min(chunk, trials - start))])
        entries = _symbols(cdf, u)
        rows: dict[bytes, int] = {}  # a codebook's bytes -> its row of the stack
        pick = np.array([rows.setdefault(cb.tobytes(), len(rows)) for cb in entries])
        distinct = np.frombuffer(b"".join(rows), entries.dtype).reshape(-1, *entries.shape[1:])
        parts.append({n: v[pick] for n, v in evaluate(distinct).items()})
    names = ["ideal_error", "penalty_p2", "split_lhs", "key_p2", "message_key_p2",
             "key_trace", "message_key_trace"]
    samples = {n: np.concatenate([p[n] for p in parts]) for n in names}
    pair_ok = bool(all(p["paired"].all() for p in parts))

    means, ses = {}, {}
    for n in names:
        means[n], ses[n] = _mean_se(samples[n])

    def ok(metric: str, bound: str) -> bool:
        return _verdict(means[metric], ses[metric], bounds[bound])

    verdicts = {
        "error_split": ok("split_lhs", "error_split"),
        "key_p2": ok("key_p2", "key_p2"),
        "message_key_p2": ok("message_key_p2", "message_key_p2"),
        "trace_pairing": pair_ok,
    }
    if covert_applicable:
        verdicts["key_trace"] = ok("key_trace", "key_trace")
        verdicts["message_key_trace"] = ok("message_key_trace", "message_key_trace")

    over = vacuous(bounds)
    flags = {"covert_target_matched": covert_applicable,
             "error_bound_vacuous": over["error_split"],
             **{f"{n}_bound_vacuous": over[n] for n in ("key_p2", "message_key_p2", "key_trace")}}
    return SimulationReport(
        trials=trials, rates=rates,
        means=means, std_errors=ses, bounds=bounds, verdicts=verdicts,
        flags=flags, per_trial={n: v.tolist() for n, v in samples.items()} if keep_trials else {},
    )
