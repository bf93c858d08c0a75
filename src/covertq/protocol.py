"""Exact small-dimension simulation of the one-shot coding scheme.

For a sampled codebook the decoder is the square-root normalization of
the pinched projector blocks, the idealized decoding error and the
encoder mismatch penalty are computed exactly, and covertness distances
come out of the block-diagonal structure over the classical indices.
Monte Carlo over codebooks then verifies the closed-form bounds; the
per-codebook functions are the one-codebook case of the stacked
evaluation that the Monte Carlo runs over many codebooks at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT, Numerics
from .divergences import fidelity
from .errors import CapExceeded, DimMismatch
from .linalg import dagger, eigvals_hermitian, mat_fn, trace_norm
from .oneshot import InducedStates, ProtocolRates, induced_states, verification_bounds
from .pinching import decoder_projector_blocks
from .sampling import _codeword_law, _draw, _mean_se
from .states import CQState, DensityMatrix, ProblemInstance, innocent_output

__all__ = [
    "Codebook",
    "DecoderPOVM",
    "SimulationReport",
    "sample_codebook",
    "build_decoder",
    "ideal_error_prob",
    "uhlmann_penalty",
    "covert_distance",
    "covert_p2",
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
    seed: object = None

    @property
    def num_entries(self) -> int:
        return int(np.prod(self.sizes))


def sample_codebook(p_u: np.ndarray, rates: ProtocolRates, seed,
                    cfg: Numerics = DEFAULT) -> Codebook:
    """Draw a codebook iid from p_U with floor(2^rate) entries per index."""
    sizes = rates.sizes()
    if int(np.prod(sizes)) > cfg.codebook_cap:
        raise CapExceeded(
            f"codebook with {np.prod(sizes)} entries exceeds cap {cfg.codebook_cap}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    entries = _draw(_codeword_law(p_u), rng, sizes)
    return Codebook(entries, sizes, seed=None if isinstance(seed, np.random.Generator) else seed)


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
    s_inv_sqrt = mat_fn(s_op, lambda x: x ** -0.5, cfg=cfg)[pt]
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
                  threshold_exponent: float | None = None, cfg: Numerics = DEFAULT,
                  _blocks: np.ndarray | None = None) -> DecoderPOVM:
    """Square-root normalization of the per-codeword projector blocks.

    The test operator for a codeword is the corresponding block of the
    decoding projector at threshold exponent R_J + R_K + R (overridable
    for diagnostics).
    """
    t = rates.total if threshold_exponent is None else threshold_exponent
    blocks = _blocks if _blocks is not None else decoder_projector_blocks(cq_ub, t, cfg=cfg)
    labels, elements, fail = _srm(codebook.entries[None], blocks, cfg)
    return DecoderPOVM(codebook, {int(lab): el for lab, el in zip(labels, elements)}, fail[0])


def _ideal_errors(ops: np.ndarray, outputs: np.ndarray, match_mode: str) -> np.ndarray:
    """Idealized decoding errors of a stack of codebooks.

    ``ops`` and ``outputs`` hold, per codebook entry ``(T, nj, nk, nm)``,
    the entry's POVM element and the receiver's state for its codeword.
    """
    if match_mode not in ("message_key", "triple"):
        raise ValueError(f"unknown match_mode {match_mode!r}")
    if match_mode == "message_key":  # any j fires for the right (k, m)
        ops = ops.sum(axis=1, keepdims=True)
    succ = np.sum((ops * outputs.swapaxes(-1, -2)).real, axis=(1, 2, 3, 4, 5))
    return np.clip(1.0 - succ / np.prod(outputs.shape[1:4]), 0.0, 1.0)


def ideal_error_prob(codebook: Codebook, povm: DecoderPOVM,
                     b_conditionals: list[np.ndarray],
                     match_mode: str = "message_key") -> float:
    """Exact decoding-error probability under the idealized transmission.

    The transmitted triple (j, k, m) is uniform, the receiver sees the
    channel output for codeword u(j, k, m), and an error means the fired
    element's indices miss the transmitted ones under ``match_mode``
    ("message_key": key and message must match; "triple": all three).
    """
    entries = codebook.entries
    ops = np.stack([povm.elements_by_label[int(u)] for u in entries.flat])
    ops = ops.reshape(entries.shape + ops.shape[-2:])
    outputs = np.asarray(b_conditionals)[entries]
    return float(_ideal_errors(ops[None], outputs[None], match_mode)[0])


def _penalties(entries: np.ndarray, s_conditionals: np.ndarray, m: int,
               rho_s: DensityMatrix, cfg: Numerics) -> np.ndarray:
    """Encoder penalties of a stack of codebooks ``(T, nj, nk, nm)``; the
    S-average sums in the j-major order of the codebook."""
    tau = s_conditionals[entries[..., m]]
    trials, nj, nk, d = tau.shape[:3] + tau.shape[-1:]
    tau = tau.reshape(trials, nj * nk, d, d).sum(axis=1) / (nj * nk)
    f = fidelity(tau, rho_s, cfg)
    return np.clip(1.0 - f * f, 0.0, 1.0)


def uhlmann_penalty(codebook: Codebook, m: int, rho_s: DensityMatrix,
                    s_conditionals: list[np.ndarray],
                    cfg: Numerics = DEFAULT) -> float:
    """Squared purified distance of the message-m sub-codebook S-average.

    This is the exact penalty that the encoder's state-merging isometry
    pays; the isometry itself is never constructed.
    """
    return float(_penalties(codebook.entries[None], np.asarray(s_conditionals), m,
                            rho_s, cfg)[0])


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


def _mode_blocks(codebook: Codebook, e_conditionals, mode: str) -> np.ndarray:
    if mode not in ("cc_csk", "csc_csk"):
        raise ValueError(f"unknown mode {mode!r}")
    key, message_key = _warden_blocks(codebook.entries[None], e_conditionals)
    return (key if mode == "cc_csk" else message_key)[0]


def _p2(fids: np.ndarray) -> np.ndarray:
    """Squared purified distance from the blockwise fidelities (last axis),
    by the direct-sum property of fidelity over the classical blocks."""
    f = np.mean(fids, axis=-1)
    return np.clip(1.0 - f * f, 0.0, 1.0)


def covert_distance(codebook: Codebook, e_conditionals: list[np.ndarray],
                    target: DensityMatrix, mode: str = "cc_csk",
                    cfg: Numerics = DEFAULT) -> float:
    """Exact trace distance between the induced warden state and the target.

    Both induced and target states are block diagonal over the classical
    indices (key only for "cc_csk", message and key for "csc_csk"), so the
    distance is the average of blockwise trace norms.
    """
    blocks = _mode_blocks(codebook, e_conditionals, mode)
    return float(np.mean(trace_norm(blocks - target.matrix, cfg)))


def covert_p2(codebook: Codebook, e_conditionals: list[np.ndarray],
              target: DensityMatrix, mode: str = "cc_csk",
              cfg: Numerics = DEFAULT) -> float:
    """Squared purified distance of the induced warden state to the target.

    Uses the direct-sum property of fidelity over the classical blocks.
    """
    return float(_p2(fidelity(_mode_blocks(codebook, e_conditionals, mode), target, cfg)))


@dataclass(frozen=True)
class SimulationReport:
    """Monte Carlo means, standard errors, bound values, and verdicts."""

    trials: int
    rates: ProtocolRates
    match_mode: str
    means: dict[str, float]
    std_errors: dict[str, float]
    bounds: dict[str, float]
    verdicts: dict[str, bool]
    flags: dict[str, bool]
    per_trial: dict[str, list[float]] = field(repr=False, default_factory=dict)

    @property
    def all_pass(self) -> bool:
        return all(self.verdicts.values())


def monte_carlo_verify(ensemble: CQState, instance: ProblemInstance,
                       rates: ProtocolRates, trials: int, seed: int,
                       match_mode: str = "message_key",
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
    in chunks of at most ``cfg.codebook_cap`` codebook entries.
    """
    if trials < 30:
        raise ValueError(f"trials must be >= 30, got {trials}")
    st: InducedStates = induced_states(ensemble, instance.channel, cfg)
    nj, nk, nm = rates.sizes()
    effective = ProtocolRates(R=math.log2(nm), R_K=math.log2(nk),
                              R_J=math.log2(nj), alpha=rates.alpha)
    bounds = verification_bounds(st, effective)
    rho0 = innocent_output(instance, cfg)
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
        err = _ideal_errors(ops, b_stack[entries], match_mode)
        pen = _penalties(entries, s_stack, 0, st.rho_s, cfg)
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
    # chunks that together hold at most codebook_cap entries.
    children = np.random.SeedSequence(seed).spawn(trials)
    chunk = max(1, cfg.codebook_cap // (nj * nk * nm))
    parts = []
    for start in range(0, trials, chunk):
        entries = np.stack([sample_codebook(ensemble.probs, rates,
                                            np.random.default_rng(child), cfg).entries
                            for child in children[start:start + chunk]])
        parts.append(evaluate(entries))
    names = ["ideal_error", "penalty_p2", "split_lhs", "key_p2", "message_key_p2",
             "key_trace", "message_key_trace"]
    samples = {n: np.concatenate([p[n] for p in parts]).tolist() for n in names}
    pair_ok = bool(all(p["paired"].all() for p in parts))

    means, ses = {}, {}
    for n in names:
        means[n], ses[n] = _mean_se(samples[n])

    def ok(metric: str, bound: str) -> bool:
        return means[metric] + 3.0 * ses[metric] <= bounds[bound] + 1e-12

    verdicts = {
        "error_split": ok("split_lhs", "error_split"),
        "key_p2": ok("key_p2", "key_p2"),
        "message_key_p2": ok("message_key_p2", "message_key_p2"),
        "trace_pairing": pair_ok,
    }
    if covert_applicable:
        verdicts["key_trace"] = ok("key_trace", "key_trace")
        verdicts["message_key_trace"] = ok("message_key_trace", "message_key_trace")

    flags = {
        "covert_target_matched": covert_applicable,
        "error_bound_vacuous": bounds["error_split"] > 1.0,
        "key_p2_bound_vacuous": bounds["key_p2"] > 1.0,
        "message_key_p2_bound_vacuous": bounds["message_key_p2"] > 1.0,
        "key_trace_bound_vacuous": bounds["key_trace"] > 2.0,
    }
    return SimulationReport(
        trials=trials, rates=rates, match_mode=match_mode,
        means=means, std_errors=ses, bounds=bounds, verdicts=verdicts,
        flags=flags, per_trial=samples if keep_trials else {},
    )
