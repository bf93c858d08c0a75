"""Exact small-dimension simulation of the one-shot coding scheme.

For a sampled codebook the decoder is the square-root normalization of
the pinched projector blocks, the idealized decoding error and the
encoder mismatch penalty are computed exactly, and covertness distances
come out of the block-diagonal structure over the classical indices.
Monte Carlo over codebooks then verifies the closed-form bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT, Numerics
from .divergences import fidelity, trace_distance
from .errors import CapExceeded, DimMismatch
from .linalg import dagger, eigvals_hermitian, mat_fn, trace_norm
from .oneshot import InducedStates, ProtocolRates, induced_states, verification_bounds
from .pinching import decoder_projector_blocks
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
    p = np.asarray(p_u, dtype=np.float64)
    entries = rng.choice(len(p), size=sizes, p=p / p.sum())
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


def build_decoder(codebook: Codebook, cq_ub: CQState, rates: ProtocolRates,
                  threshold_exponent: float | None = None,
                  validate: bool = True, cfg: Numerics = DEFAULT,
                  _blocks: list[np.ndarray] | None = None) -> DecoderPOVM:
    """Square-root normalization of the per-codeword projector blocks.

    The test operator for a codeword is the corresponding block of the
    decoding projector at threshold exponent R_J + R_K + R (overridable
    for diagnostics).
    """
    t = rates.total if threshold_exponent is None else threshold_exponent
    blocks = _blocks if _blocks is not None else decoder_projector_blocks(cq_ub, t, cfg=cfg)
    d = cq_ub.quantum_dim

    labels, counts = np.unique(codebook.entries, return_counts=True)
    s_op = np.zeros((d, d), dtype=np.complex128)
    for lab, cnt in zip(labels, counts):
        s_op += cnt * blocks[int(lab)]
    s_inv_sqrt = mat_fn(s_op, lambda x: x ** -0.5, cfg=cfg)

    elements = {int(lab): s_inv_sqrt @ blocks[int(lab)] @ s_inv_sqrt for lab in labels}
    total = np.zeros((d, d), dtype=np.complex128)
    for lab, cnt in zip(labels, counts):
        total += cnt * elements[int(lab)]
    fail = np.eye(d, dtype=np.complex128) - total
    fail = 0.5 * (fail + dagger(fail))

    if validate:
        dev = float(np.max(np.abs(total + fail - np.eye(d))))
        if dev > cfg.povm_tol:
            raise DimMismatch(f"POVM completeness violated by {dev:.2e}")
        for lab, el in elements.items():
            if eigvals_hermitian(el, cfg)[0] < -1e-9:
                raise DimMismatch(f"POVM element for label {lab} is not PSD")
        if eigvals_hermitian(fail, cfg)[0] < -1e-9:
            raise DimMismatch("POVM fail element is not PSD")
    return DecoderPOVM(codebook, elements, fail)


def ideal_error_prob(codebook: Codebook, povm: DecoderPOVM,
                     b_conditionals: list[np.ndarray],
                     match_mode: str = "message_key") -> float:
    """Exact decoding-error probability under the idealized transmission.

    The transmitted triple (j, k, m) is uniform, the receiver sees the
    channel output for codeword u(j, k, m), and an error means the fired
    element's indices miss the transmitted ones under ``match_mode``
    ("message_key": key and message must match; "triple": all three).
    """
    if match_mode not in ("message_key", "triple"):
        raise ValueError(f"unknown match_mode {match_mode!r}")
    nj, nk, nm = codebook.sizes
    succ = 0.0
    for k in range(nk):
        for m in range(nm):
            if match_mode == "message_key":
                w = np.zeros_like(povm.fail)
                for jp in range(nj):
                    w += povm.element(jp, k, m)
            for j in range(nj):
                op = w if match_mode == "message_key" else povm.element(j, k, m)
                rho = b_conditionals[int(codebook.entries[j, k, m])]
                succ += float(np.real(np.trace(op @ rho)))
    err = 1.0 - succ / codebook.num_entries
    return min(1.0, max(0.0, err))


def _mean_state(mats: list[np.ndarray]) -> np.ndarray:
    return sum(mats) / len(mats)


def uhlmann_penalty(codebook: Codebook, m: int, rho_s: DensityMatrix,
                    s_conditionals: list[np.ndarray],
                    cfg: Numerics = DEFAULT) -> float:
    """Squared purified distance of the message-m sub-codebook S-average.

    This is the exact penalty that the encoder's state-merging isometry
    pays; the isometry itself is never constructed.
    """
    nj, nk, _ = codebook.sizes
    tau = _mean_state([s_conditionals[int(codebook.entries[j, k, m])]
                       for j in range(nj) for k in range(nk)])
    f = fidelity(DensityMatrix(tau, validate=False), rho_s, cfg)
    return min(1.0, max(0.0, 1.0 - f * f))


def _warden_blocks(codebook: Codebook,
                   e_conditionals) -> tuple[np.ndarray, np.ndarray]:
    """Key blocks ``(nk, d, d)`` and message-key blocks ``(nk*nm, d, d)`` of
    the induced warden state.

    A key block averages the codeword outputs over (j, m), a message-key
    block over j; both sum in the j-major order of the codebook.
    """
    nj, nk, nm = codebook.sizes
    outs = np.asarray(e_conditionals)[codebook.entries]  # (nj, nk, nm, d, d)
    d = outs.shape[-1]
    key = outs.swapaxes(0, 1).reshape(nk, nj * nm, d, d).sum(axis=1) / (nj * nm)
    message_key = outs.sum(axis=0).reshape(nk * nm, d, d) / nj
    return key, message_key


def _mode_blocks(codebook: Codebook, e_conditionals, mode: str) -> np.ndarray:
    if mode not in ("cc_csk", "csc_csk"):
        raise ValueError(f"unknown mode {mode!r}")
    key, message_key = _warden_blocks(codebook, e_conditionals)
    return key if mode == "cc_csk" else message_key


def _p2(fids: np.ndarray) -> float:
    """Squared purified distance from the blockwise fidelities, by the
    direct-sum property of fidelity over the classical blocks."""
    f = float(np.mean(fids))
    return min(1.0, max(0.0, 1.0 - f * f))


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
    return _p2(fidelity(_mode_blocks(codebook, e_conditionals, mode), target, cfg))


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

    def to_dict(self, include_trials: bool = True) -> dict:
        out = {
            "trials": self.trials,
            "rates": {"R": self.rates.R, "R_K": self.rates.R_K,
                      "R_J": self.rates.R_J, "alpha": self.rates.alpha},
            "match_mode": self.match_mode,
            "means": dict(self.means),
            "std_errors": dict(self.std_errors),
            "bounds": dict(self.bounds),
            "verdicts": dict(self.verdicts),
            "flags": dict(self.flags),
        }
        if include_trials:
            out["per_trial"] = {k: list(v) for k, v in self.per_trial.items()}
        return out


def _mean_se(xs: list[float]) -> tuple[float, float]:
    n = len(xs)
    mean = math.fsum(xs) / n
    if n < 2:
        return mean, 0.0
    var = math.fsum((x - mean) ** 2 for x in xs) / (n - 1)
    return mean, math.sqrt(var / n)


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
    """
    if trials < 30:
        raise ValueError(f"trials must be >= 30, got {trials}")
    st: InducedStates = induced_states(ensemble, instance.channel, cfg)
    nj, nk, nm = rates.sizes()
    effective = ProtocolRates(R=math.log2(nm), R_K=math.log2(nk),
                              R_J=math.log2(nj), alpha=rates.alpha)
    bounds = verification_bounds(st, effective)
    rho0 = innocent_output(instance, cfg)
    covert_applicable = trace_distance(st.rho_e, rho0, cfg) <= cfg.covert_tol

    b_conds = [c.matrix for c in st.cq_ub.conditionals]
    e_stack = np.stack([c.matrix for c in st.cq_ue.conditionals])
    # Fidelity targets: the induced warden marginal, then the innocent output.
    targets = np.stack([st.rho_e.matrix, rho0.matrix])[:, None]
    s_conds = [c.matrix for c in st.cq_us.conditionals]
    blocks = decoder_projector_blocks(st.cq_ub, effective.total, st.rho_b, cfg)

    names = ["ideal_error", "penalty_p2", "split_lhs", "key_p2", "message_key_p2",
             "key_trace", "message_key_trace"]
    samples: dict[str, list[float]] = {n: [] for n in names}
    pair_ok = True

    for child in np.random.SeedSequence(seed).spawn(trials):
        rng = np.random.default_rng(child)
        cb = sample_codebook(ensemble.probs, rates, rng, cfg)
        povm = build_decoder(cb, st.cq_ub, rates, cfg=cfg, _blocks=blocks)
        err = ideal_error_prob(cb, povm, b_conds, match_mode)
        pen = uhlmann_penalty(cb, 0, st.rho_s, s_conds, cfg)
        samples["ideal_error"].append(err)
        samples["penalty_p2"].append(pen)
        samples["split_lhs"].append(2.0 * err + 2.0 * pen)
        key, message_key = _warden_blocks(cb, e_stack)
        nk_blocks = len(key)
        warden = np.concatenate([key, message_key])
        fids = fidelity(warden, targets, cfg)  # (2, blocks)
        dists = trace_norm(warden - rho0.matrix, cfg)
        samples["key_p2"].append(_p2(fids[0, :nk_blocks]))
        samples["message_key_p2"].append(_p2(fids[0, nk_blocks:]))
        d_key = float(np.mean(dists[:nk_blocks]))
        d_mk = float(np.mean(dists[nk_blocks:]))
        samples["key_trace"].append(d_key)
        samples["message_key_trace"].append(d_mk)
        # Trace distance never exceeds twice the purified distance.
        p2_key0 = _p2(fids[1, :nk_blocks])
        p2_mk0 = _p2(fids[1, nk_blocks:])
        if (d_key > 2.0 * math.sqrt(p2_key0) + 1e-9
                or d_mk > 2.0 * math.sqrt(p2_mk0) + 1e-9):
            pair_ok = False

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
        "covert_target_matched": bool(covert_applicable),
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
