"""Density matrices, classical-quantum ensembles, Kraus channels, the
induced states of the coding problem, and the classical problem containers.

Tensor factors carry explicit names ("A", "S", "Sbar", "B", "E", ...) so
partial traces are requested by name instead of positional index; the
problem setup reorders factors freely and positional bookkeeping is the
classic source of bugs here.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT, LAW_SLACK, Numerics
from .errors import CovertqError, DimMismatch, NotADistribution, NotPSD
from .linalg import (
    dagger,
    eigvals_gated,
    partial_trace,
    require_finite,
    require_hermitian,
    trace_norm,
)

Factor = tuple[str, int]

__all__ = [
    "DensityMatrix",
    "require_states",
    "CQState",
    "QuantumChannel",
    "ProblemInstance",
    "apply_channel",
    "induced_cq_output",
    "innocent_output",
    "marginals",
    "check_csi_consistency",
    "ClassicalProblem",
    "AuxiliaryPolicy",
    "check_policy",
]


def _as_factors(factors, dim: int) -> tuple[Factor, ...]:
    if factors is None:
        return (("X", dim),)
    out = tuple((str(n), int(d)) for n, d in factors)
    if math.prod(d for _, d in out) != dim:
        raise DimMismatch(f"factors {out} do not multiply to dimension {dim}")
    names = [n for n, _ in out]
    if len(set(names)) != len(names):
        raise DimMismatch(f"duplicate factor names in {names}")
    return out


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Validated unit-trace PSD Hermitian operator with named factors, or a
    stack ``(..., d, d)`` of them sharing one set of factors.

    Construction rejects invalid matrices instead of repairing them.
    """

    matrix: np.ndarray
    factors: tuple[Factor, ...] = field(default=None)  # type: ignore[assignment]

    def __init__(self, matrix, factors=None, *, validate: bool = True,
                 cfg: Numerics = DEFAULT):
        matrix = np.asarray(matrix, dtype=np.complex128)
        if validate:
            matrix = require_states(matrix, cfg)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "factors", _as_factors(factors, matrix.shape[-1]))

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]

    @property
    def factor_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.factors)

    def factor_dim(self, name: str) -> int:
        for n, d in self.factors:
            if n == name:
                return d
        raise DimMismatch(f"no factor named {name!r} in {self.factor_names}")

    def marginal(self, keep: str | list[str] | tuple[str, ...] | set[str]) -> "DensityMatrix":
        """Partial trace keeping only the named factors (in current order),
        of the matrix or of each in the stack."""
        keep = {keep} if isinstance(keep, str) else set(keep)
        unknown = keep - set(self.factor_names)
        if unknown:
            raise DimMismatch(f"unknown factors {sorted(unknown)}; have {self.factor_names}")
        idx = [i for i, (n, _) in enumerate(self.factors) if n in keep]
        out = partial_trace(self.matrix, [d for _, d in self.factors], idx)
        return DensityMatrix(out, [self.factors[i] for i in idx], validate=False)


def require_states(m, cfg: Numerics = DEFAULT) -> np.ndarray:
    """``m`` as complex128 after checking that it is a state, or a stack
    ``(..., d, d)`` of states: finite, Hermitian, unit trace and PSD.

    A stack takes one Hermiticity check and one eigenvalue call, on the
    Hermitian part that check returns; the error names the first failing
    matrix by its stack index.
    """
    m = np.asarray(m, dtype=np.complex128)
    h = require_hermitian(m, cfg.herm_tol, "state")

    def name(bad: np.ndarray) -> tuple[str, tuple]:
        idx = np.unravel_index(int(np.argmax(bad)), bad.shape)
        where = ",".join(str(int(i)) for i in idx)
        return (f"state {where}" if where else "state"), idx

    tr = np.trace(m, axis1=-2, axis2=-1).real
    bad = np.abs(tr - 1.0) > cfg.trace_tol
    if bad.any():
        what, idx = name(bad)
        raise DimMismatch(f"{what} trace is {float(tr[idx])}, expected 1")
    low = eigvals_gated(h)[..., 0]
    bad = ~(low >= -cfg.psd_tol)  # NaN, from a Hermitian part that overflowed, fails too
    if bad.any():
        what, idx = name(bad)
        raise NotPSD(f"{what} has eigenvalue {float(low[idx]):.3e}")
    return m


@dataclass(frozen=True, eq=False)
class CQState:
    """Classical-quantum ensemble {p(u), rho_u} over a finite label set.

    ``stack`` holds the conditionals once, as one :class:`DensityMatrix`
    stack ``(labels, d, d)``; the constructor also takes a sequence of
    single states.
    """

    labels: tuple
    probs: np.ndarray
    stack: DensityMatrix

    def __init__(self, labels, probs, conditionals, *, validate: bool = True,
                 cfg: Numerics = DEFAULT):
        labels = tuple(labels)
        probs = np.asarray(probs, dtype=np.float64)
        if not isinstance(conditionals, DensityMatrix):  # a sequence of single states
            conds = tuple(conditionals)
            dims, facs = {c.dim for c in conds}, {c.factors for c in conds}
            if len(dims) > 1:
                raise DimMismatch(f"conditionals have mixed dimensions {sorted(dims)}")
            if len(facs) != 1:
                raise DimMismatch("conditionals have mixed factor structures" if facs
                                  else "an ensemble needs at least one conditional")
            conditionals = DensityMatrix(np.stack([c.matrix for c in conds]), facs.pop(),
                                         validate=False)
        if validate:
            if not probs.shape == conditionals.matrix.shape[:-2] == (len(labels),):
                raise DimMismatch("labels, probs, conditionals must have equal length")
            require_finite(probs, "ensemble probabilities", NotADistribution)
            if np.any(probs < -cfg.prob_tol):
                raise NotPSD(f"negative probability {probs.min()}")
            if abs(float(probs.sum()) - 1.0) > cfg.prob_tol:
                raise DimMismatch(f"probabilities sum to {probs.sum()}, expected 1")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "stack", conditionals)

    @property
    def num_labels(self) -> int:
        return len(self.labels)

    @property
    def quantum_dim(self) -> int:
        return self.stack.dim

    @property
    def matrices(self) -> np.ndarray:
        """The conditionals as one array ``(labels, d, d)``."""
        return self.stack.matrix

    @property
    def conditionals(self) -> tuple[DensityMatrix, ...]:
        """One single state per label, each a view into the stack."""
        return tuple(DensityMatrix(m, self.stack.factors, validate=False)
                     for m in self.matrices)

    def average(self) -> DensityMatrix:
        """Ensemble average sum_u p(u) rho_u."""
        acc = np.zeros((self.quantum_dim, self.quantum_dim), dtype=np.complex128)
        for p, m in zip(self.probs, self.matrices):
            if p > 0.0:
                acc += p * m
        return DensityMatrix(acc, self.stack.factors, validate=False)

    def label_state(self) -> DensityMatrix:
        """diag(p_U) on the classical register."""
        return DensityMatrix(np.diag(self.probs.astype(np.complex128)),
                             (("U", self.num_labels),), validate=False)

    def marginal_cq(self, keep) -> "CQState":
        """Same ensemble with each conditional reduced to the named factors."""
        return CQState(self.labels, self.probs, self.stack.marginal(keep), validate=False)


@dataclass(frozen=True, eq=False)
class QuantumChannel:
    """Completely positive trace-preserving map in Kraus form; ``kraus`` is
    one stack ``(operators, d_out, d_in)``, or ``(operators, ..., d_out,
    d_in)`` for a stack of channels sharing one set of factors."""

    kraus: np.ndarray
    in_factors: tuple[Factor, ...]
    out_factors: tuple[Factor, ...]

    def __init__(self, kraus, in_factors=None, out_factors=None, *,
                 validate: bool = True, cfg: Numerics = DEFAULT):
        if not len(kraus):
            raise DimMismatch("channel requires at least one Kraus operator")
        try:
            kraus = np.asarray(kraus, dtype=np.complex128)
            _, d_out, d_in = kraus.shape[-3:]
        except ValueError as exc:  # ragged, or not a stack of matrices
            raise DimMismatch("Kraus operators have inconsistent shapes") from exc
        if validate:
            require_finite(kraus, "Kraus operators", NotPSD)
            with np.errstate(over="ignore", invalid="ignore"):  # entries near the float range
                dev = float(np.max(np.abs(np.sum(dagger(kraus) @ kraus, axis=0) - np.eye(d_in))))
            if not dev <= cfg.herm_tol:  # NaN fails too
                raise NotPSD(f"channel is not trace preserving: |sum K^dag K - I| = {dev:.3e}")
        object.__setattr__(self, "kraus", kraus)
        object.__setattr__(self, "in_factors", _as_factors(in_factors, d_in))
        object.__setattr__(self, "out_factors", _as_factors(out_factors, d_out))

    @property
    def dim_in(self) -> int:
        return self.kraus.shape[-1]

    @property
    def dim_out(self) -> int:
        return self.kraus.shape[-2]

    def apply_matrix(self, m: np.ndarray) -> np.ndarray:
        """sum_k K_k m K_k^dag, of a matrix or of each in a stack ``(..., d,
        d)``; a stack of channels maps each matrix with the channel at the
        same trailing stack index."""
        k = self.kraus
        k = k.reshape(k.shape[:1] + (1,) * (np.ndim(m) + 1 - k.ndim) + k.shape[1:])
        return np.sum(k @ m @ dagger(k), axis=0)


def apply_channel(ch: QuantumChannel, rho: DensityMatrix, *,
                  validate: bool = True, cfg: Numerics = DEFAULT) -> DensityMatrix:
    """Channel output state N(rho), or one per state of a stack."""
    if rho.dim != ch.dim_in:
        raise DimMismatch(f"state dim {rho.dim} != channel input dim {ch.dim_in}")
    return DensityMatrix(ch.apply_matrix(rho.matrix), ch.out_factors,
                         validate=validate, cfg=cfg)


def induced_cq_output(ch: QuantumChannel, cq: CQState) -> CQState:
    """Push every conditional of a cq ensemble through the channel."""
    return CQState(cq.labels, cq.probs, apply_channel(ch, cq.stack, validate=False),
                   validate=False)


def marginals(cq: CQState, keep) -> CQState | DensityMatrix:
    """Reduce a cq ensemble to the named factors.

    ``keep`` containing "U" plus quantum names yields the reduced cq
    ensemble; {"U"} alone yields diag(p_U); quantum names alone yield the
    averaged quantum marginal.
    """
    keep = {keep} if isinstance(keep, str) else set(keep)
    if keep == {"U"}:
        return cq.label_state()
    reduced = cq.marginal_cq(keep - {"U"})
    return reduced if "U" in keep else reduced.average()


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """Channel, innocent input, and shared channel-state description.

    ``csi`` is either the bipartite state on (Sbar, S) or directly its
    S-marginal; only the S-marginal enters any computation here, the
    purifying half is absorbed into the encoder penalty term.
    """

    channel: QuantumChannel
    innocent: DensityMatrix
    csi: DensityMatrix

    def __init__(self, channel: QuantumChannel, innocent: DensityMatrix,
                 csi: DensityMatrix):
        names = channel.in_factors
        if len(names) != 2:
            raise DimMismatch("channel input must carry two factors (A, S)")
        if len(channel.out_factors) != 2:
            raise DimMismatch("channel output must carry two factors (B, E)")
        d_a = names[0][1]
        d_s = names[1][1]
        if innocent.dim != d_a:
            raise DimMismatch(f"innocent state dim {innocent.dim} != A dim {d_a}")
        if "S" in csi.factor_names:
            if csi.factor_dim("S") != d_s:
                raise DimMismatch("csi S factor dim does not match channel")
        elif csi.dim != d_s:
            raise DimMismatch(f"csi dim {csi.dim} != S dim {d_s}")
        object.__setattr__(self, "channel", channel)
        object.__setattr__(self, "innocent", innocent)
        object.__setattr__(self, "csi", csi)

    def csi_marginal(self) -> DensityMatrix:
        """The S-marginal of the shared channel state."""
        if set(self.csi.factor_names) >= {"S"} and len(self.csi.factors) > 1:
            return self.csi.marginal("S")
        return self.csi


def innocent_output(inst: ProblemInstance) -> DensityMatrix:
    """Warden state in the no-communication mode.

    The channel is fed the innocent input tensored with the S-marginal of
    the shared state, and the legitimate receiver's factor is traced out.
    """
    ch = inst.channel
    joint_in = DensityMatrix(np.kron(inst.innocent.matrix, inst.csi_marginal().matrix),
                             ch.in_factors, validate=False)
    return apply_channel(ch, joint_in, validate=False).marginal(ch.out_factors[1][0])


def check_csi_consistency(cq_uas: CQState, inst: ProblemInstance,
                          cfg: Numerics = DEFAULT) -> tuple[bool, float]:
    """Compare the ensemble's S-marginal with the shared-state S-marginal.

    Returns ``(ok, deviation)`` where deviation is the trace distance
    between the two marginals, and ``ok`` whether it is within
    ``cfg.csi_tol``.
    """
    s_ens = marginals(cq_uas, {"S"})
    s_csi = inst.csi_marginal()
    if s_ens.dim != s_csi.dim:
        raise DimMismatch("S marginals have different dimensions")
    dev = trace_norm(s_ens.matrix - s_csi.matrix, cfg)
    return (dev <= cfg.csi_tol, float(dev))


# ---------------------------------------------------------------------------
# Classical problem containers

@contextmanager
def _about(name: str):
    """Tag the library errors raised in the block with the input ``name``."""
    try:
        yield
    except CovertqError as exc:
        exc.field = name
        raise


@dataclass(frozen=True, eq=False)
class ClassicalProblem:
    """Finite state-dependent channel with an innocent input symbol.

    ``w[a, s, b, e]`` is the channel law P(b, e | a, s); ``q_s`` the state
    distribution; ``x0`` the innocent input.  The no-communication warden
    distribution q0 is induced, never supplied.
    """

    q_s: np.ndarray
    w: np.ndarray
    x0: int

    def __init__(self, q_s, w, x0: int, cfg: Numerics = DEFAULT):
        q_s = np.asarray(q_s, dtype=np.float64)
        w = np.asarray(w, dtype=np.float64)
        with _about("channel"):
            if w.ndim != 4:
                raise NotADistribution("channel table must have axes (A, S, B, E)")
            require_finite(w, "channel table", NotADistribution)
            rows = w.sum(axis=(2, 3))
            if np.any(w < -cfg.prob_tol) or np.max(np.abs(rows - 1.0)) > LAW_SLACK:
                raise NotADistribution("channel rows must sum to one over (B, E)")
        with _about("q_s"):
            if q_s.ndim != 1 or q_s.shape[0] != w.shape[1]:
                raise NotADistribution("state distribution length must match channel S axis")
            require_finite(q_s, "state distribution", NotADistribution)
            total, slack = float(q_s.sum()), min(cfg.prob_tol, LAW_SLACK)
            if np.any(q_s < -cfg.prob_tol) or abs(total - 1.0) > slack:
                raise NotADistribution(f"q_s is not a distribution: it needs nonnegative "
                                       f"entries summing to one (within {slack:g}), "
                                       f"got sum {total!r}")
        with _about("x0"):
            if not 0 <= int(x0) < w.shape[0]:
                raise DimMismatch(f"innocent symbol {x0} outside input alphabet")
        object.__setattr__(self, "q_s", q_s)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "x0", int(x0))

    @property
    def sizes(self) -> dict[str, int]:
        na, ns, nb, ne = self.w.shape
        return {"A": na, "S": ns, "B": nb, "E": ne}

    def w_e(self) -> np.ndarray:
        """Warden marginal channel P(e | a, s)."""
        return self.w.sum(axis=2)

    def w_b(self) -> np.ndarray:
        """Receiver marginal channel P(b | a, s)."""
        return self.w.sum(axis=3)

    def q0(self) -> np.ndarray:
        """Warden distribution induced by the innocent symbol."""
        return np.einsum("s,se->e", self.q_s, self.w_e()[self.x0])


@dataclass(frozen=True, eq=False)
class AuxiliaryPolicy:
    """Auxiliary-variable policy P(u|s), P(a|u,s).

    ``p_u_s[s, u]`` and ``p_a_us[u, s, a]``; every row is a distribution.
    """

    p_u_s: np.ndarray
    p_a_us: np.ndarray

    def __init__(self, p_u_s, p_a_us, cfg: Numerics = DEFAULT):
        p_u_s = np.asarray(p_u_s, dtype=np.float64)
        p_a_us = np.asarray(p_a_us, dtype=np.float64)
        if p_u_s.ndim != 2 or p_a_us.ndim != 3:
            raise NotADistribution("policy tables must be (S,U) and (U,S,A)")
        if p_u_s.shape[1] != p_a_us.shape[0] or p_u_s.shape[0] != p_a_us.shape[1]:
            raise DimMismatch("policy table shapes disagree on U or S")
        for t, name in ((p_u_s, "P(u|s)"), (p_a_us, "P(a|u,s)")):
            require_finite(t, name, NotADistribution)
            if np.any(t < -cfg.prob_tol):
                raise NotADistribution(f"{name} has negative entries")
            if np.max(np.abs(t.sum(axis=-1) - 1.0)) > LAW_SLACK:
                raise NotADistribution(f"{name} rows must sum to one")
        object.__setattr__(self, "p_u_s", np.maximum(p_u_s, 0.0))
        object.__setattr__(self, "p_a_us", np.maximum(p_a_us, 0.0))


def check_policy(problem: ClassicalProblem, policy: AuxiliaryPolicy) -> None:
    """Raise :class:`DimMismatch` unless the policy's S and A alphabets are
    the problem's."""
    if policy.p_a_us.shape[2] != problem.w.shape[0]:
        raise DimMismatch("policy A alphabet does not match channel")
    if policy.p_u_s.shape[0] != problem.q_s.shape[0]:
        raise DimMismatch("policy S alphabet does not match state distribution")
