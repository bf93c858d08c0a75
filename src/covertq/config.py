"""Shared numerical tolerances, size caps, the protocol rate container, and
the table of one-shot bounds that the quantum and classical paths read.

Every tolerance that appears in a contract lives here so spec files can
override them in one place (see ``specio``).  Support and grouping
tolerances are *relative* to the largest eigenvalue of the operator they
are applied to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import CapExceeded, RunParameterError


@dataclass(frozen=True)
class Numerics:
    herm_tol: float = 1e-10          # max |M - M^dag| entry allowed
    psd_tol: float = 1e-10           # eigenvalue floor for state validation
    trace_tol: float = 1e-10         # |tr - 1| allowed for states
    support_tol: float = 1e-10       # relative eigenvalue cutoff defining supports
    group_tol: float = 1e-8          # relative gap below which eigenvalues merge
    support_mass_tol: float = 1e-9   # probability mass outside a support treated as zero
    prob_tol: float = 1e-12          # distribution normalization slack
    csi_tol: float = 1e-8            # trace-distance slack for CSI consistency
    covert_tol: float = 1e-6         # trace-distance / TV slack for covertness feasibility
    povm_tol: float = 1e-8           # completeness slack for decoder POVMs
    codebook_cap: int = 4096         # max number of codebook entries
    trial_cap: int = 100000          # max Monte Carlo trials of one simulate run
    warden_cap: int = 65536          # element budget of every classical evaluation buffer
    exact_resolvability_cap: int = 10**6  # max codebook configurations enumerated exactly

    def replaced(self, **kw) -> "Numerics":
        return replace(self, **kw)


DEFAULT = Numerics()

# Slack of the sum of a probability law: channel rows, policy rows, joint
# tables and codeword laws.  ClassicalProblem holds q_s to within
# min(prob_tol, LAW_SLACK) of one, so a spec that raises prob_tol still
# yields laws within this slack, or fails as it loads.
LAW_SLACK = 1e-9


def pow2(x: float) -> float:
    """``2.0 ** x``; raises :class:`CapExceeded` when it is not a finite
    float (it overflows, or ``x`` is inf or NaN), so an absurd rate ends
    with the cap exit code instead of a traceback."""
    try:
        y = 2.0 ** x
    except OverflowError:
        y = math.inf
    if not math.isfinite(y):
        raise CapExceeded(f"2^{x:g} exceeds every cap")
    return y


def code_size(bits: float) -> int:
    """Code size floor(2^bits), at least 1."""
    return max(1, int(pow2(bits)))


def check_codebook_cap(sizes, cfg: Numerics) -> None:
    """Raise :class:`CapExceeded` when a codebook of ``sizes`` (|J|, |K|, |M|)
    holds more than ``cfg.codebook_cap`` entries."""
    entries = math.prod(sizes)
    if entries > cfg.codebook_cap:
        raise CapExceeded(f"codebook with {entries} entries exceeds cap {cfg.codebook_cap}")


@dataclass(frozen=True)
class ProtocolRates:
    """Message, key, and local-randomness rates in bits plus the Renyi knob.

    ``alpha`` must lie strictly inside (0, 1/2).  Rates are nonnegative
    reals; the simulator floors 2^rate when it needs integer code sizes.
    """

    R: float
    R_K: float
    R_J: float
    alpha: float

    def __post_init__(self):
        for name in ("R", "R_K", "R_J"):
            if getattr(self, name) < 0.0:
                raise RunParameterError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not (0.0 < self.alpha < 0.5):
            raise RunParameterError(f"alpha must lie in (0, 1/2), got {self.alpha}")

    @property
    def total(self) -> float:
        return self.R + self.R_K + self.R_J

    def sizes(self) -> tuple[int, int, int]:
        """Floor code sizes (|J|, |K|, |M|)."""
        return code_size(self.R_J), code_size(self.R_K), code_size(self.R)


LN2 = math.log(2.0)


def bound_orders(alpha: float) -> tuple[float, float, float]:
    """The orders of D(U;S), D(U;B) and D(U;E) in Lemmas 1-2 and Theorems 1, 5."""
    return 1.0 + alpha, 1.0 - alpha, 1.0 + alpha


# One row per one-shot bound (Lemmas 1-2, Theorems 1 and 5): the marginal X of
# the D(U;X) it reads at X's order from bound_orders, its vacuity limit (1 for
# a probability or squared purified distance, 2 for a trace distance, none for
# a divergence), and its value from (v_X, alpha, rates, D).
ROWS = {
    "resolvability": ("E", math.inf, lambda v, a, r, d: v ** a / (a * LN2) * pow2(a * (d - r.R))),
    "miss": ("B", 1.0, lambda v, a, r, d: v ** a * pow2(-a * d) * pow2(a * r.total)),
    "false_alarm": ("B", 1.0, lambda v, a, r, d: v ** a * pow2(-a * d)
                    * pow2((a - 1.0) * r.total)),
    "error_encoding": ("S", 1.0, lambda v, a, r, d: 2.0 * v ** a / a
                       * pow2(a * (d - (r.R_J + r.R_K)))),
    "error_decoding": ("B", 1.0, lambda v, a, r, d: 12.0 * v ** a * pow2(a * (r.total - d))),
    "key_p2": ("E", 1.0, lambda v, a, r, d: 2.0 * v ** a / a * pow2(a * (d - (r.R_J + r.R)))),
    "message_key_p2": ("E", 1.0, lambda v, a, r, d: 2.0 * v ** a / a * pow2(a * (d - r.R_J))),
    "key_trace": ("E", 2.0, lambda v, a, r, d: 2.0 * math.sqrt(2.0)
                  * (v ** (a / 2.0) / math.sqrt(a)) * pow2(a / 2.0 * (d - (r.R_J + r.R)))),
    "key_trace_loose": ("E", 2.0, lambda v, a, r, d: 2.0 * (v ** (a / 2.0) / math.sqrt(a))
                        * pow2(a / 2.0 * (d - (r.R_J + r.R)))),
    "message_key_trace": ("E", 2.0, lambda v, a, r, d: 2.0 * (v ** (a / 2.0) / math.sqrt(a))
                          * pow2(a / 2.0 * (d - r.R_J))),
}
SPLIT = ("error_encoding", "error_decoding")  # error_split, Theorem 1's bound, is their sum
THEOREM_ROWS = ("error_split", *list(ROWS)[3:])  # every row but those of Lemmas 1 and 2


def vacuous(bounds: dict[str, float]) -> dict[str, bool]:
    """Whether each bound exceeds its row's limit (error_split: the error rows')."""
    return {n: x > ROWS[SPLIT[0] if n == "error_split" else n][1] for n, x in bounds.items()}
