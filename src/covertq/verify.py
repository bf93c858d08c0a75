"""Seeded invariant suites behind the ``verify`` command.

Each suite runs a batch of randomized property checks and reports pass
and failure counts with a short diagnostic for the first few failures.
A suite draws all of its cases first, evaluates them in stacked calls,
one per group of cases of equal dimension, and tallies in case order.
"""

from __future__ import annotations

import inspect
import math

import numpy as np

from .config import DEFAULT, Numerics
from .divergences import (
    fidelity,
    purified_distance,
    relative_entropy,
    sandwiched_renyi,
    trace_distance,
    von_neumann_entropy,
)
from .linalg import eigvals_hermitian
from .pinching import distinct_eigenspaces, pinch_matrix, tensor_power_eigencount
from .regions import fm_check
from .sampling import ginibre_kraus, ginibre_states
from .states import QuantumChannel, require_states

__all__ = ["run_suite", "SUITES"]


class _Tally:
    """Pass and failure counts of one suite; keeps the first 10 failure details."""

    max_details = 10

    def __init__(self, name: str):
        self.name = name
        self.passes = 0
        self.failures = 0
        self.details: list[str] = []

    def check(self, ok: bool, detail: str, *args):
        """Count one check; a failing one's detail is ``detail.format(*args)``,
        formatted only then."""
        if ok:
            self.passes += 1
            return
        self.failures += 1
        if self.failures <= self.max_details:
            self.details.append(detail.format(*args))
        elif self.failures == self.max_details + 1:
            self.details.append("...")

    def result(self) -> dict:
        return {"suite": self.name, "passes": self.passes,
                "failures": self.failures, "details": self.details}


def _per_case(fn, *columns: list[np.ndarray]) -> np.ndarray:
    """``fn`` on the stacked ``columns`` (one entry per case) of each group of
    cases whose first-column entries share a shape; ``fn`` returns an array
    whose last axis runs over the group's cases, gathered here in case order."""
    shapes = [m.shape for m in columns[0]]
    out = None
    for shape in dict.fromkeys(shapes):
        idx = [i for i, sh in enumerate(shapes) if sh == shape]
        res = np.asarray(fn(*(np.stack([col[i] for i in idx]) for col in columns)))
        if out is None:
            out = np.empty(res.shape[:-1] + (len(shapes),), dtype=res.dtype)
        out[..., idx] = res
    return out


def suite_pinching(seed: int, cases: int = 200, cfg: Numerics = DEFAULT) -> dict:
    """Pinching inequality, switching identities, tensor-power eigencounts."""
    rng = np.random.default_rng(seed)
    t = _Tally("pinching")
    draws = []  # per case: the Ginibre draws of sigma, rho and rho2
    for _ in range(cases):
        d = int(rng.integers(2, 7))
        draws.append(rng.normal(size=(3, 2, d, d)))

    def check(g):
        states = np.moveaxis(ginibre_states(g), 1, 0)
        sigma, rho, rho2 = states
        basis = distinct_eigenspaces(sigma, cfg=cfg)
        pinched, pinched2 = pinch_matrix(states[1:], basis)
        low = eigvals_hermitian(basis.v[:, None, None] * pinched - rho, cfg)[:, 0]

        def tr(a, b):
            return np.trace(a @ b, axis1=-2, axis2=-1).real
        return [low, np.abs(tr(pinched, rho2) - tr(rho, pinched2)),
                np.abs(tr(pinched, sigma) - tr(rho, sigma))]

    low, switch, trace = _per_case(check, draws).tolist()
    for i in range(cases):
        t.check(low[i] >= -1e-9, "case {}: blow-up inequality min eig {:.2e}", i, low[i])
        t.check(switch[i] <= 1e-10, "case {}: switch identity {:.2e}", i, switch[i])
        t.check(trace[i] <= 1e-10, "case {}: trace identity {:.2e}", i, trace[i])
    for d in (2, 3):
        for n, sigma in enumerate(ginibre_states(rng.normal(size=(4, 2, d, d))), 1):
            v = tensor_power_eigencount(sigma, n, cfg=cfg)
            t.check(v <= (n + 1) ** d,
                    "power count v={} exceeds (n+1)^d={} at n={}, d={}", v, (n + 1) ** d, n, d)
    return t.result()


def suite_dataprocessing(seed: int, cases: int = 100, cfg: Numerics = DEFAULT,
                         channel: QuantumChannel | None = None) -> dict:
    """Sandwiched divergence contraction under channels; order monotonicity."""
    rng = np.random.default_rng(seed)
    t = _Tally("dataprocessing")
    orders = (1.1, 1.25, 1.4)
    ladder = (0.5, 0.8, 1.2, 1.5)
    # Order 0.5 stays a call of its own: with a scalar order numpy takes
    # w ** 0.5 as a square root, which an order array would not.
    batched = np.array(orders + ladder[1:])[:, None]
    pairs, squares = [], []  # per case: rho's and sigma's draws, a random channel's or none
    for _ in range(cases):
        d = int(rng.integers(2, 5))
        pairs.append(rng.normal(size=(2, 2, d, d)))
        squares.append(rng.normal(size=(2, d * d, d * d))
                       if channel is None or channel.dim_in != d else np.empty(0))

    def check(pair, square):
        d = pair.shape[-1]
        ch = QuantumChannel(ginibre_kraus(square, d, d)) if square.size else channel
        states = np.moveaxis(ginibre_states(pair), 1, 0)
        rho, sigma = states
        out_r, out_s = ch.apply_matrix(states)
        before = sandwiched_renyi(rho, sigma, batched, cfg).value
        half = sandwiched_renyi(rho, sigma, ladder[0], cfg).value
        after = sandwiched_renyi(out_r, out_s, batched[:len(orders)], cfg).value
        return np.concatenate([before[:len(orders)], half[None], before[len(orders):], after])

    for i, row in enumerate(_per_case(check, pairs, squares).T.tolist()):
        before, vals, after = row[:3], row[3:7], row[7:]
        for order, b, a in zip(orders, before, after):
            t.check(a <= b + 1e-9, "case {}: order {} grew {:.2e}", i, order, a - b)
        t.check(all(vals[j] <= vals[j + 1] + 1e-9 for j in range(len(vals) - 1)),
                "case {}: order monotonicity broken {}", i, vals)
    return t.result()


def suite_fm(seed: int, cases: int = 50, step: float = 0.02) -> dict:
    """Grid equality of the eliminated rate system and its closed form."""
    rng = np.random.default_rng(seed)
    t = _Tally("fm")
    t.check(fm_check(0.3, 1.0, 0.4, step), "fixed triple (0.3, 1.0, 0.4)")
    for i in range(cases):
        a = step * int(rng.integers(0, 40))
        b = step * int(rng.integers(0, 80))
        c = step * int(rng.integers(0, 40))
        t.check(fm_check(a, b, c, step), "case {}: triple ({}, {}, {})", i, a, b, c)
    return t.result()


def _flat_dirichlet(rng: np.random.Generator, d: int) -> np.ndarray:
    """The draw and the doubles of ``rng.dirichlet(np.ones(d))``, by numpy's
    own arithmetic for it at lower cost: a shape-1 gamma draw is a standard
    exponential, and the draws are scaled by the reciprocal of their sum.
    dirichlet adds them in order, as ``sum`` does below 8 terms (pairwise
    from there), so ``d`` stays below 8."""
    g = rng.standard_exponential(d)
    return g * (1.0 / g.sum())


def suite_reduction(seed: int, cases: int = 100, cfg: Numerics = DEFAULT) -> dict:
    """Diagonal (commuting) inputs reproduce the classical formulas."""
    rng = np.random.default_rng(seed)
    t = _Tally("reduction")
    ps, qs, alphas = [], [], []
    for _ in range(cases):
        d = int(rng.integers(2, 5))
        p = _flat_dirichlet(rng, d) + 1e-4
        q = _flat_dirichlet(rng, d) + 1e-4
        ps.append(p / p.sum())
        qs.append(q / q.sum())
        alphas.append(float(rng.uniform(0.1, 0.45)))

    def evaluate(p, q, alpha):
        """The quantum values on diag(p), diag(q), then the classical
        references as row-wise sums."""
        eye = np.eye(p.shape[-1], dtype=complex)
        dp, dq = require_states(p[..., None] * eye, cfg), require_states(q[..., None] * eye, cfg)
        a = alpha[:, None]
        mass = np.sum(p ** (1 + a) * q ** (-a), axis=-1)
        return [trace_distance(dp, dq, cfg), fidelity(dp, dq, cfg),
                relative_entropy(dp, dq, cfg).value,
                sandwiched_renyi(dp, dq, 1 + alpha, cfg).value,
                von_neumann_entropy(dp, cfg), purified_distance(dp, dq, cfg),
                np.sum(np.abs(p - q), axis=-1), np.sum(np.sqrt(p * q), axis=-1),
                np.sum(p * np.log2(p / q), axis=-1),
                # libm's log2 of each mass: numpy's may round differently
                np.array(list(map(math.log2, mass.tolist()))) / alpha,
                -np.sum(p * np.log2(p), axis=-1)]

    values = _per_case(evaluate, ps, qs, alphas).T.tolist()
    for i, (tdist, fid, rel, q_ren, q_ent, pd, td, f, kl, ren, ent) in enumerate(values):
        t.check(abs(tdist - td) <= 1e-9, "case {}: trace distance", i)
        t.check(abs(fid - f) <= 1e-9, "case {}: fidelity", i)
        t.check(abs(rel - kl) <= 1e-9, "case {}: relative entropy", i)
        t.check(abs(q_ren - ren) <= 1e-9, "case {}: renyi order {:.3f}", i, 1 + alphas[i])
        t.check(abs(q_ent - ent) <= 1e-9, "case {}: entropy", i)
        t.check(tdist <= 2.0 * pd + 1e-12, "case {}: distance pairing", i)
    return t.result()


SUITES = {
    "pinching": suite_pinching,
    "dataprocessing": suite_dataprocessing,
    "fm": suite_fm,
    "reduction": suite_reduction,
}


def run_suite(name: str, seed: int, channel: QuantumChannel | None = None,
              cfg: Numerics = DEFAULT) -> list[dict]:
    """Run one suite (or all) and return their tallies.

    Each suite gets the ``cfg`` and ``channel`` arguments it takes.
    """
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r} (choose from {sorted(SUITES)} or 'all')")
    out = []
    for fn in SUITES.values() if name == "all" else [SUITES[name]]:
        params = inspect.signature(fn).parameters
        out.append(fn(seed, **{k: v for k, v in (("cfg", cfg), ("channel", channel))
                               if k in params}))
    return out
