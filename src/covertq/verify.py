"""Seeded invariant suites behind the ``verify`` command.

Each suite runs a batch of randomized property checks and reports pass
and failure counts with a short diagnostic for the first few failures.
"""

from __future__ import annotations

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
from .sampling import random_channel, random_density
from .states import DensityMatrix, QuantumChannel, apply_channel

__all__ = ["run_suite", "SUITES"]


class _Tally:
    """Pass and failure counts of one suite; keeps the first 10 failure details."""

    max_details = 10

    def __init__(self, name: str):
        self.name = name
        self.passes = 0
        self.failures = 0
        self.details: list[str] = []

    def check(self, ok: bool, detail: str):
        if ok:
            self.passes += 1
            return
        self.failures += 1
        if self.failures <= self.max_details:
            self.details.append(detail)
        elif self.failures == self.max_details + 1:
            self.details.append("...")

    def result(self) -> dict:
        return {"suite": self.name, "passes": self.passes,
                "failures": self.failures, "details": self.details}


def suite_pinching(seed: int, cases: int = 200, cfg: Numerics = DEFAULT) -> dict:
    """Pinching inequality, switching identities, tensor-power eigencounts."""
    rng = np.random.default_rng(seed)
    t = _Tally("pinching")
    for i in range(cases):
        d = int(rng.integers(2, 7))
        sigma = random_density(rng, d)
        rho = random_density(rng, d)
        basis = distinct_eigenspaces(sigma, cfg=cfg)
        pinched = pinch_matrix(rho.matrix, basis)
        low = float(eigvals_hermitian(basis.v * pinched - rho.matrix, cfg)[0])
        t.check(low >= -1e-9, f"case {i}: blow-up inequality min eig {low:.2e}")
        rho2 = random_density(rng, d)
        lhs = np.trace(pinched @ rho2.matrix).real
        rhs = np.trace(rho.matrix @ pinch_matrix(rho2.matrix, basis)).real
        t.check(abs(lhs - rhs) <= 1e-10, f"case {i}: switch identity {abs(lhs-rhs):.2e}")
        lhs2 = np.trace(pinched @ sigma.matrix).real
        rhs2 = np.trace(rho.matrix @ sigma.matrix).real
        t.check(abs(lhs2 - rhs2) <= 1e-10, f"case {i}: trace identity {abs(lhs2-rhs2):.2e}")
    for d in (2, 3):
        for n in (1, 2, 3, 4):
            sigma = random_density(rng, d)
            v = tensor_power_eigencount(sigma, n, cfg=cfg)
            t.check(v <= (n + 1) ** d,
                    f"power count v={v} exceeds (n+1)^d={(n+1)**d} at n={n}, d={d}")
    return t.result()


def suite_dataprocessing(seed: int, cases: int = 100, cfg: Numerics = DEFAULT,
                         channel: QuantumChannel | None = None) -> dict:
    """Sandwiched divergence contraction under channels; order monotonicity."""
    rng = np.random.default_rng(seed)
    t = _Tally("dataprocessing")
    orders = (1.1, 1.25, 1.4)
    for i in range(cases):
        d = int(rng.integers(2, 5))
        rho = random_density(rng, d)
        sigma = random_density(rng, d)
        ch = channel
        if ch is None or ch.dim_in != d:
            ch = random_channel(rng, d, d)
        out_r = apply_channel(ch, rho, validate=False, cfg=cfg)
        out_s = apply_channel(ch, sigma, validate=False, cfg=cfg)
        for order in orders:
            before = sandwiched_renyi(rho, sigma, order, cfg).value
            after = sandwiched_renyi(out_r, out_s, order, cfg).value
            t.check(after <= before + 1e-9,
                    f"case {i}: order {order} grew {after - before:.2e}")
        vals = [sandwiched_renyi(rho, sigma, o, cfg).value
                for o in (0.5, 0.8, 1.2, 1.5)]
        t.check(all(vals[j] <= vals[j + 1] + 1e-9 for j in range(len(vals) - 1)),
                f"case {i}: order monotonicity broken {vals}")
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
        t.check(fm_check(a, b, c, step), f"case {i}: triple ({a}, {b}, {c})")
    return t.result()


def suite_reduction(seed: int, cases: int = 100, cfg: Numerics = DEFAULT) -> dict:
    """Diagonal (commuting) inputs reproduce the classical formulas."""
    rng = np.random.default_rng(seed)
    t = _Tally("reduction")
    for i in range(cases):
        d = int(rng.integers(2, 5))
        p = rng.dirichlet(np.ones(d)) + 1e-4
        q = rng.dirichlet(np.ones(d)) + 1e-4
        p, q = p / p.sum(), q / q.sum()
        dp = DensityMatrix(np.diag(p).astype(complex), cfg=cfg)
        dq = DensityMatrix(np.diag(q).astype(complex), cfg=cfg)

        t.check(abs(trace_distance(dp, dq, cfg) - float(np.sum(np.abs(p - q)))) <= 1e-9,
                f"case {i}: trace distance")
        t.check(abs(fidelity(dp, dq, cfg) - float(np.sum(np.sqrt(p * q)))) <= 1e-9,
                f"case {i}: fidelity")
        kl = float(np.sum(p * np.log2(p / q)))
        t.check(abs(relative_entropy(dp, dq, cfg).value - kl) <= 1e-9,
                f"case {i}: relative entropy")
        alpha = float(rng.uniform(0.1, 0.45))
        ren = math.log2(float(np.sum(p ** (1 + alpha) * q ** (-alpha)))) / alpha
        t.check(abs(sandwiched_renyi(dp, dq, 1 + alpha, cfg).value - ren) <= 1e-9,
                f"case {i}: renyi order {1 + alpha:.3f}")
        ent = -float(np.sum(p * np.log2(p)))
        t.check(abs(von_neumann_entropy(dp, cfg) - ent) <= 1e-9,
                f"case {i}: entropy")
        pd = purified_distance(dp, dq, cfg)
        t.check(trace_distance(dp, dq, cfg) <= 2.0 * pd + 1e-12,
                f"case {i}: distance pairing")
    return t.result()


SUITES = {
    "pinching": suite_pinching,
    "dataprocessing": suite_dataprocessing,
    "fm": suite_fm,
    "reduction": suite_reduction,
}


def run_suite(name: str, seed: int, channel: QuantumChannel | None = None) -> list[dict]:
    """Run one suite (or all) and return their tallies."""
    if name == "all":
        out = []
        for key, fn in SUITES.items():
            if key == "dataprocessing":
                out.append(fn(seed, channel=channel))
            else:
                out.append(fn(seed))
        return out
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r} (choose from {sorted(SUITES)} or 'all')")
    if name == "dataprocessing":
        return [SUITES[name](seed, channel=channel)]
    return [SUITES[name](seed)]
