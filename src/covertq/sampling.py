"""Seeded random states, channels, and problem instances.

Used by the verification suites and the test corpus.  Everything takes an
explicit ``numpy.random.Generator`` so runs are reproducible from a
single seed.
"""

from __future__ import annotations

import numpy as np

from .config import DEFAULT, Numerics
from .errors import DimMismatch
from .linalg import dagger, eigvals_hermitian, tensor
from .states import CQState, DensityMatrix, ProblemInstance, QuantumChannel

__all__ = [
    "random_density",
    "random_unitary",
    "random_channel",
    "random_cq",
    "random_problem_instance",
    "matched_ensemble",
    "random_hermitian",
]


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (g + dagger(g))


def random_density(rng: np.random.Generator, dim: int, factors=None,
                   rank: int | None = None) -> DensityMatrix:
    """Full-rank (by default) state from a Ginibre square."""
    r = rank or dim
    g = rng.normal(size=(dim, r)) + 1j * rng.normal(size=(dim, r))
    m = g @ dagger(g)
    m /= np.trace(m).real
    return DensityMatrix(m, factors, validate=False)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_channel(rng: np.random.Generator, d_in: int, d_out: int,
                   env: int | None = None, in_factors=None, out_factors=None,
                   cfg: Numerics = DEFAULT) -> QuantumChannel:
    """Random CPTP map from a Haar-ish isometry into output x environment."""
    env = env or d_in
    big = random_unitary(rng, d_out * env)
    iso = big[:, :d_in]  # columns form an isometry d_in -> d_out * env
    kraus = [iso.reshape(d_out, env, d_in)[:, e, :] for e in range(env)]
    return QuantumChannel(kraus, in_factors, out_factors, cfg=cfg)


def random_cq(rng: np.random.Generator, num_labels: int, dim: int,
              factors=None) -> CQState:
    probs = rng.dirichlet(np.ones(num_labels))
    conds = [random_density(rng, dim, factors) for _ in range(num_labels)]
    return CQState(range(num_labels), probs, conds)


def random_problem_instance(rng: np.random.Generator, d_a: int = 2, d_s: int = 2,
                            d_b: int = 2, d_e: int = 2,
                            cfg: Numerics = DEFAULT) -> ProblemInstance:
    ch = random_channel(rng, d_a * d_s, d_b * d_e,
                        in_factors=[("A", d_a), ("S", d_s)],
                        out_factors=[("B", d_b), ("E", d_e)], cfg=cfg)
    innocent = random_density(rng, d_a, [("A", d_a)])
    csi = random_density(rng, d_s, [("S", d_s)])
    return ProblemInstance(ch, innocent, csi)


def matched_ensemble(rng: np.random.Generator, instance: ProblemInstance,
                     num_labels: int, spread: float = 0.8,
                     uniform_labels: bool = False) -> CQState:
    """Ensemble whose average input equals innocent x state marginal.

    Conditionals are the product target plus a traceless perturbation that
    averages out exactly, scaled to stay PSD.  This makes the ensemble
    both CSI consistent and covertness-exact (the induced warden marginal
    equals the no-communication state) while keeping the conditionals
    genuinely correlated across the two input factors.
    """
    if not 0.0 < spread <= 1.0:
        raise DimMismatch("spread must lie in (0, 1]")
    d_a = instance.innocent.dim
    rho_s = instance.csi_marginal()
    d = d_a * rho_s.dim
    target = tensor(instance.innocent.matrix, rho_s.matrix)
    floor = float(eigvals_hermitian(target)[0])
    if floor <= 0.0:
        raise DimMismatch("matched ensembles need a full-rank innocent x state target")

    probs = (np.full(num_labels, 1.0 / num_labels) if uniform_labels
             else rng.dirichlet(np.ones(num_labels)))
    raw = [random_density(rng, d).matrix for _ in range(num_labels)]
    mean = sum(p * t for p, t in zip(probs, raw))
    deltas = [t - mean for t in raw]
    worst = max(float(np.max(np.abs(eigvals_hermitian(dl)))) for dl in deltas)
    eta = spread * floor / worst if worst > 0.0 else 0.0

    facs = [("A", d_a), ("S", rho_s.dim)]
    conds = [DensityMatrix(target + eta * dl, facs, validate=False) for dl in deltas]
    return CQState(range(num_labels), probs, conds)
