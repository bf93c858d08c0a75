"""Seeded random states, channels, and problem instances, and the
categorical sampler and sample statistics of both simulators.

Used by the verification suites, the simulators and the test corpus.
Everything takes an explicit ``numpy.random.Generator`` so runs are
reproducible from a single seed.
"""

from __future__ import annotations

import math

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
    kraus = iso.reshape(d_out, env, d_in).swapaxes(0, 1)  # (env, d_out, d_in)
    return QuantumChannel(kraus, in_factors, out_factors, cfg=cfg)


def random_cq(rng: np.random.Generator, num_labels: int, dim: int,
              factors=None) -> CQState:
    probs = rng.dirichlet(np.ones(num_labels))
    conds = np.stack([random_density(rng, dim).matrix for _ in range(num_labels)])
    return CQState(range(num_labels), probs, DensityMatrix(conds, factors, validate=False))


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
    raw = np.stack([random_density(rng, d).matrix for _ in range(num_labels)])
    deltas = raw - sum(p * t for p, t in zip(probs, raw))
    worst = float(np.max(np.abs(eigvals_hermitian(deltas))))
    eta = spread * floor / worst if worst > 0.0 else 0.0

    conds = DensityMatrix(target + eta * deltas, [("A", d_a), ("S", rho_s.dim)],
                          validate=False)
    return CQState(range(num_labels), probs, conds)


# ---------------------------------------------------------------------------
# Categorical draws and sample statistics

def _codeword_law(p_u) -> np.ndarray:
    """The codeword distribution as floats; raises ``ValueError`` unless it
    is finite and nonnegative with positive mass."""
    p = np.asarray(p_u, dtype=np.float64)
    if not (np.all(np.isfinite(p) & (p >= 0.0)) and p.sum() > 0.0):
        raise ValueError("codeword distribution needs nonnegative entries and positive mass")
    return p


def _cdf(p: np.ndarray, normalized: bool = False) -> np.ndarray:
    """Cumulative distributions of the rows along the last axis of ``p``,
    as ``rng.choice(k, p=law)`` builds them from ``law = row / row.sum()``
    (or ``law = row`` when ``normalized``): cumsum, divide by the last entry."""
    cdf = np.cumsum(p if normalized else p / p.sum(axis=-1, keepdims=True), axis=-1)
    cdf /= cdf[..., -1:]
    return cdf


def _symbols(cdf: np.ndarray, u) -> np.ndarray:
    """Inverse-CDF indices: the number of entries of ``cdf`` (last axis,
    broadcast against ``u``) that are <= u, as ``choice`` counts them.

    The last entry is skipped: it is x / x = 1 > u (or NaN for an empty
    row), so it is never counted.  Fewer uniforms than entries are compared
    in one broadcast; otherwise the loop runs over the entries.
    """
    k = cdf.shape[-1]
    if np.size(u) < k:
        return np.count_nonzero(cdf[..., :-1] <= np.asarray(u)[..., None], axis=-1)
    idx = np.zeros(np.shape(u), dtype=np.min_scalar_type(k))
    for i in range(k - 1):
        idx += cdf[..., i] <= u
    return idx.astype(np.intp)


def _draw(p: np.ndarray, rng: np.random.Generator, shape=None) -> np.ndarray:
    """Categorical draws by inverse CDF from one ``rng.random(shape)`` call.

    ``p`` holds unnormalized distributions along its last axis and
    broadcasts against ``shape`` (default: one draw per distribution).
    The uniforms consumed and the indices returned are those of one
    ``choice`` call per distribution in order, or of one ``choice(k,
    size=shape)`` call for a single distribution.
    """
    return _symbols(_cdf(p), rng.random(p.shape[:-1] if shape is None else shape))


def _mean_se(xs: list[float]) -> tuple[float, float]:
    """Sample mean and its standard error, by exactly rounded sums."""
    n = len(xs)
    mean = math.fsum(xs) / n
    if n < 2:
        return mean, 0.0
    var = math.fsum((x - mean) ** 2 for x in xs) / (n - 1)
    return mean, math.sqrt(var / n)
