"""Seeded random states, channels, and problem instances, and the
categorical sampler and sample statistics of both simulators.

Used by the verification suites, the simulators and the test corpus.
Everything takes an explicit ``numpy.random.Generator`` so runs are
reproducible from a single seed.
"""

from __future__ import annotations

import math
import operator
from itertools import repeat

import numpy as np

from .config import DEFAULT, LAW_SLACK, Numerics
from .errors import DimMismatch, NotADistribution
from .linalg import dagger, eigvals_hermitian
from .states import CQState, DensityMatrix, ProblemInstance, QuantumChannel

__all__ = [
    "ginibre_states",
    "ginibre_kraus",
    "random_density",
    "random_unitary",
    "random_channel",
    "random_cq",
    "random_problem_instance",
    "matched_ensemble",
    "random_hermitian",
]


def ginibre_states(g: np.ndarray) -> np.ndarray:
    """States G G^dag / tr(G G^dag) of the Ginibre matrices G = g[..., 0, :, :]
    + i g[..., 1, :, :] of real normal draws ``g`` ``(..., 2, d, r)``; one
    ``normal`` call fills in order, so a stack is one call per state."""
    m = g[..., 0, :, :] + 1j * g[..., 1, :, :]
    m = m @ dagger(m)
    m /= np.trace(m, axis1=-2, axis2=-1).real[..., None, None]
    return m


def ginibre_kraus(g: np.ndarray, d_in: int, d_out: int) -> np.ndarray:
    """Kraus stacks ``(env, ..., d_out, d_in)`` of random CPTP maps, one per
    Ginibre square ``(..., 2, d_out * env, d_out * env)`` of ``g``: the first
    d_in columns of its Haar unitary (Q of QR, rephased by R's diagonal)."""
    q, r = np.linalg.qr(g[..., 0, :, :] + 1j * g[..., 1, :, :])
    phase = np.diagonal(r, axis1=-2, axis2=-1)[..., None, :d_in]
    iso = q[..., :d_in] * (phase / np.abs(phase))  # an isometry d_in -> d_out * env
    return np.moveaxis(iso.reshape(*iso.shape[:-2], d_out, -1, d_in), -2, 0)


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (g + dagger(g))


def random_density(rng: np.random.Generator, dim: int, factors=None,
                   rank: int | None = None) -> DensityMatrix:
    """Full-rank (by default) state from a Ginibre square."""
    g = rng.normal(size=(2, dim, rank or dim))
    return DensityMatrix(ginibre_states(g), factors, validate=False)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar unitary: the one Kraus operator of a random channel with no environment."""
    return ginibre_kraus(rng.normal(size=(2, dim, dim)), dim, dim)[0]


def random_channel(rng: np.random.Generator, d_in: int, d_out: int,
                   env: int | None = None, in_factors=None, out_factors=None,
                   cfg: Numerics = DEFAULT) -> QuantumChannel:
    side = d_out * (env or d_in)
    kraus = ginibre_kraus(rng.normal(size=(2, side, side)), d_in, d_out)
    return QuantumChannel(kraus, in_factors, out_factors, cfg=cfg)


def random_cq(rng: np.random.Generator, num_labels: int, dim: int,
              factors=None) -> CQState:
    probs = rng.dirichlet(np.ones(num_labels))
    conds = ginibre_states(rng.normal(size=(num_labels, 2, dim, dim)))
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
    target = np.kron(instance.innocent.matrix, rho_s.matrix)
    floor = float(eigvals_hermitian(target)[0])
    if floor <= 0.0:
        raise DimMismatch("matched ensembles need a full-rank innocent x state target")

    probs = (np.full(num_labels, 1.0 / num_labels) if uniform_labels
             else rng.dirichlet(np.ones(num_labels)))
    raw = ginibre_states(rng.normal(size=(num_labels, 2, d, d)))
    deltas = raw - sum(p * t for p, t in zip(probs, raw))
    worst = float(np.max(np.abs(eigvals_hermitian(deltas))))
    eta = spread * floor / worst if worst > 0.0 else 0.0

    conds = DensityMatrix(target + eta * deltas, [("A", d_a), ("S", rho_s.dim)],
                          validate=False)
    return CQState(range(num_labels), probs, conds)


# ---------------------------------------------------------------------------
# Categorical draws and sample statistics

def _codeword_law(p_u) -> np.ndarray:
    """The codeword distribution as floats; raises :class:`NotADistribution`
    unless it is finite and nonnegative and sums to one within ``LAW_SLACK``."""
    p = np.asarray(p_u, dtype=np.float64)
    if not (np.all(np.isfinite(p) & (p >= 0.0)) and abs(p.sum() - 1.0) <= LAW_SLACK):
        raise NotADistribution("codeword distribution needs finite nonnegative entries "
                               f"summing to one (within {LAW_SLACK:g}), "
                               f"got sum {float(p.sum())!r}")
    return p


def _cdf(p: np.ndarray, normalized: bool = False) -> np.ndarray:
    """Cumulative distributions of the rows along the last axis of ``p``,
    as ``rng.choice(k, p=law)`` builds them from ``law = row / row.sum()``
    (or ``law = row`` when ``normalized``): cumsum, divide by the last entry."""
    cdf = np.cumsum(p if normalized else p / p.sum(axis=-1, keepdims=True), axis=-1)
    cdf /= cdf[..., -1:]
    return cdf


_BLOCK = 8  # thresholds per comparison: the mask never outgrows the float64 uniforms


class _Sampler:
    """:func:`_symbols` prepared for uniforms of one shape: the thresholds
    (the CDF entries but the last, axis first) and mask are built once.  A
    call compares each block of at most ``_BLOCK`` thresholds with all the
    uniforms and counts the hits by one uint8 ``add.reduce`` over the block.
    """

    def __init__(self, cdf: np.ndarray, shape: tuple[int, ...]):
        k, batch = cdf.shape[-1], cdf.shape[:-1]
        # one entry alone is 1 (or NaN), never <= u; the CDF axes align with u's last ones
        thr = cdf[..., :max(k - 1, 1)].transpose(-1, *range(len(batch)))
        thr = thr.reshape(-1, *(1,) * (len(shape) - len(batch)), *batch)
        hit = np.empty((min(len(thr), _BLOCK), *shape), dtype=bool)
        blocks = [(thr[lo:lo + _BLOCK], hit[:len(thr) - lo]) for lo in range(0, len(thr), _BLOCK)]
        self.blocks = [(t, h, h.view(np.uint8)) for t, h in blocks]
        self.part = np.empty(shape, dtype=np.uint8) if len(thr) > _BLOCK else None

    def __call__(self, u: np.ndarray, out: np.ndarray) -> np.ndarray:
        for i, (thr, hit, ones) in enumerate(self.blocks):
            np.less_equal(thr, u, out=hit)
            np.add.reduce(ones, axis=0, out=self.part if i else out)  # in the dtype of out
            if i:
                np.add(out, self.part, out=out)
        return out


def _symbols(cdf: np.ndarray, u, out: np.ndarray | None = None) -> np.ndarray:
    """Inverse-CDF indices: the number of entries of ``cdf`` (last axis,
    broadcast against ``u``) that are <= u, as ``choice`` counts them.

    The last entry is skipped: it is x / x = 1 > u (or NaN for an empty
    row), so it is never counted.  Fewer uniforms than entries are compared
    in one broadcast and give ``intp`` indices.  Otherwise :class:`_Sampler`
    counts threshold-major, in ``np.min_scalar_type(k - 1)``, the narrowest
    dtype that holds every index, which it returns.  With ``out`` (shaped
    like ``u``) the indices are written there.

    Both forms are kept because each is far slower on the other's draws.  On
    the ``sampling._symbols`` cases of scripts/bench.py (2 vCPUs), a chunk's
    bin draw (15 uniforms, 309 entries) takes 16 us in the broadcast and 583
    us in a loop over the entries; a ``classical_n7`` trial's codebook block
    (4326 uniforms, 4 entries) 152 us in the broadcast and 17 us here (x1.35
    that loop: the set-up), or 4.4 us (wall) from a prepared :class:`_Sampler`.
    """
    k = cdf.shape[-1]
    if np.size(u) < k:  # counted in intp, or in the dtype of ``out``
        return np.sum(cdf[..., :-1] <= np.asarray(u)[..., None], axis=-1, out=out)
    if out is None:
        out = np.empty(np.shape(u), dtype=np.min_scalar_type(k - 1))
    return _Sampler(cdf, out.shape)(u, out)


def _draw(p: np.ndarray, rng: np.random.Generator, shape=None) -> np.ndarray:
    """Categorical draws by inverse CDF from one ``rng.random(shape)`` call.

    ``p`` holds unnormalized distributions along its last axis and
    broadcasts against ``shape`` (default: one draw per distribution).
    The uniforms consumed and the indices returned are those of one
    ``choice`` call per distribution in order, or of one ``choice(k,
    size=shape)`` call for a single distribution.
    """
    return _symbols(_cdf(p), rng.random(p.shape[:-1] if shape is None else shape))


def _mean_se(xs) -> tuple[float, float]:
    """Sample mean and its standard error, by exactly rounded sums (of a list or an array).

    The squares are libm's ``pow(x - mean, 2)`` of each float, mapped in C:
    numpy squares as ``x * x``, which rounds differently from ``pow`` for
    about one double in a thousand.
    """
    if isinstance(xs, np.ndarray):
        xs = xs.tolist()
    n = len(xs)
    mean = math.fsum(xs) / n
    if n < 2:
        return mean, 0.0
    var = math.fsum(map(pow, map(operator.sub, xs, repeat(mean)), repeat(2))) / (n - 1)
    return mean, math.sqrt(var / n)


def _verdict(mean: float, se: float, bound: float) -> bool:
    """The Monte Carlo verdict of both simulators: mean + 3 SE <= bound, to 1e-12."""
    return mean + 3.0 * se <= bound + 1e-12
