import math
import warnings

import numpy as np
import pytest

from conftest import rng_for
from covertq.errors import NotPSD
from covertq.linalg import eigvals_hermitian
from covertq.sampling import (
    _cdf,
    _Sampler,
    _mean_se,
    _symbols,
    _verdict,
    ginibre_kraus,
    ginibre_states,
    matched_ensemble,
    random_channel,
    random_cq,
    random_density,
    random_problem_instance,
    random_unitary,
)
from covertq.states import QuantumChannel


@pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
def test_symbols_counts_the_cdf_entries_at_or_below_u(k):
    # the count over all entries, the last one included, is the index
    # rng.choice draws; the last entry is 1.0 and is never <= u < 1
    rng = rng_for(700 + k)
    laws = rng.dirichlet(np.ones(k), size=50)
    laws[rng.random(laws.shape) < 0.3] = 0.0
    laws[:, -1] += 1e-3
    laws /= laws.sum(axis=1, keepdims=True)
    cdf = _cdf(laws, normalized=True)
    assert np.all(cdf[:, -1] == 1.0)
    # uniforms on the CDF boundaries, at 0, and just below and above them
    u = np.concatenate([cdf[:, :-1], np.zeros((50, 1)), np.nextafter(cdf[:, :-1], 0.0),
                        np.nextafter(cdf[:, :-1], 1.0), rng.random((50, 4))], axis=1)
    u = np.minimum(u, np.nextafter(1.0, 0.0))
    got = _symbols(cdf[:, None, :], u)
    want = np.count_nonzero(cdf[:, None, :] <= u[..., None], axis=-1)
    assert np.array_equal(got, want)
    assert np.array_equal(got, [np.searchsorted(c, row, side="right")
                                for c, row in zip(cdf, u)])


@pytest.mark.parametrize("k", [1, 2, 255, 256, 257])
def test_symbols_loop_form_counts_in_the_narrowest_index_dtype(k):
    # at least k uniforms take the loop over the entries, which returns its
    # counts in the narrowest dtype holding k - 1 (uint8 up to k = 256)
    rng = rng_for(705 + k)
    cdf = _cdf(rng.random(k))
    u = rng.random((3, k + 2))
    got = _symbols(cdf, u)
    assert got.dtype == np.min_scalar_type(k - 1)
    assert np.array_equal(got, np.count_nonzero(cdf <= u[..., None], axis=-1))
    if k > 1:  # fewer uniforms than entries: one broadcast, intp counts
        assert _symbols(cdf, u[0, :1]).dtype == np.intp


@pytest.mark.parametrize("k", [1, 2, 256, 257])
def test_symbols_kernel_matches_the_broadcast_count(k):
    # stacked CDF rows, one of them empty (0 / 0 gives a NaN last entry),
    # with enough uniforms per row for the loop; also written into ``out``
    rng = rng_for(720 + k)
    laws = rng.random((4, k))
    laws[rng.random(laws.shape) < 0.3] = 0.0
    laws[1] = 0.0
    with np.errstate(invalid="ignore"):
        cdf = _cdf(laws)[:, None, :]
    assert np.isnan(cdf[1, 0, -1])
    u = rng.random((4, k + 3))
    want = np.count_nonzero(cdf[..., :-1] <= u[..., None], -1)
    assert not want[1].any()
    got = _symbols(cdf, u)
    assert got.dtype == np.min_scalar_type(k - 1)
    assert got.dtype == (np.uint8 if k <= 256 else np.uint16)
    assert np.array_equal(got, want)
    out = np.full(u.shape, 7, dtype=got.dtype)
    assert _symbols(cdf, u, out=out) is out
    assert np.array_equal(out, want)
    if k > 1:  # fewer uniforms than entries: the broadcast, also into ``out``
        rows = slice(0, 4 if k > 4 else 1)
        few = u[rows, :1]
        out = np.full(few.shape, 7, dtype=np.uint16)
        assert _symbols(cdf[rows], few, out=out) is out
        assert np.array_equal(out, want[rows, :1])
        assert _symbols(cdf[rows], few).dtype == np.intp


@pytest.mark.parametrize("k", [1, 2, 4, 9, 17, 300])
def test_prepared_sampler_matches_choice_and_the_broadcast_count(k):
    # 1 to 8 thresholds take one comparison block, 9 to 16 two, 299 thirty-eight
    rng = rng_for(740 + k)
    law = rng.random(k)
    law[rng.random(k) < 0.3] = 0.0
    law[0] += 1e-3
    cdf = _cdf(law)
    shape = (3, 2 * k + 5)  # at least one uniform per entry: the threshold-major form
    draw = _Sampler(cdf, shape)
    dtype = np.uint8 if k <= 256 else np.uint16
    for seed in range(3):  # one prepared sampler, reused
        want = np.random.default_rng(seed).choice(k, size=shape, p=law / law.sum())
        u = np.random.default_rng(seed).random(shape)
        assert np.array_equal(draw(u, np.empty(shape, dtype=dtype)), want)
        assert _symbols(cdf, u).dtype == dtype and np.array_equal(_symbols(cdf, u), want)
    # non-contiguous uniforms, also written into uint8 and uint16 ``out``
    wide = rng.random((shape[1], 2 * shape[0]))
    u = wide.T[::2]
    assert not u.flags.c_contiguous
    want = np.count_nonzero(cdf[:-1] <= u[..., None], axis=-1)
    assert np.array_equal(_symbols(cdf, u), want)
    for dtype in (np.uint8, np.uint16):
        if np.iinfo(dtype).max < k - 1:
            continue
        out = np.full(shape, 7, dtype=dtype)
        assert draw(u, out=out) is out and np.array_equal(out, want)
        out[...] = 7
        assert _symbols(cdf, u, out=out) is out and np.array_equal(out, want)
    # stacked CDF rows against the trailing axis of the uniforms
    rows = _cdf(rng.random((shape[1], k)))
    u = rng.random(shape)
    assert np.array_equal(_Sampler(rows, shape)(u, np.empty(shape, dtype=np.uint16)),
                          np.count_nonzero(rows[:, :-1] <= u[..., None], axis=-1))


def test_mean_se_matches_the_sample_formulas():
    xs = rng_for(710).random(40).tolist()
    mean, se = _mean_se(xs)
    assert mean == pytest.approx(np.mean(xs), rel=1e-15)
    assert se == pytest.approx(np.std(xs, ddof=1) / np.sqrt(40), rel=1e-12)
    assert _mean_se([0.5]) == (0.5, 0.0)


def _mean_se_generator(xs):
    """_mean_se as it summed a generator of squares, kept as the reference."""
    n = len(xs)
    mean = math.fsum(xs) / n
    if n < 2:
        return mean, 0.0
    with np.errstate(invalid="ignore"):  # inf - inf of numpy scalars
        var = math.fsum((x - mean) ** 2 for x in xs) / (n - 1)
    return mean, math.sqrt(var / n)


def _outcome(fn, xs):
    """The bits of ``fn(xs)``, NaN included, or the type of the error it raises."""
    try:
        return np.array(fn(xs)).tobytes()
    except ValueError as exc:  # fsum of inf and -inf
        return type(exc)


@pytest.mark.parametrize("kind", ["list", "array"])
def test_mean_se_matches_the_generator_bit_for_bit(kind):
    rng = rng_for(711)
    series = [rng.random(200), rng.normal(size=1000), rng.random(31) * 1e-3,
              rng.normal(size=50) * 1e100, np.ones(40), np.array([0.25]),
              np.array([0.5, math.inf, 0.25]), np.array([math.inf, math.inf]),
              np.array([math.inf, 1.0, -math.inf]), np.array([0.5, math.nan, 0.25])]
    series += [rng.random(200) for _ in range(300)]  # squares that pow and x * x round apart
    for xs in series:
        arg = xs.tolist() if kind == "list" else xs
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning reaches stderr
            got = _outcome(_mean_se, arg)
        assert got == _outcome(_mean_se_generator, arg), xs
    assert all(type(v) is float for v in _mean_se(series[0]))


def test_verdict_is_mean_plus_three_standard_errors_within_the_bound():
    # 0.5 + 3 * 0.125 = 0.875 exactly; the slack is 1e-12
    assert _verdict(0.5, 0.125, 0.875)
    assert _verdict(0.5, 0.125, 0.875 - 0.5e-12)
    assert not _verdict(0.5, 0.125, 0.875 - 2e-12)
    assert _verdict(5.0, 0.0, math.inf)
    assert not _verdict(math.nan, 0.0, 1.0)


@pytest.mark.parametrize("dim,rank", [(1, None), (3, None), (4, 2), (6, 1)])
def test_random_density_one_draw_matches_two(dim, rank):
    # Generator.normal fills arrays in order: one (2, dim, r) draw holds the
    # two (dim, r) draws of the former form and leaves the stream where it did
    a, b = rng_for(720 + dim), rng_for(720 + dim)
    r = rank or dim
    g = b.normal(size=(dim, r)) + 1j * b.normal(size=(dim, r))
    m = g @ g.conj().T
    m /= np.trace(m).real
    got = random_density(a, dim, rank=rank).matrix
    assert got.tobytes() == m.tobytes()
    assert a.random() == b.random()


# ---------------------------------------------------------------------------
# The Ginibre helpers evaluate a stack of draws at once; per-item loops of
# the single-draw form are the reference, bit for bit, stream included.

def _stack_sizes():
    return [(dim, rank) for dim in range(1, 7) for rank in sorted({dim, max(1, dim - 2)})]


@pytest.mark.parametrize("dim,rank", _stack_sizes())
def test_ginibre_stack_matches_random_density_loop(dim, rank):
    a, b = rng_for(730 + dim), rng_for(730 + dim)
    got = ginibre_states(a.normal(size=(5, 2, dim, rank)))
    want = np.stack([random_density(b, dim, rank=rank).matrix for _ in range(5)])
    assert got.tobytes() == want.tobytes()
    assert a.random() == b.random()


def _loop_random_cq(rng, num_labels, dim):
    probs = rng.dirichlet(np.ones(num_labels))
    return probs, np.stack([random_density(rng, dim).matrix for _ in range(num_labels)])


@pytest.mark.parametrize("labels,dim", [(1, 2), (3, 2), (4, 5)])
def test_random_cq_draws_all_labels_at_once(labels, dim):
    a, b = rng_for(740 + dim), rng_for(740 + dim)
    got = random_cq(a, labels, dim)
    probs, conds = _loop_random_cq(b, labels, dim)
    assert got.probs.tobytes() == probs.tobytes()
    assert got.matrices.tobytes() == conds.tobytes()
    assert a.random() == b.random()


def test_matched_ensemble_draws_all_labels_at_once():
    # the former per-label draws, then the same perturbation arithmetic
    inst = random_problem_instance(rng_for(750))
    for uniform in (False, True):
        a, b = rng_for(751), rng_for(751)
        got = matched_ensemble(a, inst, 5, spread=0.9, uniform_labels=uniform)
        probs = np.full(5, 0.2) if uniform else b.dirichlet(np.ones(5))
        raw = np.stack([random_density(b, 4).matrix for _ in range(5)])
        deltas = raw - sum(p * t for p, t in zip(probs, raw))
        target = np.kron(inst.innocent.matrix, inst.csi_marginal().matrix)
        eta = (0.9 * float(eigvals_hermitian(target)[0])
               / float(np.max(np.abs(eigvals_hermitian(deltas)))))
        assert got.probs.tobytes() == probs.tobytes()
        assert got.matrices.tobytes() == (target + eta * deltas).tobytes()
        assert a.random() == b.random()


@pytest.mark.parametrize("dim", [1, 2, 5, 16])
def test_random_unitary_matches_two_square_draws(dim):
    a, b = rng_for(760 + dim), rng_for(760 + dim)
    g = b.normal(size=(dim, dim)) + 1j * b.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    want = q * (np.diag(r) / np.abs(np.diag(r)))
    got = random_unitary(a, dim)
    assert got.tobytes() == want.tobytes()
    assert np.max(np.abs(got @ got.conj().T - np.eye(dim))) < 1e-12
    assert a.random() == b.random()


def _loop_kraus(rng, d_in, d_out, env):
    # the former random_channel: two square draws, QR, then the isometry's columns
    side = d_out * env
    q, r = np.linalg.qr(rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side)))
    big = q * (np.diag(r) / np.abs(np.diag(r)))
    return big[:, :d_in].reshape(d_out, env, d_in).swapaxes(0, 1)


@pytest.mark.parametrize("d_in,d_out,env", [(2, 2, 2), (3, 3, 3), (4, 4, 4), (3, 2, 4),
                                            (2, 3, 1)])
def test_stacked_channels_match_random_channel_loop(d_in, d_out, env):
    # Kraus stack, trace-preservation check and output of k channels at once
    a, b, c = (rng_for(770 + d_in) for _ in range(3))
    k, side = 6, d_out * env
    stacked = QuantumChannel(ginibre_kraus(a.normal(size=(k, 2, side, side)), d_in, d_out))
    loop = [random_channel(b, d_in, d_out, env=env) for _ in range(k)]
    for ch in loop:
        assert ch.kraus.tobytes() == _loop_kraus(c, d_in, d_out, env).tobytes()
    assert a.random() == b.random() == c.random()
    assert stacked.kraus.shape == (env, k, d_out, d_in)
    assert (stacked.dim_in, stacked.dim_out) == (d_in, d_out)
    states = ginibre_states(a.normal(size=(3, k, 2, d_in, d_in)))
    out = stacked.apply_matrix(states)  # (3, k): state i of a row to channel i
    assert out.shape == (3, k, d_out, d_out)
    for i, ch in enumerate(loop):
        assert stacked.kraus[:, i].tobytes() == ch.kraus.tobytes()
        for rho, o in zip(states[:, i], out[:, i]):
            assert o.tobytes() == ch.apply_matrix(rho).tobytes()
    one = stacked.apply_matrix(states[0, 0])  # a single matrix goes to every channel
    assert [o.tobytes() for o in one] == [ch.apply_matrix(states[0, 0]).tobytes()
                                          for ch in loop]
    bad = stacked.kraus.copy()
    bad[0, -1] *= 1.1
    with pytest.raises(NotPSD):
        QuantumChannel(bad)
