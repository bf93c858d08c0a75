import numpy as np
import pytest

from conftest import rng_for
from covertq.sampling import _cdf, _mean_se, _symbols


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


def test_mean_se_matches_the_sample_formulas():
    xs = rng_for(710).random(40).tolist()
    mean, se = _mean_se(xs)
    assert mean == pytest.approx(np.mean(xs), rel=1e-15)
    assert se == pytest.approx(np.std(xs, ddof=1) / np.sqrt(40), rel=1e-12)
    assert _mean_se([0.5]) == (0.5, 0.0)
