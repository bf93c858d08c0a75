import math

import numpy as np
import pytest

from covertq.sampling import random_density, random_hermitian
from covertq.states import DensityMatrix


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


def rng_for(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def diag_state(*probs) -> DensityMatrix:
    return DensityMatrix(np.diag(np.asarray(probs, dtype=complex)))


def pure_state(vec) -> DensityMatrix:
    v = np.asarray(vec, dtype=complex)
    v = v / np.linalg.norm(v)
    return DensityMatrix(np.outer(v, v.conj()))


def assert_same(got, want, where="body"):
    """Keys, strings, bools, ints equal; floats to 1e-12 relative."""
    assert type(got) is type(want), f"{where}: {got!r} != {want!r}"
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), f"{where}: keys differ"
        for key in want:
            assert_same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{where}: lengths differ"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-300), \
            f"{where}: {got!r} != {want!r}"
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


__all__ = ["rng_for", "diag_state", "pure_state", "random_density", "random_hermitian",
           "assert_same"]
