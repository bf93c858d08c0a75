import math
import os

import numpy as np
import pytest

from covertq import verify
from covertq.config import DEFAULT
from covertq.divergences import (
    fidelity,
    purified_distance,
    relative_entropy,
    sandwiched_renyi,
    trace_distance,
    von_neumann_entropy,
)
from covertq.linalg import eigvals_hermitian
from covertq.pinching import distinct_eigenspaces, pinch_matrix, tensor_power_eigencount
from covertq.sampling import random_channel, random_density
from covertq.specio import load_spec
from covertq.states import DensityMatrix, apply_channel
from covertq.verify import (
    _Tally,
    run_suite,
    suite_dataprocessing,
    suite_pinching,
    suite_reduction,
)

QUBIT = os.path.join(os.path.dirname(__file__), "..", "src", "covertq", "fixtures",
                     "qubit_cnot.json")


def test_tally_counts_every_failure_and_keeps_ten_details():
    t = _Tally("demo")
    for i in range(30):
        t.check(i % 6 != 0, f"case {i}")  # 5 passes
    for i in range(20):
        t.check(False, f"extra {i}")
    out = t.result()
    assert out["passes"] == 25
    assert out["failures"] == 25
    assert len(out["details"]) == 11
    assert out["details"][:2] == ["case 0", "case 6"]
    assert out["details"][-1] == "..."


# ---------------------------------------------------------------------------
# The suites draw every case first and evaluate them in stacked calls; the
# per-case loops they replaced stay here as the reference.

def _loop_pinching(seed, cases=200, cfg=DEFAULT):
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


def _loop_dataprocessing(seed, cases=100, cfg=DEFAULT, channel=None):
    rng = np.random.default_rng(seed)
    t = _Tally("dataprocessing")
    for i in range(cases):
        d = int(rng.integers(2, 5))
        rho = random_density(rng, d)
        sigma = random_density(rng, d)
        ch = channel
        if ch is None or ch.dim_in != d:
            ch = random_channel(rng, d, d)
        out_r = apply_channel(ch, rho, validate=False, cfg=cfg)
        out_s = apply_channel(ch, sigma, validate=False, cfg=cfg)
        for order in (1.1, 1.25, 1.4):
            before = sandwiched_renyi(rho, sigma, order, cfg).value
            after = sandwiched_renyi(out_r, out_s, order, cfg).value
            t.check(after <= before + 1e-9,
                    f"case {i}: order {order} grew {after - before:.2e}")
        vals = [sandwiched_renyi(rho, sigma, o, cfg).value for o in (0.5, 0.8, 1.2, 1.5)]
        t.check(all(vals[j] <= vals[j + 1] + 1e-9 for j in range(len(vals) - 1)),
                f"case {i}: order monotonicity broken {vals}")
    return t.result()


@pytest.mark.parametrize("d", [2, 3, 4])
def test_flat_dirichlet_is_numpys_dirichlet_bit_for_bit(d):
    # the same doubles, and the stream left where dirichlet leaves it
    for seed in range(50):
        ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            assert verify._flat_dirichlet(ours, d).tobytes() == \
                numpys.dirichlet(np.ones(d)).tobytes()
        assert ours.random() == numpys.random()


def _loop_reduction(seed, cases=100, cfg=DEFAULT):
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
        t.check(abs(von_neumann_entropy(dp, cfg) - ent) <= 1e-9, f"case {i}: entropy")
        pd = purified_distance(dp, dq, cfg)
        t.check(trace_distance(dp, dq, cfg) <= 2.0 * pd + 1e-12,
                f"case {i}: distance pairing")
    return t.result()


LOOSE = DEFAULT.replaced(support_tol=0.5)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("cfg", [DEFAULT, LOOSE.replaced(group_tol=0.05)],
                         ids=["default", "loose"])
def test_suites_match_per_case_loops(seed, cfg):
    channel = load_spec(QUBIT).instance.channel  # dim_in 4: used by the d = 4 cases
    assert suite_pinching(seed, cfg=cfg) == _loop_pinching(seed, cfg=cfg)
    assert suite_reduction(seed, cfg=cfg) == _loop_reduction(seed, cfg=cfg)
    for ch in (None, channel):
        assert (suite_dataprocessing(seed, cfg=cfg, channel=ch)
                == _loop_dataprocessing(seed, cfg=cfg, channel=ch))


def test_loose_support_tolerance_fails_reduction():
    # The failure count that the verify command must report for this cfg.
    assert suite_reduction(1, cfg=LOOSE)["failures"] == 373


def test_run_suite_passes_cfg_and_channel(monkeypatch):
    seen = {}

    def fake(name):
        def suite(seed, cases=1, cfg=DEFAULT, channel=None):
            seen[name] = (seed, cfg, channel)
            return {"suite": name, "passes": 1, "failures": 0, "details": []}
        return suite

    monkeypatch.setattr(verify, "SUITES", {"a": fake("a"), "fm": lambda seed: {"suite": "fm"}})
    out = run_suite("all", 3, channel="ch", cfg=LOOSE)
    assert [t["suite"] for t in out] == ["a", "fm"]
    assert seen["a"] == (3, LOOSE, "ch")
    with pytest.raises(ValueError):
        run_suite("nope", 0)


@pytest.mark.parametrize("channel", [False, True], ids=["random", "qubit"])
def test_dataprocessing_makes_three_divergence_calls_per_dimension(channel, monkeypatch):
    # six orders in one call, order 0.5 in one more, and the three after-channel
    # orders in a third, for each of the dimensions 2, 3 and 4
    calls = []

    def counted(*args, **kwargs):
        calls.append(np.shape(args[0])[-1])
        return sandwiched_renyi(*args, **kwargs)
    monkeypatch.setattr(verify, "sandwiched_renyi", counted)
    ch = load_spec(QUBIT).instance.channel if channel else None
    suite_dataprocessing(0, channel=ch)
    assert sorted(calls) == [2, 2, 2, 3, 3, 3, 4, 4, 4]
