"""Tests of the benchmark's own logic: output checks, self-time arithmetic,
the generator self-check, the speed probe, and agreement with
BENCHMARK.json."""

import json
import os
import signal
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import checks  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from covertq.oneshot import ProtocolRates  # noqa: E402
from covertq.sampling import matched_ensemble, random_problem_instance  # noqa: E402

REPORT = {"command": "bound", "config": {"which": "thm1"},
          "results": {"pe_bound": 0.25, "flags": {"pe_vacuous": False}},
          "verdicts": {}, "wall_clock_s": 0.01}


def _stdout(doc):
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_checker_flags_corrupted_body():
    call = workloads.Call("bound.thm1", ("bound", "--which", "thm1"))
    checker = checks.OpChecker()
    assert checker.check(call, 0, _stdout(REPORT), "") == []
    retimed = dict(REPORT, wall_clock_s=9.0)
    assert checker.check(call, 0, _stdout(retimed), "") == []
    corrupted = json.loads(json.dumps(REPORT))
    corrupted["results"]["pe_bound"] = 0.2500001
    problems = checker.check(call, 0, _stdout(corrupted), "")
    assert any("body differs" in p for p in problems)
    assert checker.check(call, 0, "{not json", "")


def test_checker_flags_wrong_exit_code_and_failed_verdicts():
    ok = workloads.Call("bound.thm1", ("bound",))
    assert any("exit 1, expected 0" in p
               for p in checks.OpChecker().check(ok, 1, _stdout(REPORT), ""))
    failing = dict(REPORT, verdicts={"key_p2": False})
    assert any("verdicts failed" in p
               for p in checks.OpChecker().check(ok, 0, _stdout(failing), ""))
    error_path = workloads.Call("bound.faulty", ("bound",), expect_exit=3)
    assert checks.OpChecker().check(error_path, 3, "", "error: not trace preserving\n") == []
    assert checks.OpChecker().check(error_path, 0, _stdout(REPORT), "")


def test_checker_compares_reference_values_relatively():
    call = workloads.Call("bound.thm1", ("bound",))
    near = {"pe_bound": 0.25 * (1 + 1e-12), "flags": {"pe_vacuous": False}}
    far = {"pe_bound": 0.25 * (1 + 1e-7), "flags": {"pe_vacuous": False}}
    assert checks.OpChecker(reference={"bound.thm1": near}).check(
        call, 0, _stdout(REPORT), "") == []
    assert checks.OpChecker(reference={"bound.thm1": far}).check(
        call, 0, _stdout(REPORT), "")
    assert checks.OpChecker(expected={"bound.thm1": {"pe_bound": 0.3}}).check(
        call, 0, _stdout(REPORT), "")


def test_self_times_on_hand_built_tree():
    # op [0, 10] > a [1, 6] > b [2, 3], c [3.5, 5];  op > d [7, 9.5]
    spans = [(tracing.ROOT, 0.0, 10.0, -1, 0, None), ("a", 1.0, 6.0, 0, 0, None),
             ("b", 2.0, 3.0, 1, 0, None), ("c", 3.5, 5.0, 1, 0, None),
             ("d", 7.0, 9.5, 0, 0, None)]
    assert tracing.self_times(spans) == pytest.approx([2.5, 2.5, 1.0, 1.5, 2.5])
    assert sum(tracing.self_times(spans)) == pytest.approx(10.0)
    shifted = [(n, s, e, p + 100 if p >= 0 else p, op, i) for n, s, e, p, op, i in spans]
    summary = tracing.op_summary(shifted, offset=100)
    assert summary["self_s"]["a"] == pytest.approx(2.5)
    assert summary["op_s"] == pytest.approx(10.0)
    assert summary["top_level_s"] == pytest.approx(7.5)


def test_generator_self_check_rejects_degenerate_instance():
    rng = np.random.default_rng(3)
    inst = random_problem_instance(rng)
    ens = matched_ensemble(rng, inst, num_labels=4)
    with pytest.raises(workloads.GeneratorError, match="ideal_error"):
        workloads.check_quantum_instance(ens, inst, ProtocolRates(1.0, 0.0, 0.0, 0.2), seed=1)


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_speed_probe_samples_during_op_and_disarms():
    before = signal.getsignal(signal.SIGALRM)
    probe = speed.SpeedProbe(tick_s=0.01)
    timing = probe.run(lambda: _busy(0.2))
    assert timing["samples"] >= 5
    assert 0.0 < timing["probe_s"] < timing["wall_s"]
    assert timing["norm_s"] == pytest.approx(
        (timing["wall_s"] - timing["probe_s"]) * speed.NOMINAL_KERNEL_S / timing["kernel_s"])
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before

    def crash():
        _busy(0.05)
        raise RuntimeError("op failed")

    with pytest.raises(RuntimeError):
        probe.run(crash)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    summary = {"calls": {}, "self_s": {}, "total_s": {}, "eig_dims": {},
               "cq_from_cache_miss": 0, "op_s": 1.0, "top_level_s": 1.0}
    untraced = dict.fromkeys(("op_s", *run.CAT_METRICS), 1.0)
    layer = run.layer_metrics([summary], [1e-5, 2e-5], dict.fromkeys(run.KERNEL_DIMS, 1.0),
                              untraced, {"quantum_trials": 0, "warden_terms": 0,
                                         "encoding_failure_ratio": 0.0})
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == \
        [(k, unit) for k, (_, unit) in layer.items()]
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert {w["name"] for w in bench["workloads"]} <= set(workloads.WORKLOADS)
