"""covertq benchmark: end-to-end and per-layer timings of the CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout.  NAME is one of ``fixtures_cli``,
``synthetic_quantum``, ``classical_n7`` (see ``workloads.py`` for what each
op does and why), or ``all`` to run the three one after the other, each
in a fresh process.

One closed-loop client runs ops back to back through
``covertq.cli.main(argv)``, starting each op only while it is expected to
end within S seconds of the first, and checks every call's output
(``checks.py``).  BLAS is limited to one thread.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over
fresh interpreters of importing covertq and loading every spec the
workload reads), ``op_norm_s`` (median per op of its wall seconds scaled
to nominal machine speed by a reference kernel sampled while the op runs,
see ``speed.py``) and ``peak_rss_mb``.  ``--trace 1`` alternates untraced and traced ops and
reports per-layer metrics: spans recorded around the public functions of
each module (``tracing.py``), a ``linalg`` kernel table, the tracing
overhead, and ``cli.analytic_s``, ``cli.simulate_s`` and ``cli.verify_s``
(median per untraced op of the summed divergence/bound/region, simulate
and verify call times; zero on workloads whose op makes no such call).

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Each run also writes a record
(environment, per-op samples, problems found) under ``.perfbench_out/``,
and a traced run its spans.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import speed
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
TMP_DIR = os.path.join(ROOT, ".perfbench_tmp")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 15  # fresh-interpreter set-up times vary about 2x; more samples steady the median
EIG_DIMS = (2, 3, 4, 5, 6, 8, 32)
KERNEL_DIMS = (2, 4, 8, 16, 32)
CAT_METRICS = ("cli.analytic_s", "cli.simulate_s", "cli.verify_s")
END_TO_END = ("setup_s", "op_norm_s", "peak_rss_mb")
COVERAGE_MIN = 0.9


def fail(msg: str, code: int = 2) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


# ---------------------------------------------------------------------------
# Environment record (not gated)

def machine_ref_s(reps: int = 5) -> float:
    """Median seconds of a fixed pure-Python loop, to compare machine speed."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def git_commit(root: str) -> str | None:
    """Commit of a git work tree at ``root``; None when it is not one."""
    try:
        with open(os.path.join(root, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(root, ".git", head[5:]), encoding="utf-8") as fh:
                head = fh.read().strip()
    except OSError:
        return None
    return head


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "git_commit": git_commit(ROOT), "machine_ref_s": machine_ref_s()}


# ---------------------------------------------------------------------------
# Set-up time in fresh interpreters

def setup_sample(spec_paths: list[str], expect_rejected: int) -> float:
    """Seconds one fresh interpreter takes to import covertq and load the specs."""
    res = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"), SRC,
                          *spec_paths], capture_output=True, text=True, timeout=120, cwd=ROOT)
    if res.returncode != 0:
        fail(f"set-up probe failed: {res.stderr.strip()[-400:]}")
    rec = json.loads(res.stdout.strip().splitlines()[-1])
    if rec["rejected"] != expect_rejected:
        fail(f"set-up probe rejected {rec['rejected']} specs, expected {expect_rejected}")
    return rec["setup_s"]


# ---------------------------------------------------------------------------
# Ops

def _flag_value(argv: tuple[str, ...], flag: str) -> str | None:
    return argv[argv.index(flag) + 1] if flag in argv else None


def run_op(cli, calls, checker, tracer=None, op_id: int = 0,
           probe: speed.SpeedProbe | None = None) -> tuple[dict, dict, list]:
    """Run one op; return its timing (``op_s``, wall seconds, and with a
    probe its speed-normalised ``norm_s``), per-category call times and
    problems."""
    cats = dict.fromkeys(CAT_METRICS, 0.0)
    problems: list[str] = []

    def op():
        for call in calls:
            out_path, csv_path = _flag_value(call.argv, "--out"), _flag_value(call.argv, "--csv")
            for path in (out_path, csv_path):
                if path and os.path.exists(path):
                    os.remove(path)
            out, err, error = io.StringIO(), io.StringIO(), None
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(list(call.argv))
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a crash fails the op, not the benchmark
                code, error = None, f"{type(exc).__name__}: {exc}"
            cats[call.category] += time.perf_counter() - t0
            problems.extend(checker.check(call, code, out.getvalue(), err.getvalue(), error,
                                          out_path, csv_path))

    if tracer:
        tracer.op = op_id
        op = tracer.wrap(tracing.ROOT, op)
    if probe:
        timing = probe.run(op)
        timing["op_s"] = timing.pop("wall_s")
        return timing, cats, problems
    t_op = time.perf_counter()
    op()
    return {"op_s": time.perf_counter() - t_op}, cats, problems


# ---------------------------------------------------------------------------
# Per-layer metrics

def _med(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_metrics(summaries: list[dict], eig_durations: list[float], kernel: dict,
                  untraced: dict[str, float], context: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as name -> (value, unit); per-op values are medians
    over the traced ops, except ``untraced`` (medians over untraced ops)."""
    def calls(name):
        return _med(s["calls"].get(name, 0) for s in summaries)

    def self_s(name):
        return _med(s["self_s"].get(name, 0.0) for s in summaries)

    m: dict[str, tuple[float, str]] = {}
    eig = "linalg.eig_hermitian"
    m[f"{eig}.calls"] = (calls(eig), "count")
    m[f"{eig}.self_s"] = (self_s(eig), "s")
    q = statistics.quantiles(eig_durations, n=100) if len(eig_durations) > 1 else [0.0] * 99
    m[f"{eig}.p50_us"] = (q[49] * 1e6, "us")
    m[f"{eig}.p99_us"] = (q[98] * 1e6, "us")
    for d in EIG_DIMS:
        m[f"{eig}.calls.d{d}"] = (_med(s["eig_dims"].get(d, 0) for s in summaries), "count")
    m[f"{eig}.calls.d_other"] = (_med(sum(c for d, c in s["eig_dims"].items()
                                          if d not in EIG_DIMS) for s in summaries), "count")
    m["linalg.mat_fn.self_s"] = (self_s("linalg.mat_fn"), "s")
    for d in KERNEL_DIMS:
        m[f"linalg.eig_d{d}_us"] = (kernel[d], "us")

    for f in ("cq_sandwiched_renyi", "sandwiched_renyi", "fidelity", "trace_distance",
              "von_neumann_entropy"):
        m[f"divergences.{f}.calls"] = (calls(f"divergences.{f}"), "count")
        m[f"divergences.{f}.self_s"] = (self_s(f"divergences.{f}"), "s")
    for f in ("induced_states", "optimize_bound", "bound_report"):
        m[f"oneshot.{f}.self_s"] = (self_s(f"oneshot.{f}"), "s")
    lookups = calls("oneshot.InducedStates.divergence")
    misses = _med(s["cq_from_cache_miss"] for s in summaries)
    m["oneshot.divergence_cache.hit_ratio"] = (1.0 - misses / lookups if lookups else 0.0,
                                               "ratio")

    for f in ("distinct_eigenspaces", "decoder_projector_blocks", "projector_geq"):
        m[f"pinching.{f}.calls"] = (calls(f"pinching.{f}"), "count")
        m[f"pinching.{f}.self_s"] = (self_s(f"pinching.{f}"), "s")
    for f in ("build_decoder", "ideal_error_prob", "uhlmann_penalty", "covert_p2",
              "covert_distance"):
        m[f"protocol.{f}.self_s"] = (self_s(f"protocol.{f}"), "s")
    trials = context["quantum_trials"]
    for f in ("covert_p2", "covert_distance"):
        m[f"protocol.{f}.calls_per_trial"] = (calls(f"protocol.{f}") / trials if trials else 0.0,
                                              "1/trial")
    mc_s = _med(s["total_s"].get("protocol.monte_carlo_verify", 0.0) for s in summaries)
    m["protocol.trials_per_s"] = (trials / mc_s if mc_s else 0.0, "1/s")

    for f in ("exact_warden_distribution", "gp_encode", "transmit", "ml_decode",
              "sample_classical_codebook", "resolvability_oracle"):
        m[f"classical.{f}.self_s"] = (self_s(f"classical.{f}"), "s")
    m["classical.encoding_failure_ratio"] = (context["encoding_failure_ratio"], "ratio")
    m["classical.warden_terms"] = (context["warden_terms"], "count")

    for f in ("cc_csk_region", "csc_csk_region", "corollary_rates",
              "classical_region_evaluate", "fm_projection_grid"):
        m[f"regions.{f}.self_s"] = (self_s(f"regions.{f}"), "s")
    for f in ("pinching", "dataprocessing", "fm", "reduction"):
        m[f"verify.suite_{f}.self_s"] = (self_s(f"verify.suite_{f}"), "s")
    m["sampling.random_density.calls"] = (calls("sampling.random_density"), "count")
    m["sampling.random_density.self_s"] = (self_s("sampling.random_density"), "s")
    m["specio.load_spec.calls"] = (calls("specio.load_spec"), "count")
    m["specio.load_spec.self_s"] = (self_s("specio.load_spec"), "s")
    m["specio.RunReport.to_json.self_s"] = (self_s("specio.RunReport.to_json"), "s")
    m["states.DensityMatrix.validate.calls"] = (calls("states.DensityMatrix.validate"), "count")
    m["states.DensityMatrix.validate.self_s"] = (self_s("states.DensityMatrix.validate"), "s")
    m["cli.self_s"] = (self_s("cli.main"), "s")
    for name in CAT_METRICS:
        m[name] = (untraced[name], "s")

    traced_op_s = _med(s["op_s"] for s in summaries)
    m["trace.op_s"] = (traced_op_s, "s")
    m["trace.overhead_ratio"] = (traced_op_s / untraced["op_s"] - 1.0, "ratio")
    m["trace.coverage_ratio"] = (_med(s["top_level_s"] / s["op_s"] for s in summaries), "ratio")
    return m


# ---------------------------------------------------------------------------
# One workload

def run_workload(args) -> int:
    sys.path.insert(0, SRC)
    import covertq
    from covertq import cli
    from covertq.linalg import eig_hermitian

    if os.path.dirname(os.path.dirname(os.path.abspath(covertq.__file__))) != SRC:
        fail(f"covertq was imported from {covertq.__file__}, not from {SRC}")
    import checks
    import workloads

    env = environment()
    os.makedirs(TMP_DIR, exist_ok=True)
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP_DIR)
    try:
        specs = workloads.prepare_specs(args.workload, ROOT, workdir, args.seed)
        try:
            generator = workloads.self_check(args.workload, specs, args.seed)
        except workloads.GeneratorError as exc:
            fail(f"generated instance for seed {args.seed} failed its self-check: {exc}", 3)
        spec_paths = list(specs.values())
        rejected = 1 if args.workload == "fixtures_cli" else 0

        calls = workloads.op_calls(args.workload, specs, workdir, args.seed)
        if args.workload == "fixtures_cli":
            checker = checks.OpChecker(reference=checks.load_reference())
        elif args.workload == "synthetic_quantum":
            expected = checks.quantum_expected(workloads.read_doc(specs["synthetic"]))
            checker = checks.OpChecker(expected=expected)
        else:
            checker = checks.OpChecker()
        context = {
            "quantum_trials": sum(int(_flag_value(c.argv, "--trials")) for c in calls
                                  if c.command == "simulate" and "quantum" in c.argv),
            "warden_terms": sum(workloads.warden_terms(workloads.read_doc(
                _flag_value(c.argv, "--spec"))) for c in calls
                if c.command == "simulate" and "classical" in c.argv),
        }

        tracer = tracing.Tracer() if args.trace else None
        probe = None if tracer else speed.SpeedProbe()
        rows, problems, summaries, setup = [], [], [], []
        failed = 0
        # Closed loop: start the next op only if it is expected to end in time.
        # Set-up probes run between the first ops of an untraced run, so that
        # they sample the machine over the run, not in one burst.
        deadline = time.perf_counter() + args.seconds
        while len(rows) < (2 if tracer else 1) or (
                time.perf_counter() + _med(r["op_s"] for r in rows) <= deadline):
            if not tracer and len(setup) < SETUP_PROBES:
                setup.append(setup_sample(spec_paths, rejected))
            traced = bool(tracer) and len(rows) % 2 == 1
            if traced:
                first_span = len(tracer.spans)
                tracer.install()
                try:
                    timing, cats, op_problems = run_op(cli, calls, checker, tracer, len(rows))
                finally:
                    tracer.uninstall()
                summaries.append(tracing.op_summary(tracer.spans[first_span:], first_span))
            else:
                timing, cats, op_problems = run_op(cli, calls, checker, probe=probe)
            failed += bool(op_problems)
            problems += op_problems
            rows.append({**timing, "traced": traced, **cats, "problems": len(op_problems)})

        while not tracer and len(setup) < SETUP_PROBES:
            setup.append(setup_sample(spec_paths, rejected))
        untraced = [r for r in rows if not r["traced"]]
        medians = {k: _med(r[k] for r in untraced) for k in ("op_s", *CAT_METRICS)}
        result_metrics: dict[str, tuple[float, str]] = {}
        if tracer:
            kernel = tracing.kernel_table(eig_hermitian, KERNEL_DIMS, seed=args.seed)
            eig_durations = [s[2] - s[1] for s in tracer.spans if s[0] == tracing.EIG]
            rates = [doc["results"].get("end_to_end", {}).get("encoding_failure_rate", 0.0)
                     for key, doc in checker.docs.items()
                     if key.startswith("simulate.classical")]
            context["encoding_failure_ratio"] = statistics.fmean(rates) if rates else 0.0
            result_metrics = layer_metrics(summaries, eig_durations, kernel, medians, context)
            coverage = result_metrics["trace.coverage_ratio"][0]
            if coverage < COVERAGE_MIN:
                problems.append(f"top-level spans cover {coverage:.3f} of the traced op time")
            tracer.write(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-spans.csv.gz"))
        else:
            result_metrics["setup_s"] = (statistics.median(setup), "s")
            result_metrics["op_norm_s"] = (_med(r["norm_s"] for r in untraced), "s")
            result_metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = not problems
    env["machine_ref_s_end"] = machine_ref_s()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "generator": generator,
              "setup_samples_s": setup, "ops": rows, "problems": problems[:50],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result_metrics.items()}}
    record_path = os.path.join(OUT_DIR,
                               f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for p in problems[:10]:
        print(f"perfbench: FAILED CHECK {p}", file=sys.stderr)
    times = [r["op_s"] for r in untraced]
    print(f"covertq benchmark  workload={args.workload} seed={args.seed} trace={args.trace} "
          f"ops={len(rows)} failed={failed} failed_ops_ratio={failed / len(rows):g}")
    print(f"  {len(times)} untraced ops: wall op_s median {medians['op_s']:.4f} s, "
          f"min {min(times):.4f} s, max {max(times):.4f} s; "
          f"median per op of analytic {medians['cli.analytic_s']:.4f} s, "
          f"simulate {medians['cli.simulate_s']:.4f} s, verify {medians['cli.verify_s']:.4f} s"
          + (f"; set-up samples from {len(setup)} fresh interpreters" if setup else ""))
    if probe:
        print(f"  speed probe: reference kernel {_med(r['kernel_s'] for r in untraced) * 1e3:.4f}"
              f" ms (nominal {speed.NOMINAL_KERNEL_S * 1e3:g} ms), "
              f"{_med(r['samples'] for r in untraced):.0f} samples per op taking "
              f"{_med(r['probe_s'] / r['op_s'] for r in untraced):.1%} of its wall time")
    print(f"  environment: nproc {env['nproc']}, python {env['python']}, numpy {env['numpy']}, "
          f"BLAS threads 1, machine reference loop {env['machine_ref_s']:.4f} s at start and "
          f"{env['machine_ref_s_end']:.4f} s at end (record in {os.path.relpath(record_path)})")
    for name, (value, unit) in result_metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": len(rows), "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process; combine their result lines."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in _workload_names():
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        res = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
        sys.stderr.write(res.stderr)
        lines = res.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if res.returncode != 0 or not lines:
            status = res.returncode or 1
            total["correct"] = False
            continue
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(total))
    return status


def _workload_names():
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS
    return WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "covertq", "__init__.py")):
        fail(f"no covertq sources under {SRC}; run from a source checkout")
    for var in THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    names = _workload_names()
    if args.workload not in (*names, "all"):
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(names)} or all")
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
