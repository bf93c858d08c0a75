#!/usr/bin/env python3
"""Time covertq layer by layer and call by call; write ``BENCH_<label>.json``.

    python scripts/bench.py --label NAME [--root TREE] [--against OTHER] [--repeats N]

``TREE`` (default: this checkout) is the source tree to time: ``covertq`` is
imported from its ``src/`` and the workload calls from its
``perfbench/workloads.py``, which is read, never changed.  So a second copy
of an older commit (``git archive``) is timed with the same cases.  With
``--against OTHER``, TREE and OTHER are timed in one run by two worker
processes whose rounds alternate (TREE first in even rounds, OTHER first in
odd ones), so both see the same drifts of machine load; the file then
holds, per case, both medians and their ratio, and the median and IQR of
the per-round ratios (``against.norm_round_ratio``): a ratio of medians
further from 1 than that IQR is a change, one within it is noise.

Cases (each timed in every round, rounds repeated ``N`` times, so drifts in
machine load reach every case alike):

- ``pinching.distinct_eigenspaces``: the sigma stacks of the ``pinching``
  verify suite (seed 1, one stack per dimension 2..6);
- ``divergences.sandwiched_renyi.one_order`` and ``.six_orders``: the
  ``dataprocessing`` suite's pairs (seed 1, one stack per dimension 2..4) at
  order 1.25, and at its six batched orders as one order array;
- ``sampling.ginibre_states``: the states of those pinching-suite draws
  (sigma, rho and rho2 of each case, one stack per dimension 2..6), and
  ``sampling.ginibre_kraus``: the Kraus stacks of the dataprocessing suite's
  random channels (d -> d, environment d; one stack per dimension 2..4);
- ``linalg.eig_hermitian.d<d>`` and ``.d<d>x64``: the eigensolver on one
  seeded Ginibre state of dimension d = 2, 4, 8, 16, 32, and on a seeded
  stack of 64 of them;
- ``regions.fm_projection_grid.n10`` / ``.n40`` / ``.n80``: one grid of n
  points per rate axis;
- ``specio.load_spec.<fixture>``: every bundled fixture, and the perfbench
  synthetic A4 S8 B8 E4 spec (8 labels, generator seed 3);
- ``verify.<suite>``: each invariant suite at seed 1;
- ``protocol.monte_carlo_verify.qubit_cnot`` and ``.synthetic``: the Monte
  Carlo of ``simulate --target quantum`` (seed 1, per-trial lists not kept)
  on the ``qubit_cnot`` fixture at 200 trials and on the synthetic spec at
  100 trials, called directly;
- ``oneshot.induced_states.qubit_cnot`` and ``.synthetic``: the channel-output
  marginals that every ``bound`` command and the quantum Monte Carlo derive
  first, on the same two specs;
- ``classical.end_to_end_error.n7``, ``classical.exact_warden_distribution.n7``
  and ``classical.resolvability_oracle.n7``: the three stages of a
  ``simulate --target classical`` call on the ``classical_n7`` spec
  (blocklength 7, 1000 trials, seed 1), called directly;
- ``classical._ml_indices.n7``: the stacked decode of that simulation's
  first chunk (15 trials at seed 1), with the arguments it is called with;
- ``sampling._symbols.codebook_n7`` and ``sampling._symbols.bins_n7``: the
  inverse-CDF sampler's two forms on the draws of that simulation: one
  trial's (3, 103, 2, 7) codebook block under the codeword CDF (the loop over
  entries), and one 15-trial chunk's bin draw, 15 uniforms under 15 CDFs of
  J*K = 309 bins (the broadcast);
- ``cli.<key>``: every call of one ``fixtures_cli`` op (seed 1),
  ``cli.synthetic_quantum.<key>`` every call of one ``synthetic_quantum`` op
  on the synthetic spec (seed 1; 8 calls), and ``cli.classical_n7.<key>``
  every call of one ``classical_n7`` op (seed 1), each checked against its
  expected exit code;
- ``startup.load_fixtures`` and ``startup.cli.<key>``: one fresh interpreter
  per sample, timed from its start to its exit.  The first runs the set-up
  probe of ``perfbench/setup_probe.py`` (import covertq, load the four
  fixtures); the others run one ``fixtures_cli`` call each (``divergence``,
  ``bound --which lemma1``, ``region --which thm6`` and ``simulate --target
  classical``) as the console script does.  Each records
  ``bytecode_written``: whether the tree held this interpreter's compiled
  covertq modules after the case ran, so that every sample after the first
  read them instead of compiling the source (``PYTHONDONTWRITEBYTECODE``
  decides it, unless an earlier run left them there).

Each case reports the median and the interquartile range of its per-call
seconds (a sample repeats a fast call until it spans about 2 ms), as wall
time (``wall_*``) and scaled to nominal machine speed (``norm_*``) by the
reference kernel of ``perfbench/speed.py``, timed before each sample: on a
shared host the speed of one process drifts between runs, and runs of two
trees are compared on the scaled times.  The file also records the machine,
numpy and its BLAS, the BLAS thread variables (set to 1 here before numpy
is imported) and ``sys.dont_write_bytecode``, and, per case, the ratio of
its scaled median to that of the newest other ``BENCH_*.json`` at the root
of this checkout, where the file is written.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported, or BLAS has started its threads
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import glob  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
SEED = 1
SAMPLE_S = 0.002  # a sample repeats a faster call until it spans this long
DATAPROCESSING_ORDERS = (1.1, 1.25, 1.4, 0.8, 1.2, 1.5)
# fixtures_cli calls timed in fresh interpreters
STARTUP_CALLS = ("divergence.sandwiched", "bound.lemma1", "region.thm6", "simulate.classical")
CONSOLE = "import sys; from covertq.cli import main; sys.exit(main(sys.argv[1:]))"


def suite_draws(np):
    """The normal draws of the pinching suite (sigma, rho and rho2 of each
    case) and of the dataprocessing suite (each case's (rho, sigma) pair and
    random-channel square) at seed 1, drawn as the suites draw them, as
    ``(d, stack)`` pairs with one stack per dimension."""
    rng = np.random.default_rng(SEED)
    pinching: dict[int, list] = {}
    for _ in range(200):
        d = int(rng.integers(2, 7))
        pinching.setdefault(d, []).append(rng.normal(size=(3, 2, d, d)))
    rng = np.random.default_rng(SEED)
    pairs: dict[int, list] = {}
    squares: dict[int, list] = {}
    for _ in range(100):
        d = int(rng.integers(2, 5))
        pairs.setdefault(d, []).append(rng.normal(size=(2, 2, d, d)))
        squares.setdefault(d, []).append(rng.normal(size=(2, d * d, d * d)))
    return [[(d, np.stack(g)) for d, g in sorted(groups.items())]
            for groups in (pinching, pairs, squares)]


def build_cases(root: str, workdir: str) -> dict:
    """Case name -> zero-argument callable."""
    import numpy as np

    from covertq import classical, cli
    from covertq.classical import (end_to_end_error, exact_warden_distribution,
                                   resolvability_oracle, sample_classical_codebook,
                                   warden_rows)
    from covertq.config import code_size
    from covertq.divergences import sandwiched_renyi
    from covertq.errors import CovertqError
    from covertq.linalg import eig_hermitian
    from covertq.oneshot import induced_states
    from covertq.pinching import distinct_eigenspaces
    from covertq.protocol import monte_carlo_verify
    from covertq.regions import fm_projection_grid
    from covertq.sampling import _cdf, _symbols, ginibre_kraus, ginibre_states
    from covertq.specio import load_spec
    from covertq.verify import SUITES, run_suite
    import workloads

    pinching, pair_draws, squares = suite_draws(np)
    sigmas = [ginibre_states(g[:, 0]) for _, g in pinching]
    pairs = [np.moveaxis(ginibre_states(g), 1, 0) for _, g in pair_draws]
    orders = np.array(DATAPROCESSING_ORDERS)[:, None]
    cases = {
        "pinching.distinct_eigenspaces": lambda: [distinct_eigenspaces(s) for s in sigmas],
        "divergences.sandwiched_renyi.one_order":
            lambda: [sandwiched_renyi(r, s, 1.25) for r, s in pairs],
        "divergences.sandwiched_renyi.six_orders":
            lambda: [sandwiched_renyi(r, s, orders) for r, s in pairs],
        "sampling.ginibre_states": lambda: [ginibre_states(g) for _, g in pinching],
        "sampling.ginibre_kraus": lambda: [ginibre_kraus(g, d, d) for d, g in squares],
    }
    rng = np.random.default_rng(SEED)
    for d in (2, 4, 8, 16, 32):
        one = ginibre_states(rng.normal(size=(2, d, d)))
        stack = ginibre_states(rng.normal(size=(64, 2, d, d)))
        cases[f"linalg.eig_hermitian.d{d}"] = lambda m=one: eig_hermitian(m)
        cases[f"linalg.eig_hermitian.d{d}x64"] = lambda m=stack: eig_hermitian(m)
    for n in (10, 40, 80):  # b = (n - 1) * step; a and c on the grid inside it
        b = 0.02 * (n - 1)
        a, c = 0.02 * round(0.3 * (n - 1)), 0.02 * round(0.4 * (n - 1))
        cases[f"regions.fm_projection_grid.n{n}"] = \
            lambda a=a, b=b, c=c: fm_projection_grid(a, b, c, 0.02)

    specs = workloads.prepare_specs("fixtures_cli", root, workdir, SEED)
    fixtures = list(specs.values())  # what the fixtures_cli set-up probe loads
    specs["synthetic"] = workloads.write_spec(workloads.synthetic_quantum_doc(3),
                                              os.path.join(workdir, "synthetic.json"))

    def load(path):
        try:
            load_spec(path)
        except CovertqError:  # a fixture that is meant to be rejected
            pass
    for name, path in sorted(specs.items()):
        cases[f"specio.load_spec.{name}"] = lambda path=path: load(path)
    for suite in SUITES:
        cases[f"verify.{suite}"] = lambda suite=suite: run_suite(suite, SEED)
    for name, trials in (("qubit_cnot", 200), ("synthetic", 100)):
        q = load_spec(specs[name])
        cases[f"protocol.monte_carlo_verify.{name}"] = lambda q=q, trials=trials: \
            monte_carlo_verify(q.ensemble, q.instance, q.protocol_rates(), trials, SEED,
                               keep_trials=False, cfg=q.cfg)
        cases[f"oneshot.induced_states.{name}"] = lambda q=q: \
            induced_states(q.ensemble, q.instance.channel, q.cfg)

    # the stages of simulate --target classical, with the arguments it derives
    n7 = workloads.prepare_specs("classical_n7", root, workdir, SEED)
    spec = load_spec(n7["classical_n7"])
    problem, policy, cfg, n = spec.problem, spec.policy, spec.cfg, spec.run["blocklength"]
    p_u = problem.q_s @ policy.p_u_s
    sizes = tuple(code_size(n * spec.rate(name)) for name in ("R_J", "R_K", "R"))
    codebook = sample_classical_codebook(p_u, sizes, n, SEED, cfg)
    rows = warden_rows(problem, policy)
    cases["classical.end_to_end_error.n7"] = \
        lambda: end_to_end_error(problem, policy, p_u, sizes, n, 1000, SEED, cfg=cfg)
    cases["classical.exact_warden_distribution.n7"] = \
        lambda: exact_warden_distribution(codebook, problem, policy, p_u, cfg=cfg)
    cases["classical.resolvability_oracle.n7"] = \
        lambda: resolvability_oracle(p_u, rows, spec.rate("R"), n, mode="mc", trials=1000,
                                     seed=SEED, cfg=cfg)
    chunk, ml_indices = [], classical._ml_indices
    classical._ml_indices = lambda *args: chunk.append(args) or ml_indices(*args)
    try:  # the first chunk: 15 trials at this blocklength and warden_cap
        end_to_end_error(problem, policy, p_u, sizes, n, 15, SEED, cfg=cfg)
    finally:
        classical._ml_indices = ml_indices
    cases["classical._ml_indices.n7"] = lambda: ml_indices(*chunk[0])
    rng = np.random.default_rng(SEED)
    cdf_u, u_code = _cdf(p_u), rng.random((*sizes, n))
    cdf_bins, u_bins = _cdf(rng.random((15, sizes[0] * sizes[1]))), rng.random(15)
    cases["sampling._symbols.codebook_n7"] = lambda: _symbols(cdf_u, u_code)
    cases["sampling._symbols.bins_n7"] = lambda: _symbols(cdf_bins, u_bins)

    def run_call(call):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(call.argv))
        if code != call.expect_exit:
            raise SystemExit(f"bench: {call.key} exited {code}, expected {call.expect_exit}")
    for call in workloads.op_calls("fixtures_cli", specs, workdir, SEED):
        cases[f"cli.{call.key}"] = lambda call=call: run_call(call)
        if call.key in STARTUP_CALLS:
            cases[f"startup.cli.{call.key}"] = lambda call=call: fresh_interpreter(
                root, ["-c", CONSOLE, *call.argv], call.expect_exit, call.key)
    synthetic = {"synthetic": specs["synthetic"]}
    for call in workloads.op_calls("synthetic_quantum", synthetic, workdir, SEED):
        cases[f"cli.synthetic_quantum.{call.key}"] = lambda call=call: run_call(call)
    for call in workloads.op_calls("classical_n7", n7, workdir, SEED):
        cases[f"cli.classical_n7.{call.key}"] = lambda call=call: run_call(call)
    probe = [os.path.join(root, "perfbench", "setup_probe.py"), os.path.join(root, "src")]

    def load_fixtures():
        out = fresh_interpreter(root, probe + fixtures, 0, "the set-up probe")
        if json.loads(out.splitlines()[-1])["rejected"] != 1:
            raise SystemExit(f"bench: the set-up probe did not reject one fixture: {out}")
    cases["startup.load_fixtures"] = load_fixtures
    return cases


def fresh_interpreter(root: str, argv: list[str], expect_exit: int, what: str) -> str:
    """Run ``python argv`` with ``root``'s ``src/`` first on the path; check
    its exit code and return its stdout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.join(root, "src"), os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True,
                         timeout=120)
    if res.returncode != expect_exit:
        raise SystemExit(f"bench: {what} in a fresh interpreter exited {res.returncode}, "
                         f"expected {expect_exit}: {res.stderr.strip()[-400:]}")
    return res.stdout


def bytecode_written(root: str) -> bool:
    """Whether ``root``'s ``src/covertq`` holds this interpreter's compiled modules."""
    tag = sys.implementation.cache_tag
    return bool(glob.glob(os.path.join(root, "src", "covertq", "__pycache__", f"*.{tag}.pyc")))


def sample_sizes(cases: dict) -> dict:
    """Warm every case up; return the calls per sample that span ``SAMPLE_S``."""
    inner = {}
    for name, fn in cases.items():
        t0 = time.perf_counter()
        fn()
        inner[name] = max(1, int(SAMPLE_S / max(time.perf_counter() - t0, 1e-9)))
    return inner


def one_round(cases: dict, inner: dict, probe) -> dict:
    """One sample of every case: its (wall, scaled) seconds per call."""
    out = {}
    for name, fn in cases.items():
        n = inner[name]
        res = probe.run(lambda: [fn() for _ in range(n)])
        out[name] = (res["wall_s"] / n, res["norm_s"] / n)
    return out


def spread(xs: list[float]) -> tuple[float, float]:
    """Median and interquartile range of ``xs``."""
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return med, q3 - q1


def summarize(rounds: list[dict], inner: dict) -> dict:
    """Per case: median and IQR of its per-call seconds over the rounds, in
    wall seconds and scaled to nominal machine speed."""
    out = {}
    for name in rounds[0]:
        pairs = [r[name] for r in rounds]
        out[name] = {"calls_per_sample": inner[name], "samples": len(pairs)}
        for key, xs in (("wall", [w for w, _ in pairs]), ("norm", [s for _, s in pairs])):
            med, iqr = spread(xs)
            out[name].update({f"{key}_median_s": med, f"{key}_iqr_s": iqr})
    return out


def measure(cases: dict, repeats: int) -> dict:
    """Median and IQR of every case over ``repeats`` rounds, each round
    timing every case once, under perfbench's reference kernel."""
    import speed

    inner = sample_sizes(cases)
    probe = speed.SpeedProbe()
    return summarize([one_round(cases, inner, probe) for _ in range(repeats)], inner)


def serve(root: str) -> int:
    """Worker of ``--against``: build and size the cases of ``root``, then
    time one round per ``round`` line read from stdin, answering each with
    one JSON line; everything else the cases print goes to stderr."""
    import speed

    reply = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    with reply, tempfile.TemporaryDirectory() as workdir:
        cases = build_cases(root, workdir)
        inner = sample_sizes(cases)
        probe = speed.SpeedProbe()
        print(json.dumps({"inner": inner, "bytecode_written": bytecode_written(root)}),
              file=reply, flush=True)
        for line in sys.stdin:
            if line.strip() != "round":
                break
            print(json.dumps(one_round(cases, inner, probe)), file=reply, flush=True)
    return 0


def measure_against(roots: tuple[str, str], repeats: int) -> tuple[list[dict], dict]:
    """Results of the two trees, timed by two workers whose rounds alternate,
    and per case the median and IQR of the per-round ratios of their scaled
    times (first tree over second)."""
    def ask(worker, line=None):
        if line is not None:
            worker.stdin.write(line + "\n")
            worker.stdin.flush()
        reply = worker.stdout.readline()
        if not reply:
            raise SystemExit(f"bench: the worker timing {worker.args[-1]} stopped")
        return json.loads(reply)
    workers, heads = [], []
    try:
        for root in roots:  # one after the other, so that their warm-ups do not overlap
            workers.append(subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), "--worker", "--label", "worker",
                 "--root", root], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True))
            heads.append(ask(workers[-1]))
        rounds: list[list[dict]] = [[], []]
        for r in range(repeats):
            for i in ((0, 1) if r % 2 == 0 else (1, 0)):
                rounds[i].append(ask(workers[i], "round"))
    finally:
        for w in workers:
            w.stdin.close()
            w.wait()
    results = []
    for head, rs in zip(heads, rounds):
        res = summarize(rs, head["inner"])
        for name in res:
            if name.startswith("startup."):
                res[name]["bytecode_written"] = head["bytecode_written"]
        results.append(res)
    ratios = {}
    for name in (n for n in results[0] if n in results[1]):
        med, iqr = spread([a[name][1] / b[name][1] for a, b in zip(*rounds)])
        ratios[name] = {"median": med, "iqr": iqr}
    return results, ratios


def cpu_model() -> str | None:
    """The CPU model name that Linux reports, if any."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            return next((line.split(":", 1)[1].strip() for line in fh
                         if line.startswith("model name")), None)
    except OSError:
        return platform.processor() or None


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):  # numpy < 1.26 prints its config only
        blas = None
    return {"machine": platform.machine(), "cpu": cpu_model(),
            "system": platform.system(), "cpus": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
            "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "dont_write_bytecode": sys.dont_write_bytecode}


def newest_baseline(label: str) -> str | None:
    """The newest ``BENCH_*.json`` of this checkout other than ``label``'s."""
    paths = [p for p in glob.glob(os.path.join(REPO, "BENCH_*.json"))
             if os.path.basename(p) != f"BENCH_{label}.json"]
    dated = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            dated.append((json.load(fh).get("created", ""), path))
    return max(dated)[1] if dated else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    parser.add_argument("--root", default=REPO, help="source tree to time (default: this one)")
    parser.add_argument("--against", help="a second source tree, timed in alternating rounds")
    parser.add_argument("--repeats", type=int, default=21)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    root = os.path.abspath(args.root)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    if args.worker:
        return serve(root)

    doc = {"label": args.label, "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
           "repeats": args.repeats, "environment": environment()}
    if args.against:
        other = os.path.abspath(args.against)
        (results, theirs), round_ratio = measure_against((root, other), args.repeats)
        doc["against"] = {
            "tree": os.path.basename(other.rstrip(os.sep)) or other, "cases": theirs,
            "norm_median_ratio": {name: res["norm_median_s"] / theirs[name]["norm_median_s"]
                                  for name, res in results.items() if name in theirs},
            "norm_round_ratio": round_ratio}
    else:
        with tempfile.TemporaryDirectory() as workdir:
            results = measure(build_cases(root, workdir), args.repeats)
        for name in results:
            if name.startswith("startup."):
                results[name]["bytecode_written"] = bytecode_written(root)
    doc["cases"] = results
    baseline = newest_baseline(args.label)
    if baseline:
        with open(baseline, encoding="utf-8") as fh:
            base = json.load(fh)
        doc["baseline"] = {
            "label": base["label"],
            "norm_median_ratio": {
                name: res["norm_median_s"] / base["cases"][name]["norm_median_s"]
                for name, res in results.items() if name in base["cases"]}}
    path = os.path.join(REPO, f"BENCH_{args.label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    width = max(map(len, results))
    ratios = doc.get("baseline", {}).get("norm_median_ratio", {})
    against = doc.get("against", {}).get("norm_median_ratio", {})
    round_ratio = doc.get("against", {}).get("norm_round_ratio", {})
    for name, res in results.items():
        ratio = f"  x{ratios[name]:.3f}" if name in ratios else ""
        if name in against:
            ratio += (f"  against x{against[name]:.3f} (rounds x{round_ratio[name]['median']:.3f}"
                      f" iqr {round_ratio[name]['iqr']:.3f})")
        print(f"{name:<{width}}  {res['norm_median_s'] * 1e3:9.3f} ms  "
              f"iqr {res['norm_iqr_s'] * 1e3:7.3f} ms{ratio}")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
