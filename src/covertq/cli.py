"""Batch command-line front door.

One command per invocation; every command reads a JSON spec file, runs
deterministically for a fixed seed, and emits a JSON report (stdout, and
``--out`` for an atomic file write).  Exit codes: 0 success, 1 property
failure, 2 parse error, 3 dimension/validation error, 4 covertness
infeasible, 5 size cap exceeded, 6 bad run parameters or an internal
error (reported on one line, without a traceback).

Each ``cmd_*`` loads its spec, computes, and returns ``(config, results,
verdicts)``; :func:`main` alone times the command, builds and emits the
report, and chooses the exit code.  Each ``cmd_*`` imports the analysis
modules it calls once its spec has loaded, so one invocation compiles only
what its command runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys
import time
from typing import TYPE_CHECKING

import numpy as np

from .config import DEFAULT, ProtocolRates, code_size
from .errors import (
    CapExceeded,
    CovertInfeasible,
    CovertqError,
    DimMismatch,
    NotADistribution,
    NotHermitian,
    NotPSD,
    OrderOutOfRange,
    ParseError,
    RunParameterError,
    SupportViolation,
)
from .specio import FIELDS, RunReport, SpecFile, _atomic_write, load_spec, write_region_csv

if TYPE_CHECKING:
    from .regions import RateRegion

# Exit code of each error type; the first matching row wins.  Exit 6 covers
# a bad run parameter (RunParameterError) and the other library errors.  Any
# other exception, a bare ValueError included, is a defect: it also exits 6,
# reported as internal, because exit 1 is reserved for property failures.
ERROR_CODES = (
    (ParseError, 2),
    ((DimMismatch, NotHermitian, NotPSD, NotADistribution, OrderOutOfRange,
      SupportViolation), 3),
    (CovertInfeasible, 4),
    (CapExceeded, 5),
    (CovertqError, 6),
)


def _write(flag: str, path: str, write) -> None:
    """``write(path)``; a path that cannot be written is a bad run parameter
    that names the flag (the atomic write leaves no temp file behind)."""
    try:
        write(path)
    except OSError as exc:
        raise RunParameterError(f"{flag} {path!r}: {exc.strerror or exc}") from None


def _emit(report: RunReport, out_path: str | None) -> None:
    """Encode the report once; write that text to ``--out``, then print it, so
    the file and stdout hold the same bytes.  A closed stdout ends the
    printing quietly."""
    text = report.to_json()
    if out_path:
        _write("--out", out_path, lambda path: _atomic_write(path, text + "\n"))
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the exit-time flush of the unwritten text then goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _rule(block: str, name: str):
    """argparse type: a number that keeps the rule of spec field ``block.name``."""
    what, ok = FIELDS[block][name]

    def parse(text: str):
        value = None
        for kind in (int, float):
            try:
                value = kind(text)
                break
            except ValueError:
                pass
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value
    return parse


def _need(spec: SpecFile, attr: str, what: str):
    val = getattr(spec, attr)
    if val is None:
        raise ParseError(f"{spec.path}: spec carries no {what}")
    return val


def cmd_divergence(args):
    spec = load_spec(args.spec)
    from .divergences import (fidelity, purified_distance, relative_entropy,
                              sandwiched_renyi, trace_distance)
    names = sorted(spec.states)
    a_name = args.a or (names[0] if names else None)
    b_name = args.b or (names[1] if len(names) > 1 else None)
    missing = [repr(n) for n in (a_name, b_name) if n is not None and n not in spec.states]
    if missing:
        raise ParseError(f"{spec.path}: the states block has no state {' or '.join(missing)}")
    if a_name is None or b_name is None:
        raise ParseError(f"{spec.path}: the spec holds {len(names)} named states, "
                         "fewer than the two a divergence compares")
    rho, sigma = spec.states[a_name], spec.states[b_name]
    measure = args.measure
    support_violation = False
    if measure in ("trace", "fidelity", "purified"):
        value = {"trace": trace_distance, "fidelity": fidelity,
                 "purified": purified_distance}[measure](rho, sigma, spec.cfg)
    else:  # relent, sandwiched
        if measure == "sandwiched" and args.order is None:
            raise RunParameterError("--order is required for the sandwiched measure")
        dv = (relative_entropy(rho, sigma, spec.cfg) if measure == "relent"
              else sandwiched_renyi(rho, sigma, args.order, spec.cfg))
        value, support_violation = dv.value, dv.support_violation
    config = {"spec": spec.path, "measure": measure, "order": args.order,
              "a": a_name, "b": b_name}
    return config, {"value": value, "support_violation": support_violation}, {}


def cmd_bound(args):
    spec = load_spec(args.spec)
    which = args.which
    if args.optimize and which not in ("thm1", "thm5"):
        raise RunParameterError(f"--optimize applies to --which thm1 and thm5, not {which}")
    from .oneshot import (bound_orders, bound_report, default_alpha_grid, induced_states,
                          optimize_bound, verification_bounds)
    ensemble = _need(spec, "ensemble", "ensemble")
    instance = _need(spec, "instance", "channel instance")
    rates = spec.protocol_rates(args.alpha)
    st = induced_states(ensemble, instance.channel, spec.cfg)
    if which in ("thm1", "thm5"):
        results = dataclasses.asdict(
            bound_report(ensemble, instance, rates, spec.cfg, states=st))
        if args.optimize:
            rj_grid = spec.run.get("rj_grid", [0.0, 0.5, 1.0, 2.0, 4.0, 8.0])
            alpha_grid = spec.run.get("alpha_grid", default_alpha_grid().tolist())
            for marginal, orders in zip("SBE", zip(*map(bound_orders, alpha_grid))):
                st.fill(marginal, orders)  # the grid loop below only reads the cache

            def total(alpha: float, rj: float) -> float:
                vb = verification_bounds(st, ProtocolRates(rates.R, rates.R_K, rj, alpha),
                                         ("error_split", "key_trace"))
                return vb["error_split"] + vb["key_trace"]

            best_a, best_rj, best_v = optimize_bound(total, alpha_grid, rj_grid)
            results["optimized"] = {"alpha": best_a, "R_J": best_rj, "value": best_v}
    elif which == "lemma1":
        results = {"bound": verification_bounds(st, rates, ("resolvability",))["resolvability"],
                   "rate": rates.R, "alpha": rates.alpha}
    else:  # lemma2
        vb = verification_bounds(st, rates, ("miss", "false_alarm"))
        results = {"miss_bound": vb["miss"], "false_alarm_bound": vb["false_alarm"],
                   "total_rate": rates.total, "alpha": rates.alpha}
    config = {"spec": spec.path, "which": which, "alpha": args.alpha,
              "optimize": bool(args.optimize)}
    return config, results, {}


# Most scalarization weights of one region command: each is a report row.
SWEEP_CAP = 10_000


def _region_rows(region: RateRegion, sweep: int) -> list[dict]:
    rows = []
    for i in range(sweep):
        theta = 0.5 * np.pi * i / max(sweep - 1, 1)
        w_r, w_rk = float(np.cos(theta)), float(np.sin(theta))
        val, (r, rk) = region.scalarized_max(w_r, w_rk)
        active = [lab for lab, (a, b), bound in region.constraints
                  if abs(a * r + b * rk - bound) <= 1e-9]
        rows.append({"w_R": round(w_r, 12), "w_RK": round(w_rk, 12),
                     "R": r, "R_K": rk, "active": active, "value": val})
    return rows


def cmd_region(args):
    if args.sweep > SWEEP_CAP:
        raise CapExceeded(f"--sweep {args.sweep} exceeds the sweep cap {SWEEP_CAP}")
    if args.csv and args.which in ("corollaries", "thm3"):
        raise RunParameterError(f"--csv writes boundary rows, which --which {args.which} has none")
    spec = load_spec(args.spec)
    from .regions import (RateRegion, _build_region, _quantum_rows, _quantum_terms, causal_rate,
                          classical_region_evaluate, corollary_rates)
    which = args.which
    results: dict = {}
    rows: list[dict] = []

    if which in ("cc_csk", "csc_csk", "corollaries"):
        ensemble = _need(spec, "ensemble", "ensemble")
        instance = _need(spec, "instance", "channel instance")
        if which == "corollaries":
            results = corollary_rates(ensemble, instance.channel, instance=instance,
                                      stealth=args.stealth, cfg=spec.cfg)
        else:  # both regions from one evaluation of the Holevo terms
            terms, meta = _quantum_terms(ensemble, instance.channel, instance,
                                         args.stealth, spec.cfg)
            region = _build_region(_quantum_rows(which, terms), meta)
            if which == "csc_csk":
                other = _build_region(_quantum_rows("cc_csk", terms), meta)
                results["nested_in_cc_csk"] = all(
                    other.contains(r, k) for r, k in region.boundary)
            results["region"] = region.to_dict()
            rows = _region_rows(region, args.sweep)
    else:  # thm3, thm4, thm6, causal
        problem = _need(spec, "problem", "classical problem")
        policy = _need(spec, "policy", "auxiliary policy")
        if which == "causal":
            results = causal_rate(problem, [(problem.q_s @ policy.p_u_s, policy.p_a_us)],
                                  stealth=args.stealth, cfg=spec.cfg)
            rows = [{"w_R": 1.0, "w_RK": 0.0, "R": results["rate"], "R_K": 0.0,
                     "active": [], "value": results["rate"]}]
        else:
            key = {"thm3": "thm3", "thm4": "thm4_degraded", "thm6": "thm6"}[which]
            res = classical_region_evaluate(problem, policy, key,
                                            stealth=args.stealth, cfg=spec.cfg)
            if isinstance(res, RateRegion):
                results["region"] = res.to_dict()
                rows = _region_rows(res, args.sweep)
            else:
                results["value"] = res

    if rows:
        results["sweep"] = rows
    if args.csv:
        _write("--csv", args.csv, lambda path: write_region_csv(path, rows))
    config = {"spec": spec.path, "which": which, "stealth": bool(args.stealth),
              "sweep": args.sweep}
    return config, results, {}


def cmd_simulate(args):
    spec = load_spec(args.spec)
    cfg = spec.cfg if args.cap is None else spec.cfg.replaced(codebook_cap=args.cap)
    trials = args.trials if args.trials is not None else spec.run.get("trials", 0)
    seed = args.seed if args.seed is not None else spec.run.get("seed", 0)
    if trials < 30:
        raise RunParameterError(f"trials must be >= 30, got {trials}")
    if trials > cfg.trial_cap:
        raise CapExceeded(f"{trials} trials exceed trial_cap {cfg.trial_cap}")

    if args.target == "quantum":
        from .protocol import monte_carlo_verify
        ensemble = _need(spec, "ensemble", "ensemble")
        instance = _need(spec, "instance", "channel instance")
        rates = spec.protocol_rates(args.alpha)
        sim = monte_carlo_verify(ensemble, instance, rates, trials, seed,
                                 keep_trials=False, cfg=cfg)
        results = dataclasses.asdict(sim)
        del results["per_trial"]
        verdicts = sim.verdicts
    else:  # classical
        from .classical import (end_to_end_error, exact_warden_distribution,
                                resolvability_oracle, sample_classical_codebook, warden_rows)
        from .sampling import _verdict
        problem = _need(spec, "problem", "classical problem")
        policy = _need(spec, "policy", "auxiliary policy")
        n = spec.run.get("blocklength", 4)
        p_u = problem.q_s @ policy.p_u_s
        res = resolvability_oracle(p_u, warden_rows(problem, policy), spec.rate("R"), n,
                                   mode="mc", trials=trials, seed=seed, cfg=cfg)
        verdicts = {"resolvability": _verdict(res["estimate"], res["std_error"], res["bound"])}
        results = {"resolvability": res}
        if n <= 8:
            sizes = tuple(code_size(n * spec.rate(name)) for name in ("R_J", "R_K", "R"))
            err = end_to_end_error(problem, policy, p_u, sizes, n, trials, seed, cfg=cfg)
            cb = sample_classical_codebook(p_u, sizes, n, seed, cfg)
            wd = exact_warden_distribution(cb, problem, policy, p_u, cfg=cfg)
            results["end_to_end"] = err
            results["warden_tv"] = wd["tv_from_innocent"]
        else:
            results["skipped"] = {"results": ["end_to_end", "warden_tv"],
                                  "reason": f"blocklength {n} is above 8, the largest they run at"}
        results["seed"] = seed
    config = {"spec": spec.path, "target": args.target, "trials": trials,
              "seed": seed, "cap": args.cap}
    return config, results, verdicts


def cmd_verify(args):
    from .verify import run_suite
    config, channel, cfg, run = {"suite": args.suite}, None, DEFAULT, {}
    if args.spec:
        spec = load_spec(args.spec)
        config["spec"], cfg, run = spec.path, spec.cfg, spec.run
        if spec.instance is not None:
            channel = spec.instance.channel
    config["seed"] = args.seed if args.seed is not None else run.get("seed", 0)
    tallies = run_suite(args.suite, config["seed"], channel=channel, cfg=cfg)
    return config, {"suites": tallies}, {t["suite"]: t["failures"] == 0 for t in tallies}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.  Each subcommand NAME
    runs ``cmd_NAME``, looked up when the command runs."""
    parser = argparse.ArgumentParser(
        prog="covertq",
        description="Covert-communication bounds, rate regions, and protocol simulation.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p, spec_required=True):
        p.add_argument("--spec", required=spec_required, help="problem spec JSON file")
        p.add_argument("--out", default=None, help="write the JSON report here as well")
        p.add_argument("--seed", type=_rule("run", "seed"), default=None,
                       help="override the run seed")

    p = sub.add_parser("divergence", help="evaluate a distance or divergence")
    common(p)
    p.add_argument("--measure", required=True,
                   choices=["trace", "fidelity", "purified", "relent", "sandwiched"])
    p.add_argument("--order", type=float, default=None, help="Renyi order (1 + alpha)")
    p.add_argument("--a", default=None, help="name of the first state in the spec")
    p.add_argument("--b", default=None, help="name of the second state in the spec")

    p = sub.add_parser("bound", help="evaluate one-shot bounds")
    common(p)
    p.add_argument("--which", required=True,
                   choices=["thm1", "thm5", "lemma1", "lemma2"])
    p.add_argument("--alpha", type=_rule("rates", "alpha"), default=None)
    p.add_argument("--optimize", action="store_true",
                   help="grid-optimize over (alpha, R_J)")

    p = sub.add_parser("region", help="evaluate achievable rate regions")
    common(p)
    p.add_argument("--which", required=True,
                   choices=["cc_csk", "csc_csk", "thm3", "thm4", "thm6",
                            "causal", "corollaries"])
    p.add_argument("--sweep", type=_rule("run", "trials"), default=5,  # a count, like trials
                   help="number of scalarization weights for the boundary CSV")
    p.add_argument("--csv", default=None,
                   help="write boundary rows to this CSV (corollaries and thm3 have none)")
    p.add_argument("--stealth", action="store_true",
                   help="drop the innocent-output covertness constraint")

    p = sub.add_parser("simulate", help="Monte Carlo verification of the bounds")
    common(p)
    p.add_argument("--target", required=True, choices=["quantum", "classical"])
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--alpha", type=_rule("rates", "alpha"), default=None)
    p.add_argument("--cap", type=_rule("numerics", "codebook_cap"), default=None,
                   help="codebook size cap override")

    p = sub.add_parser("verify", help="run randomized invariant suites")
    common(p, spec_required=False)
    p.add_argument("--suite", default="all",
                   choices=["pinching", "dataprocessing", "fm", "reduction", "all"])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        config, results, verdicts = globals()[f"cmd_{args.cmd}"](args)
        _emit(RunReport(args.cmd, config, results, verdicts, time.perf_counter() - t0),
              args.out)
    except Exception as exc:
        code = next((c for types, c in ERROR_CODES if isinstance(exc, types)), None)
        detail = exc if code else f"internal {type(exc).__name__}: {exc}"
        print(f"error: {detail}", file=sys.stderr)
        return code or 6
    return 0 if all(verdicts.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
