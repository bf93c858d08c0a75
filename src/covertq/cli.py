"""Batch command-line front door.

One command per invocation; every command reads a JSON spec file, runs
deterministically for a fixed seed, and emits a JSON report (stdout, and
``--out`` for an atomic file write).  Exit codes: 0 success, 1 property
failure, 2 parse error, 3 dimension/validation error, 4 covertness
infeasible, 5 size cap exceeded, 6 bad run parameters or an internal
error (reported on one line, without a traceback).

Each ``cmd_*`` loads its spec, computes, and returns ``(config, results,
verdicts)``; :func:`main` alone times the command, builds and emits the
report, and chooses the exit code.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time

import numpy as np

from .classical import (
    end_to_end_error,
    exact_warden_distribution,
    resolvability_oracle,
    sample_classical_codebook,
    warden_rows,
)
from .config import DEFAULT, code_size
from .divergences import (
    fidelity,
    purified_distance,
    relative_entropy,
    sandwiched_renyi,
    trace_distance,
)
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
    SupportViolation,
)
from .oneshot import (
    ProtocolRates,
    bound_report,
    decoding_test_bounds,
    default_alpha_grid,
    induced_states,
    optimize_bound,
    resolvability_bound,
    verification_bounds,
)
from .protocol import monte_carlo_verify
from .regions import (
    causal_rate,
    cc_csk_region,
    classical_region_evaluate,
    corollary_rates,
    csc_csk_region,
    RateRegion,
)
from .specio import RunReport, SpecFile, load_spec, write_region_csv
from .verify import run_suite

# Exit code of each error type; the first matching row wins.  Any other
# exception is a defect and also exits 6, because exit 1 is reserved for
# property failures.
ERROR_CODES = (
    (ParseError, 2),
    ((DimMismatch, NotHermitian, NotPSD, NotADistribution, OrderOutOfRange,
      SupportViolation), 3),
    (CovertInfeasible, 4),
    (CapExceeded, 5),
    ((ValueError, CovertqError), 6),
)


def _emit(report: RunReport, out_path: str | None) -> None:
    """Write ``--out``, then print; a closed stdout ends the printing quietly."""
    if out_path:
        report.write(out_path)
    try:
        print(report.to_json(), flush=True)
    except BrokenPipeError:
        # the exit-time flush of the unwritten text then goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _int_at_least(least: int):
    """argparse type: an integer >= ``least``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = least - 1
        if value < least:
            raise argparse.ArgumentTypeError(f"must be an integer >= {least}, got {text!r}")
        return value
    return parse


def _need(spec: SpecFile, attr: str, what: str):
    val = getattr(spec, attr)
    if val is None:
        raise ParseError(f"{spec.path}: spec carries no {what}")
    return val


def cmd_divergence(args):
    spec = load_spec(args.spec)
    names = sorted(spec.states)
    a_name = args.a or (names[0] if names else None)
    b_name = args.b or (names[1] if len(names) > 1 else None)
    if a_name not in spec.states or b_name not in spec.states:
        raise ParseError(f"{spec.path}: states block must provide {args.a!r} and {args.b!r}")
    rho, sigma = spec.states[a_name], spec.states[b_name]
    measure = args.measure
    support_violation = False
    if measure == "trace":
        value = trace_distance(rho, sigma, spec.cfg)
    elif measure == "fidelity":
        value = fidelity(rho, sigma, spec.cfg)
    elif measure == "purified":
        value = purified_distance(rho, sigma, spec.cfg)
    elif measure == "relent":
        dv = relative_entropy(rho, sigma, spec.cfg)
        value, support_violation = dv.value, dv.support_violation
    else:  # sandwiched
        if args.order is None:
            raise ValueError("--order is required for the sandwiched measure")
        dv = sandwiched_renyi(rho, sigma, args.order, spec.cfg)
        value, support_violation = dv.value, dv.support_violation
    config = {"spec": spec.path, "measure": measure, "order": args.order,
              "a": a_name, "b": b_name}
    return config, {"value": value, "support_violation": support_violation}, {}


def cmd_bound(args):
    spec = load_spec(args.spec)
    ensemble = _need(spec, "ensemble", "ensemble")
    instance = _need(spec, "instance", "channel instance")
    which = args.which
    rates = spec.protocol_rates(args.alpha)
    st = induced_states(ensemble, instance.channel, spec.cfg)
    if which in ("thm1", "thm5"):
        results = dataclasses.asdict(
            bound_report(ensemble, instance, rates, spec.cfg, states=st))
        if args.optimize:
            rj_grid = spec.run.get("rj_grid", [0.0, 0.5, 1.0, 2.0, 4.0, 8.0])
            alpha_grid = spec.run.get("alpha_grid", default_alpha_grid().tolist())

            def total(alpha: float, rj: float) -> float:
                vb = verification_bounds(st, ProtocolRates(rates.R, rates.R_K, rj, alpha))
                return vb["error_split"] + vb["key_trace"]

            best_a, best_rj, best_v = optimize_bound(total, alpha_grid, rj_grid)
            results["optimized"] = {"alpha": best_a, "R_J": best_rj, "value": best_v}
    elif which == "lemma1":
        results = {"bound": resolvability_bound(st.cq_ue, rates.R, rates.alpha, spec.cfg),
                   "rate": rates.R, "alpha": rates.alpha}
    else:  # lemma2
        miss, alarm = decoding_test_bounds(st.cq_ub, rates, spec.cfg)
        results = {"miss_bound": miss, "false_alarm_bound": alarm,
                   "total_rate": rates.total, "alpha": rates.alpha}
    config = {"spec": spec.path, "which": which, "alpha": args.alpha,
              "optimize": bool(args.optimize)}
    return config, results, {}


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
    spec = load_spec(args.spec)
    which = args.which
    results: dict = {}
    rows: list[dict] = []

    if which in ("cc_csk", "csc_csk", "corollaries"):
        ensemble = _need(spec, "ensemble", "ensemble")
        instance = _need(spec, "instance", "channel instance")
        if which == "corollaries":
            results = corollary_rates(ensemble, instance.channel, instance=instance,
                                      stealth=args.stealth, cfg=spec.cfg)
        else:
            fn = cc_csk_region if which == "cc_csk" else csc_csk_region
            region = fn(ensemble, instance.channel, instance=instance,
                        stealth=args.stealth, cfg=spec.cfg)
            if which == "csc_csk":
                other = cc_csk_region(ensemble, instance.channel, instance=instance,
                                      stealth=args.stealth, cfg=spec.cfg)
                results["nested_in_cc_csk"] = all(
                    other.contains(r, k) for r, k in region.boundary)
            results["region"] = region.to_dict()
            rows = _region_rows(region, args.sweep)
    elif which in ("thm3", "thm4", "thm6"):
        problem = _need(spec, "problem", "classical problem")
        policy = _need(spec, "policy", "auxiliary policy")
        key = {"thm3": "thm3", "thm4": "thm4_degraded", "thm6": "thm6"}[which]
        res = classical_region_evaluate(problem, policy, key,
                                        stealth=args.stealth, cfg=spec.cfg)
        if isinstance(res, RateRegion):
            results["region"] = res.to_dict()
            rows = _region_rows(res, args.sweep)
        else:
            results["value"] = res
    else:  # causal
        problem = _need(spec, "problem", "classical problem")
        policy = _need(spec, "policy", "auxiliary policy")
        p_u = problem.q_s @ policy.p_u_s
        res = causal_rate(problem, [(p_u, policy.p_a_us)],
                          stealth=args.stealth, cfg=spec.cfg)
        results = res
        rows = [{"w_R": 1.0, "w_RK": 0.0, "R": res["rate"], "R_K": 0.0,
                 "active": [], "value": res["rate"]}]

    if rows:
        results["sweep"] = rows
    if args.csv and rows:
        write_region_csv(args.csv, rows)
    config = {"spec": spec.path, "which": which, "stealth": bool(args.stealth),
              "sweep": args.sweep}
    return config, results, {}


def cmd_simulate(args):
    spec = load_spec(args.spec)
    cfg = spec.cfg if args.cap is None else spec.cfg.replaced(codebook_cap=args.cap)
    trials = args.trials if args.trials is not None else spec.run.get("trials", 0)
    seed = args.seed if args.seed is not None else spec.run.get("seed", 0)
    if trials < 30:
        raise ValueError(f"trials must be >= 30, got {trials}")

    if args.target == "quantum":
        ensemble = _need(spec, "ensemble", "ensemble")
        instance = _need(spec, "instance", "channel instance")
        rates = spec.protocol_rates(args.alpha)
        sim = monte_carlo_verify(ensemble, instance, rates, trials, seed,
                                 keep_trials=False, cfg=cfg)
        results = dataclasses.asdict(sim)
        del results["per_trial"]
        verdicts = sim.verdicts
    else:  # classical
        problem = _need(spec, "problem", "classical problem")
        policy = _need(spec, "policy", "auxiliary policy")
        n = spec.run.get("blocklength", 4)
        p_u = problem.q_s @ policy.p_u_s
        res = resolvability_oracle(p_u, warden_rows(problem, policy), spec.rate("R"), n,
                                   mode="mc", trials=trials, seed=seed, cfg=cfg)
        verdicts = {"resolvability": res["estimate"] <= res["bound"]
                    + 3.0 * res["std_error"] + 1e-12}
        results = {"resolvability": res}
        if n <= 8:
            sizes = tuple(code_size(n * spec.rate(name)) for name in ("R_J", "R_K", "R"))
            err = end_to_end_error(problem, policy, p_u, sizes, n, trials, seed, cfg=cfg)
            cb = sample_classical_codebook(p_u, sizes, n, seed, cfg)
            wd = exact_warden_distribution(cb, problem, policy, p_u, cfg=cfg)
            results["end_to_end"] = err
            results["warden_tv"] = wd["tv_from_innocent"]
        results["seed"] = seed
    config = {"spec": spec.path, "target": args.target, "trials": trials,
              "seed": seed, "cap": args.cap}
    return config, results, verdicts


def cmd_verify(args):
    config, channel, cfg, run = {"suite": args.suite}, None, DEFAULT, {}
    if args.spec:
        spec = load_spec(args.spec)
        config["spec"], cfg, run = spec.path, spec.cfg, spec.run
        if spec.instance is not None:
            channel = spec.instance.channel
    config["seed"] = args.seed if args.seed is not None else run.get("seed", 0)
    tallies = run_suite(args.suite, config["seed"], channel=channel, cfg=cfg)
    return config, {"suites": tallies}, {t["suite"]: t["failures"] == 0 for t in tallies}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covertq",
        description="Covert-communication bounds, rate regions, and protocol simulation.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p, spec_required=True):
        p.add_argument("--spec", required=spec_required, help="problem spec JSON file")
        p.add_argument("--out", default=None, help="write the JSON report here as well")
        p.add_argument("--seed", type=_int_at_least(0), default=None, help="override the run seed")

    p = sub.add_parser("divergence", help="evaluate a distance or divergence")
    common(p)
    p.add_argument("--measure", required=True,
                   choices=["trace", "fidelity", "purified", "relent", "sandwiched"])
    p.add_argument("--order", type=float, default=None, help="Renyi order (1 + alpha)")
    p.add_argument("--a", default=None, help="name of the first state in the spec")
    p.add_argument("--b", default=None, help="name of the second state in the spec")
    p.set_defaults(fn=cmd_divergence)

    p = sub.add_parser("bound", help="evaluate one-shot bounds")
    common(p)
    p.add_argument("--which", required=True,
                   choices=["thm1", "thm5", "lemma1", "lemma2"])
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--optimize", action="store_true",
                   help="grid-optimize over (alpha, R_J)")
    p.set_defaults(fn=cmd_bound)

    p = sub.add_parser("region", help="evaluate achievable rate regions")
    common(p)
    p.add_argument("--which", required=True,
                   choices=["cc_csk", "csc_csk", "thm3", "thm4", "thm6",
                            "causal", "corollaries"])
    p.add_argument("--sweep", type=_int_at_least(1), default=5,
                   help="number of scalarization weights for the boundary CSV")
    p.add_argument("--csv", default=None, help="write boundary rows to this CSV")
    p.add_argument("--stealth", action="store_true",
                   help="drop the innocent-output covertness constraint")
    p.set_defaults(fn=cmd_region)

    p = sub.add_parser("simulate", help="Monte Carlo verification of the bounds")
    common(p)
    p.add_argument("--target", required=True, choices=["quantum", "classical"])
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--cap", type=_int_at_least(1), default=None,
                   help="codebook size cap override")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("verify", help="run randomized invariant suites")
    common(p, spec_required=False)
    p.add_argument("--suite", default="all",
                   choices=["pinching", "dataprocessing", "fm", "reduction", "all"])
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        config, results, verdicts = args.fn(args)
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
