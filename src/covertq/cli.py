"""Batch command-line front door.

One command per invocation; every command reads a JSON spec file, runs
deterministically for a fixed seed, and emits a JSON report (stdout, and
``--out`` for an atomic file write).  Exit codes: 0 success, 1 property
failure, 2 parse error, 3 dimension/validation error, 4 covertness
infeasible, 5 size cap exceeded, 6 bad run parameters.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from .classical import (
    end_to_end_error,
    exact_warden_distribution,
    resolvability_oracle,
    sample_classical_codebook,
)
from .config import code_size
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
    one_shot_error_bound,
    one_shot_covert_bound,
    optimize_bound,
    resolvability_bound,
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

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_PARSE = 2
EXIT_DIMS = 3
EXIT_COVERT = 4
EXIT_CAP = 5
EXIT_RUNPARAM = 6


def _emit(report: RunReport, out_path: str | None) -> None:
    print(report.to_json())
    if out_path:
        report.write(out_path)


def _need(spec: SpecFile, attr: str, what: str):
    val = getattr(spec, attr)
    if val is None:
        raise ParseError(f"{spec.path}: spec carries no {what}")
    return val


def cmd_divergence(args) -> int:
    spec = load_spec(args.spec)
    t0 = time.perf_counter()
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
    elif measure == "sandwiched":
        if args.order is None:
            raise ValueError("--order is required for the sandwiched measure")
        dv = sandwiched_renyi(rho, sigma, args.order, spec.cfg)
        value, support_violation = dv.value, dv.support_violation
    else:
        raise ValueError(f"unknown measure {measure!r}")
    report = RunReport(
        command="divergence",
        config={"spec": spec.path, "measure": measure, "order": args.order,
                "a": a_name, "b": b_name},
        results={"value": value if value != float("inf") else "inf",
                 "support_violation": support_violation},
        wall_clock_s=time.perf_counter() - t0,
    )
    _emit(report, args.out)
    return EXIT_OK


def cmd_bound(args) -> int:
    spec = load_spec(args.spec)
    t0 = time.perf_counter()
    ensemble = _need(spec, "ensemble", "ensemble")
    instance = _need(spec, "instance", "channel instance")
    which = args.which
    results: dict = {}

    if which in ("thm1", "thm5"):
        rates = spec.protocol_rates(args.alpha)
        rep = bound_report(ensemble, instance, rates, spec.cfg)
        results = rep.to_dict()
        if args.optimize:
            st = induced_states(ensemble, instance.channel, spec.cfg)
            rj_grid = spec.run.get("rj_grid", [0.0, 0.5, 1.0, 2.0, 4.0, 8.0])
            alpha_grid = spec.run.get("alpha_grid", default_alpha_grid().tolist())

            def total(alpha: float, rj: float) -> float:
                r = ProtocolRates(rates.R, rates.R_K, rj, alpha)
                pe = one_shot_error_bound(ensemble, instance.channel, r,
                                          states=st, cfg=spec.cfg)
                cov = one_shot_covert_bound(ensemble, instance.channel, r,
                                            states=st, cfg=spec.cfg)
                return pe + cov

            best_a, best_rj, best_v = optimize_bound(total, alpha_grid, rj_grid)
            results["optimized"] = {"alpha": best_a, "R_J": best_rj, "value": best_v}
    elif which == "lemma1":
        rates = spec.protocol_rates(args.alpha)
        st = induced_states(ensemble, instance.channel, spec.cfg)
        results = {"bound": resolvability_bound(st.cq_ue, rates.R, rates.alpha, spec.cfg),
                   "rate": rates.R, "alpha": rates.alpha}
    elif which == "lemma2":
        rates = spec.protocol_rates(args.alpha)
        st = induced_states(ensemble, instance.channel, spec.cfg)
        miss, alarm = decoding_test_bounds(st.cq_ub, rates, spec.cfg)
        results = {"miss_bound": miss, "false_alarm_bound": alarm,
                   "total_rate": rates.total, "alpha": rates.alpha}
    else:
        raise ValueError(f"unknown bound selector {which!r}")

    report = RunReport(
        command="bound",
        config={"spec": spec.path, "which": which, "alpha": args.alpha,
                "optimize": bool(args.optimize)},
        results=results,
        wall_clock_s=time.perf_counter() - t0,
    )
    _emit(report, args.out)
    return EXIT_OK


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


def cmd_region(args) -> int:
    spec = load_spec(args.spec)
    t0 = time.perf_counter()
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
    elif which == "causal":
        problem = _need(spec, "problem", "classical problem")
        policy = _need(spec, "policy", "auxiliary policy")
        p_u = problem.q_s @ policy.p_u_s
        res = causal_rate(problem, [(p_u, policy.p_a_us)],
                          stealth=args.stealth, cfg=spec.cfg)
        results = res
        rows = [{"w_R": 1.0, "w_RK": 0.0, "R": res["rate"], "R_K": 0.0,
                 "active": [], "value": res["rate"]}]
    else:
        raise ValueError(f"unknown region selector {which!r}")

    if rows:
        results["sweep"] = rows
    if args.csv and rows:
        write_region_csv(args.csv, rows)
    report = RunReport(
        command="region",
        config={"spec": spec.path, "which": which, "stealth": bool(args.stealth),
                "sweep": args.sweep},
        results=results,
        wall_clock_s=time.perf_counter() - t0,
    )
    _emit(report, args.out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    spec = load_spec(args.spec)
    t0 = time.perf_counter()
    cfg = spec.cfg if args.cap is None else spec.cfg.replaced(codebook_cap=args.cap)
    trials = args.trials if args.trials is not None else int(spec.run.get("trials", 0))
    seed = args.seed if args.seed is not None else int(spec.run.get("seed", 0))
    if trials < 30:
        raise ValueError(f"trials must be >= 30, got {trials}")

    if args.target == "quantum":
        ensemble = _need(spec, "ensemble", "ensemble")
        instance = _need(spec, "instance", "channel instance")
        rates = spec.protocol_rates(args.alpha)
        sim = monte_carlo_verify(ensemble, instance, rates, trials, seed, cfg=cfg)
        results = sim.to_dict(include_trials=False)
        verdicts = sim.verdicts
    elif args.target == "classical":
        problem = _need(spec, "problem", "classical problem")
        policy = _need(spec, "policy", "auxiliary policy")
        rates = spec.rates
        rate = float(rates.get("R", 0.5))
        n = spec.run.get("blocklength", 4)
        res = resolvability_oracle(problem.q_s @ policy.p_u_s,
                                   _warden_rows(spec), rate, n,
                                   mode="mc", trials=trials, seed=seed, cfg=cfg)
        verdicts = {"resolvability": res["estimate"] <= res["bound"]
                    + 3.0 * res["std_error"] + 1e-12}
        results = {"resolvability": res}
        if spec.policy is not None and n <= 8:
            p_u = problem.q_s @ spec.policy.p_u_s
            sizes = _sizes_from_rates(rates, n)
            err = end_to_end_error(problem, spec.policy, p_u, sizes, n,
                                   trials, seed, cfg=cfg)
            cb = sample_classical_codebook(p_u, sizes, n, seed, cfg)
            wd = exact_warden_distribution(cb, problem, spec.policy, p_u, cfg=cfg)
            results["end_to_end"] = err
            results["warden_tv"] = wd["tv_from_innocent"]
        results["seed"] = seed
    else:
        raise ValueError(f"unknown simulate target {args.target!r}")

    report = RunReport(
        command="simulate",
        config={"spec": spec.path, "target": args.target, "trials": trials,
                "seed": seed, "cap": args.cap},
        results=results,
        verdicts=verdicts,
        wall_clock_s=time.perf_counter() - t0,
    )
    _emit(report, args.out)
    return EXIT_OK if all(verdicts.values()) else EXIT_PROPERTY


def _warden_rows(spec: SpecFile) -> np.ndarray:
    """P(e|u) rows induced by the spec's policy through the channel."""
    problem = spec.problem
    policy = spec.policy
    if policy is None:
        raise ParseError(f"{spec.path}: classical simulation needs a policy block")
    w_e_us = np.einsum("usa,ase->use", policy.p_a_us, problem.w_e())
    joint_su = problem.q_s[:, None] * policy.p_u_s
    p_u = joint_su.sum(axis=0)
    post = np.where(p_u[None, :] > 0, joint_su / np.maximum(p_u[None, :], 1e-300), 0.0)
    return np.einsum("su,use->ue", post, w_e_us)


def _sizes_from_rates(rates: dict, n: int) -> tuple[int, int, int]:
    return tuple(code_size(n * float(rates.get(name, 0.0)))
                 for name in ("R_J", "R_K", "R"))


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    channel = None
    config = {"suite": args.suite, "seed": args.seed}
    if args.spec:
        spec = load_spec(args.spec)
        config["spec"] = spec.path
        if spec.instance is not None:
            channel = spec.instance.channel
    tallies = run_suite(args.suite, args.seed, channel=channel)
    failures = sum(t["failures"] for t in tallies)
    report = RunReport(
        command="verify",
        config=config,
        results={"suites": tallies},
        verdicts={t["suite"]: t["failures"] == 0 for t in tallies},
        wall_clock_s=time.perf_counter() - t0,
    )
    _emit(report, args.out)
    return EXIT_OK if failures == 0 else EXIT_PROPERTY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covertq",
        description="Covert-communication bounds, rate regions, and protocol simulation.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p, spec_required=True):
        p.add_argument("--spec", required=spec_required, help="problem spec JSON file")
        p.add_argument("--out", default=None, help="write the JSON report here as well")
        p.add_argument("--seed", type=int, default=None, help="override the run seed")

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
    p.add_argument("--sweep", type=int, default=5,
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
    p.add_argument("--cap", type=int, default=None, help="codebook size cap override")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("verify", help="run randomized invariant suites")
    common(p, spec_required=False)
    p.add_argument("--suite", default="all",
                   choices=["pinching", "dataprocessing", "fm", "reduction", "all"])
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "seed", None) is None:
        args.seed = 0
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (DimMismatch, NotHermitian, NotPSD, NotADistribution,
            OrderOutOfRange, SupportViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIMS
    except CovertInfeasible as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COVERT
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ValueError, CovertqError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNPARAM


if __name__ == "__main__":
    sys.exit(main())
