import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from conftest import assert_same

from covertq import cli, regions, specio
from covertq.cli import main
from covertq.config import DEFAULT, pow2
from covertq.classical import resolvability_oracle
from covertq.errors import (CapExceeded, NotADistribution, ParseError, RunParameterError,
                             SelfCheckFailed)
from covertq.oneshot import ProtocolRates, resolvability_bound
from covertq.protocol import monte_carlo_verify
from covertq.specio import load_spec
from covertq.verify import suite_reduction

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "src", "covertq", "fixtures")
QUBIT = os.path.join(FIXTURES, "qubit_cnot.json")
DIAG = os.path.join(FIXTURES, "diag_states.json")
CLASSICAL = os.path.join(FIXTURES, "classical_full_csi.json")
FAULTY = os.path.join(FIXTURES, "faulty_channel.json")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_divergence_identical_states(capsys):
    code, out, _ = run_cli(capsys, "divergence", "--spec", DIAG,
                           "--measure", "trace", "--a", "pure0", "--b", "pure0")
    assert code == 0
    assert json.loads(out)["results"]["value"] == pytest.approx(0.0, abs=1e-12)


def test_divergence_matches_classical_oracle(capsys):
    code, out, _ = run_cli(capsys, "divergence", "--spec", DIAG,
                           "--measure", "sandwiched", "--order", "1.25",
                           "--a", "rho", "--b", "sigma")
    assert code == 0
    got = json.loads(out)["results"]["value"]
    p = np.array([0.3, 0.7])
    q = np.array([0.6, 0.4])
    alpha = 0.25
    oracle = math.log2(float(np.sum(p ** (1 + alpha) * q ** (-alpha)))) / alpha
    assert got == pytest.approx(oracle, abs=1e-9)


@pytest.mark.parametrize("order", ["1500", "1e20", "1e308"])
def test_sandwiched_divergence_at_large_orders(order, capsys):
    # w^(1+alpha) overflows for w_max = 0.7/0.4 (a RuntimeWarning fails the
    # test); the value tends to D_max = log2(0.7 / 0.4) as the order grows
    code, out, err = run_cli(capsys, "divergence", "--spec", DIAG,
                             "--measure", "sandwiched", "--order", order,
                             "--a", "rho", "--b", "sigma", "--seed", "0")
    assert code == 0 and err == ""
    res = json.loads(out)["results"]
    alpha = float(order) - 1.0
    # log2 of p^(1+a) q^-a per unit of a, for the two outputs
    lo, hi = sorted((1.0 + alpha) * math.log2(p) / alpha - math.log2(q)
                    for p, q in ((0.3, 0.6), (0.7, 0.4)))
    want = hi + math.log2(1.0 + 2.0 ** (alpha * (lo - hi))) / alpha
    assert not res["support_violation"]
    assert abs(res["value"] - want) <= 1e-12 * want
    assert res["value"] <= math.log2(0.7 / 0.4)


def test_divergence_support_violation_flag(capsys):
    code, out, _ = run_cli(capsys, "divergence", "--spec", DIAG,
                           "--measure", "relent", "--a", "mix", "--b", "pure0")
    assert code == 0
    res = json.loads(out)["results"]
    assert res["value"] == "inf" and res["support_violation"]


def test_malformed_spec_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json }")
    code, _, err = run_cli(capsys, "divergence", "--spec", str(bad),
                           "--measure", "trace")
    assert code == 2
    assert "line" in err


def test_missing_field_diagnostic(tmp_path):
    bad = tmp_path / "bad2.json"
    bad.write_text(json.dumps({"version": "1", "kind": "quantum",
                               "channel": {"kraus": []}}))
    with pytest.raises(ParseError) as exc:
        load_spec(str(bad))
    assert "factors" in str(exc.value)


def test_bound_report_and_optimize(capsys):
    code, out, _ = run_cli(capsys, "bound", "--spec", QUBIT, "--which", "thm1")
    assert code == 0
    res = json.loads(out)["results"]
    assert set(res["eigencounts"]) == {"v_B", "v_E", "v_S"}
    default_total = res["pe_bound"] + res["covert_bound"]

    code2, out2, _ = run_cli(capsys, "bound", "--spec", QUBIT, "--which", "thm1",
                             "--optimize")
    assert code2 == 0
    opt = json.loads(out2)["results"]["optimized"]
    assert opt["value"] <= default_total + 1e-9


def test_bound_thm5_ratio(capsys):
    code, out, _ = run_cli(capsys, "bound", "--spec", QUBIT, "--which", "thm5")
    assert code == 0
    res = json.loads(out)["results"]
    rates = res["rates"]
    ratio = res["secure_covert_bound"] / res["covert_bound"]
    expected = 2.0 ** (rates["alpha"] * rates["R"] / 2.0) / math.sqrt(2.0)
    assert ratio == pytest.approx(expected, rel=1e-9)


def test_bound_lemma_commands(capsys):
    code, out, _ = run_cli(capsys, "bound", "--spec", QUBIT, "--which", "lemma1")
    assert code == 0
    assert json.loads(out)["results"]["bound"] > 0
    code2, out2, _ = run_cli(capsys, "bound", "--spec", QUBIT, "--which", "lemma2")
    assert code2 == 0
    res = json.loads(out2)["results"]
    assert res["miss_bound"] > 0 and res["false_alarm_bound"] > 0


def test_region_commands_and_csv(tmp_path, capsys):
    csv_path = tmp_path / "boundary.csv"
    code, out, _ = run_cli(capsys, "region", "--spec", QUBIT, "--which", "cc_csk",
                           "--csv", str(csv_path))
    assert code == 0
    res = json.loads(out)["results"]
    assert "region" in res and "sweep" in res
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "w_R,w_RK,R,R_K,active"
    assert len(lines) == 6  # header + default sweep of 5

    code2, out2, _ = run_cli(capsys, "region", "--spec", QUBIT, "--which", "csc_csk")
    assert code2 == 0
    assert json.loads(out2)["results"]["nested_in_cc_csk"] is True


@pytest.mark.parametrize("spec, which", [(QUBIT, "corollaries"), (CLASSICAL, "thm3")])
def test_csv_on_a_selector_without_boundary_rows_exits_6(spec, which, tmp_path, capsys):
    # these exited 0 and wrote no file; the check runs before the spec loads
    csv = tmp_path / "c.csv"
    code, out, err = run_cli(capsys, "region", "--spec", spec, "--which", which,
                             "--csv", str(csv))
    assert code == 6 and out == "" and not csv.exists()
    assert err.strip() == f"error: --csv writes boundary rows, which --which {which} has none"


def test_csc_csk_evaluates_the_terms_once(capsys, monkeypatch):
    # the nesting check reuses the Holevo terms of the csc_csk region
    calls, terms = [], regions._quantum_terms
    monkeypatch.setattr(regions, "_quantum_terms", lambda *a: calls.append(a) or terms(*a))
    code, _, _ = run_cli(capsys, "region", "--spec", QUBIT, "--which", "csc_csk")
    assert code == 0 and len(calls) == 1


@pytest.mark.parametrize("stealth", [(), ("--stealth",)])
def test_causal_builds_one_joint_table_per_candidate(stealth, capsys, monkeypatch):
    # the warden marginal is read off the table the information terms use
    calls, joint_table = [], regions.joint_table
    monkeypatch.setattr(regions, "joint_table", lambda *a: calls.append(a) or joint_table(*a))
    code, _, _ = run_cli(capsys, "region", "--spec", CLASSICAL, "--which", "causal", *stealth)
    assert code == 0 and len(calls) == 1


def test_region_classical_and_causal(capsys):
    code, out, _ = run_cli(capsys, "region", "--spec", CLASSICAL, "--which", "thm6")
    assert code == 0
    res = json.loads(out)["results"]
    labels = [c["label"] for c in res["region"]["constraints"]]
    assert labels == ["R", "R+R_K"]

    code2, out2, _ = run_cli(capsys, "region", "--spec", CLASSICAL, "--which", "thm3")
    assert code2 == 0
    assert json.loads(out2)["results"]["value"] > 0

    code3, out3, _ = run_cli(capsys, "region", "--spec", CLASSICAL, "--which", "causal")
    assert code3 == 0
    sweep = json.loads(out3)["results"]["sweep"]
    assert len(sweep) == 1  # single scalar row


def test_simulate_quantum_pass_and_determinism(tmp_path, capsys):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    code, _, _ = run_cli(capsys, "simulate", "--spec", QUBIT, "--target", "quantum",
                         "--trials", "60", "--seed", "5", "--out", str(out_a))
    assert code == 0
    code2, _, _ = run_cli(capsys, "simulate", "--spec", QUBIT, "--target", "quantum",
                          "--trials", "60", "--seed", "5", "--out", str(out_b))
    assert code2 == 0
    doc_a = json.loads(out_a.read_text())
    doc_b = json.loads(out_b.read_text())
    assert all(doc_a["verdicts"].values())
    del doc_a["wall_clock_s"], doc_b["wall_clock_s"]
    assert json.dumps(doc_a, sort_keys=True) == json.dumps(doc_b, sort_keys=True)


def test_simulate_refuses_few_trials(capsys):
    code, _, err = run_cli(capsys, "simulate", "--spec", QUBIT, "--target", "quantum",
                           "--trials", "10", "--seed", "1")
    assert code == 6
    assert "trials" in err


def test_simulate_classical(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--spec", CLASSICAL,
                           "--target", "classical", "--trials", "80", "--seed", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdicts"]["resolvability"]
    assert doc["results"]["resolvability"]["estimate"] <= \
        doc["results"]["resolvability"]["bound"] + 1e-9


@pytest.mark.parametrize("rates", [{"R_K": 5000.0}, {"R": 3.0}])
def test_simulate_classical_caps_exit_5(rates, tmp_path, capsys):
    # 2^(7*5000) overflows a float; 2^21 message codewords exceed codebook_cap
    with open(CLASSICAL) as fh:
        doc = json.load(fh)
    doc["run"]["blocklength"] = 7
    doc["rates"].update(rates)
    spec = tmp_path / "capped.json"
    spec.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "simulate", "--spec", str(spec),
                           "--target", "classical", "--trials", "30")
    assert code == 5
    assert "cap" in err


@pytest.mark.parametrize("n", [8, 9])
def test_simulate_classical_names_what_it_skips_above_blocklength_8(n, tmp_path, capsys):
    with open(CLASSICAL) as fh:
        doc = json.load(fh)
    doc["run"]["blocklength"] = n
    spec = tmp_path / f"n{n}.json"
    spec.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "simulate", "--spec", str(spec),
                           "--target", "classical", "--trials", "30", "--seed", "1")
    assert code == 0
    results = json.loads(out)["results"]
    if n == 8:
        assert {"end_to_end", "warden_tv"} <= set(results) and "skipped" not in results
    else:
        assert not {"end_to_end", "warden_tv"} & set(results)
        assert results["skipped"]["results"] == ["end_to_end", "warden_tv"]
        assert results["skipped"]["reason"].startswith("blocklength 9 is above 8")


def test_verify_suites_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "fm", "--seed", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdicts"]["fm"]


def test_verify_rejects_faulty_channel(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "dataprocessing",
                           "--spec", FAULTY, "--seed", "2")
    assert code == 3
    assert "trace preserving" in err


def test_report_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "r.json"
    code, stdout, _ = run_cli(capsys, "bound", "--spec", QUBIT, "--which", "thm1",
                              "--out", str(out_path))
    assert code == 0
    on_disk = json.loads(out_path.read_text())
    printed = json.loads(stdout)
    assert on_disk == printed
    # round-trip: parse and re-serialize losslessly
    assert json.loads(json.dumps(on_disk, sort_keys=True)) == on_disk


def test_out_file_holds_the_printed_bytes_of_one_encoding(tmp_path, capsys, monkeypatch):
    encoded = []
    to_json = specio.RunReport.to_json
    monkeypatch.setattr(specio.RunReport, "to_json",
                        lambda self: encoded.append(to_json(self)) or encoded[-1])
    out_path = tmp_path / "r.json"
    code, stdout, _ = run_cli(capsys, "simulate", "--spec", QUBIT, "--target", "quantum",
                              "--trials", "30", "--seed", "1", "--out", str(out_path))
    assert code == 0 and len(encoded) == 1
    assert out_path.read_bytes() == stdout.encode() == (encoded[0] + "\n").encode()


@pytest.mark.parametrize("flag,argv", [
    ("--out", ("divergence", "--spec", DIAG, "--measure", "trace", "--a", "rho", "--b", "sigma")),
    ("--csv", ("region", "--spec", QUBIT, "--which", "cc_csk")),
])
@pytest.mark.parametrize("where", ["missing_dir", "directory"])
def test_unwritable_output_path_is_a_bad_run_parameter(flag, argv, where, tmp_path, capsys):
    # exited 6 reported as a defect: "internal FileNotFoundError" or
    # "internal IsADirectoryError"
    target = tmp_path / "missing" / "r.out" if where == "missing_dir" else tmp_path / "dir"
    if where == "directory":
        target.mkdir()
    code, out, err = run_cli(capsys, *argv, flag, str(target))
    assert code == 6 and out == ""
    assert len(err.splitlines()) == 1 and "internal" not in err
    assert err.startswith(f"error: {flag} {str(target)!r}: ")
    # the atomic write left no temp file behind
    assert [p.name for p in tmp_path.iterdir()] == (["dir"] if where == "directory" else [])


def test_divergence_without_two_named_states_says_which(capsys):
    # printed "states block must provide None and None"
    code, out, err = run_cli(capsys, "divergence", "--spec", QUBIT, "--measure", "trace")
    assert code == 2 and out == ""
    assert "None" not in err and "holds 0 named states, fewer than the two" in err
    code, out, err = run_cli(capsys, "divergence", "--spec", DIAG, "--measure", "trace",
                             "--a", "rho", "--b", "nope")
    assert code == 2 and out == ""
    assert "no state 'nope'" in err and "'rho'" not in err


def test_stacked_order_out_of_range_prints_a_float(capsys):
    # 1 +- 1e-320 rounds to 1 in the stacked orders: printed "order [1.] outside ..."
    code, out, err = run_cli(capsys, "bound", "--spec", QUBIT, "--which", "thm1",
                             "--alpha", "1e-320")
    assert code == 3 and out == ""
    assert err.splitlines() == ["error: order 1.0 outside (0,1) u (1,inf)"]


def test_verify_all_suites(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--seed", "3")
    assert code == 0
    doc = json.loads(out)
    assert set(doc["verdicts"]) == {"pinching", "dataprocessing", "fm", "reduction"}
    assert all(doc["verdicts"].values())


def test_region_corollaries(capsys):
    code, out, _ = run_cli(capsys, "region", "--spec", QUBIT, "--which", "corollaries")
    assert code == 0
    res = json.loads(out)["results"]
    assert {"R_CC", "R_CSK", "R_CSC"} <= set(res)
    assert res["R_CSC"] <= min(res["R_CC"], res["R_CSK"]) + 1e-12


def _mutated_spec(tmp_path, fixture, mutate) -> str:
    with open(fixture) as fh:
        doc = json.load(fh)
    mutate(doc)
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(doc))  # NaN and inf as JSON's NaN / Infinity
    return str(path)


def _set(path, value):
    def mutate(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return mutate


@pytest.mark.parametrize("path", [("q_s", 0), ("channel", 0, 0, 0, 0),
                                  ("policy", "p_u_s", 0, 0), ("policy", "p_a_us", 0, 0, 1)])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_classical_table_exit_3(path, bad, tmp_path, capsys):
    # comparisons such as abs(sum - 1) > tol pass for NaN
    spec = _mutated_spec(tmp_path, CLASSICAL, _set(path, bad))
    code, out, err = run_cli(capsys, "region", "--spec", spec, "--which", "thm3")
    assert code == 3 and out == ""
    assert "non-finite" in err and "Traceback" not in err


CLASSICAL_COMMANDS = [("simulate", "--target", "classical", "--trials", "30"),
                      *(("region", "--which", w) for w in ("thm3", "thm4", "thm6", "causal"))]


def _q_s_offset(offset, prob_tol=None):
    def mutate(doc):
        doc["q_s"] = [0.5 + offset / 2, 0.5 + offset / 2]
        if prob_tol is not None:
            doc["numerics"] = {"prob_tol": prob_tol}
    return mutate


def test_loose_q_s_refused_at_load(tmp_path, capsys):
    # a raised prob_tol admits no q_s whose laws would miss LAW_SLACK, the sum
    # slack of channel rows, policy rows, joint tables and codeword laws
    spec = _mutated_spec(tmp_path, CLASSICAL, _q_s_offset(1e-6, prob_tol=1e-6))
    with pytest.raises(NotADistribution, match=r"q_s .* got sum 1\.000001"):
        load_spec(spec)
    errs = set()
    for command, *args in CLASSICAL_COMMANDS:
        code, out, err = run_cli(capsys, command, "--spec", spec, *args, "--seed", "1")
        assert code == 3 and out == ""
        errs.add(err)
    assert len(errs) == 1 and "q_s" in errs.pop()


@pytest.mark.parametrize("offset, prob_tol, exit_code", [
    (1e-13, None, 0), (1e-11, None, 3),  # default numerics: prob_tol 1e-12 decides
    (4e-10, 1e-6, 0),  # a raised prob_tol still admits sums within LAW_SLACK
])
def test_q_s_sum_slack(offset, prob_tol, exit_code, tmp_path, capsys):
    spec = _mutated_spec(tmp_path, CLASSICAL, _q_s_offset(offset, prob_tol))
    for command, *args in CLASSICAL_COMMANDS:
        code, _, err = run_cli(capsys, command, "--spec", spec, *args, "--seed", "1")
        assert code == exit_code, err


@pytest.mark.parametrize("mutate, field", [
    (_set(("q_s",), [0.25, 0.25, 0.5]), ":q_s: state distribution length"),
    (_q_s_offset(1e-6), ":q_s: q_s is not a distribution"),
    (_set(("x0",), 5), ":x0: innocent symbol 5"),
    (_set(("channel", 0, 0, 0, 0), 0.5), ":channel: channel rows"),
], ids=["q_s-length", "q_s-sum", "x0", "channel"])
def test_classical_spec_errors_name_their_field(mutate, field, tmp_path, capsys):
    # each was reported under ':channel:'
    spec = _mutated_spec(tmp_path, CLASSICAL, mutate)
    code, out, err = run_cli(capsys, "region", "--spec", spec, "--which", "thm3")
    assert code == 3 and out == ""
    assert f"mutated.json{field}" in err


@pytest.mark.parametrize("blocklength", [0, -1, 2.5, True])
def test_blocklength_validated_at_parse(blocklength, tmp_path, capsys):
    spec = _mutated_spec(tmp_path, CLASSICAL, _set(("run", "blocklength"), blocklength))
    code, _, err = run_cli(capsys, "simulate", "--spec", spec, "--target", "classical",
                           "--trials", "30")
    assert code == 2
    assert "run.blocklength" in err


def test_run_and_rates_must_be_objects(tmp_path, capsys):
    for key in ("run", "rates"):
        spec = _mutated_spec(tmp_path, QUBIT, _set((key,), [1]))
        code, _, err = run_cli(capsys, "simulate", "--spec", spec, "--target", "quantum",
                               "--trials", "30")
        assert code == 2 and f":{key}" in err


def test_removed_eig_sweeps_key_is_a_parse_error(tmp_path, capsys):
    spec = _mutated_spec(tmp_path, DIAG, _set(("numerics",), {"eig_sweeps": 100}))
    code, _, err = run_cli(capsys, "divergence", "--spec", spec, "--measure", "trace",
                           "--a", "rho", "--b", "sigma")
    assert code == 2
    assert "eig_sweeps" in err


QUANTUM_NODES = [
    (DIAG, ("states", "rho"), [("divergence", "--measure", m, "--a", "rho", "--b", "sigma")
                              for m in ("trace", "fidelity", "relent")]),
    (QUBIT, ("ensemble", "conditionals", 0), [("bound", "--which", "thm1"),
                                              ("simulate", "--target", "quantum",
                                               "--trials", "30")]),
    (QUBIT, ("innocent",), [("bound", "--which", "thm1")]),
    (QUBIT, ("csi",), [("simulate", "--target", "quantum", "--trials", "30")]),
]


@pytest.mark.parametrize("fixture,node,commands", QUANTUM_NODES,
                         ids=["diag.rho", "cnot.conditional", "cnot.innocent", "cnot.csi"])
@pytest.mark.parametrize("pos", [(0, 1), (1, 1)])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_quantum_state_exit_3(fixture, node, commands, pos, bad,
                                         tmp_path, capsys):
    def mutate(doc):
        target = doc
        for key in node:
            target = target[key]
        target["re"][pos[0]][pos[1]] = bad
    spec = _mutated_spec(tmp_path, fixture, mutate)
    for argv in commands:
        code, out, err = run_cli(capsys, *argv, "--spec", spec)
        assert code == 3 and out == ""
        assert "Traceback" not in err


@pytest.mark.parametrize("path", [("ensemble", "probs", 0),
                                  ("channel", "kraus", 0, "re", 0, 1)])
def test_non_finite_quantum_tables_exit_3(path, tmp_path, capsys):
    spec = _mutated_spec(tmp_path, QUBIT, _set(path, math.nan))
    code, _, err = run_cli(capsys, "bound", "--spec", spec, "--which", "thm1")
    assert code == 3
    assert "non-finite" in err


def test_verify_uses_spec_numerics(tmp_path, capsys):
    spec = _mutated_spec(tmp_path, QUBIT, _set(("numerics",), {"support_tol": 0.5}))
    code, out, _ = run_cli(capsys, "verify", "--suite", "reduction", "--seed", "1",
                           "--spec", spec)
    expected = suite_reduction(1, cfg=DEFAULT.replaced(support_tol=0.5))["failures"]
    assert code == 1
    assert json.loads(out)["results"]["suites"][0]["failures"] == expected == 373


@pytest.mark.parametrize("exc,message", [
    (KeyError("boom"), "error: internal KeyError: 'boom'"),
    (SelfCheckFailed("chain rule"), "error: chain rule"),
], ids=["KeyError", "SelfCheckFailed"])
def test_internal_errors_exit_6_without_traceback(exc, message, monkeypatch, capsys):
    def broken(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_divergence", broken)
    code, out, err = run_cli(capsys, "divergence", "--spec", DIAG, "--measure", "trace")
    assert code == 6 and out == ""
    assert "Traceback" not in err
    assert err.strip() == message


def test_bare_value_error_is_reported_as_internal(monkeypatch, capsys):
    def broken(args):
        raise ValueError("operands could not be broadcast")

    monkeypatch.setattr(cli, "cmd_divergence", broken)
    code, out, err = run_cli(capsys, "divergence", "--spec", DIAG, "--measure", "trace")
    assert code == 6 and out == ""
    assert err.strip() == "error: internal ValueError: operands could not be broadcast"


@pytest.mark.parametrize("argv,message", [
    (("divergence", "--spec", DIAG, "--measure", "sandwiched"),
     "error: --order is required for the sandwiched measure"),
    (("simulate", "--spec", QUBIT, "--target", "quantum", "--trials", "29"),
     "error: trials must be >= 30, got 29"),
    # --optimize on a lemma exited 0, echoed "optimize": true and optimized nothing
    (("bound", "--spec", QUBIT, "--which", "lemma1", "--optimize"),
     "error: --optimize applies to --which thm1 and thm5, not lemma1"),
    (("bound", "--spec", QUBIT, "--which", "lemma2", "--optimize"),
     "error: --optimize applies to --which thm1 and thm5, not lemma2"),
], ids=["order", "trials", "optimize-lemma1", "optimize-lemma2"])
def test_run_parameter_errors_exit_6_not_internal(argv, message, capsys):
    code, out, err = run_cli(capsys, *argv)
    assert code == 6 and out == ""
    assert err.strip() == message


def test_documented_run_parameter_errors_are_typed():
    with pytest.raises(RunParameterError, match=r"alpha must lie in \(0, 1/2\), got 0.7"):
        ProtocolRates(1.0, 0.0, 0.0, 0.7)
    with pytest.raises(RunParameterError, match="R_K must be >= 0, got -1.0"):
        ProtocolRates(1.0, -1.0, 0.0, 0.2)
    with pytest.raises(RunParameterError, match="alpha must lie in"):
        resolvability_bound(None, 1.0, 0.5)
    with pytest.raises(RunParameterError, match="trials must be >= 30, got 29"):
        monte_carlo_verify(None, None, ProtocolRates(1.0, 0.0, 0.0, 0.2), 29, 0)
    with pytest.raises(RunParameterError, match="mc mode needs at least 30 codebooks"):
        resolvability_oracle(np.array([0.5, 0.5]), np.eye(2), 0.5, 2, trials=29)


def test_main_twice_in_one_process_gives_identical_bodies(capsys):
    argv = ("region", "--spec", CLASSICAL, "--which", "thm3", "--seed", "2")
    code, first, _ = run_cli(capsys, *argv)
    assert code == 0
    with pytest.raises(SystemExit) as exc:
        main(["region", "--spec", CLASSICAL, "--which", "nope"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, second, _ = run_cli(capsys, *argv)
    assert code == 0
    first, second = json.loads(first), json.loads(second)
    del first["wall_clock_s"], second["wall_clock_s"]
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


CLASSICAL_SIMULATE = ("simulate", "--target", "classical", "--trials", "30")
BOUND_THM1 = ("bound", "--which", "thm1")


@pytest.mark.parametrize("fixture,argv,name,value", [
    (QUBIT, BOUND_THM1, "R", math.nan),  # printed "covert_bound": "nan" and exited 0
    (QUBIT, BOUND_THM1, "R_J", -1.0),
    (QUBIT, BOUND_THM1, "R_K", math.inf),
    (QUBIT, BOUND_THM1, "alpha", 0.5),
    (QUBIT, BOUND_THM1, "alpha", 0.0),
    (QUBIT, BOUND_THM1, "alpha", math.nan),
    (QUBIT, BOUND_THM1, "alpha", "0.2"),
    (CLASSICAL, CLASSICAL_SIMULATE, "R", -3),  # exited 0
    (CLASSICAL, CLASSICAL_SIMULATE, "R", True),  # exited 0
    (CLASSICAL, CLASSICAL_SIMULATE, "R", "1"),
    (CLASSICAL, CLASSICAL_SIMULATE, "R", math.nan),  # exited 6
    (CLASSICAL, CLASSICAL_SIMULATE, "R_K", None),
    (CLASSICAL, CLASSICAL_SIMULATE, "R_J", 10 ** 400),
])
def test_rates_validated_at_parse(fixture, argv, name, value, tmp_path, capsys):
    spec = _mutated_spec(tmp_path, fixture, _set(("rates", name), value))
    code, out, err = run_cli(capsys, *argv, "--spec", spec)
    assert code == 2 and out == ""
    assert f":rates.{name}: " in err and "Traceback" not in err


@pytest.mark.parametrize("path,value,field", [
    (("innocent", "re"), [[1, 0], [0]], ":innocent: "),  # exited 6
    (("innocent", "re"), [["a", 0], [0, 1]], ":innocent: "),  # exited 6
    (("innocent", "im"), [[0, 0], [0]], ":innocent: "),
    (("ensemble", "conditionals", 0, "re"), [[1, 0, 0, 0], [0]], ":ensemble.conditionals[0]: "),
    (("factors", "E"), "x", ":factors.E: "),  # exited 6
    (("factors", "E"), 2.5, ":factors.E: "),  # truncated to 2, exited 0
    (("factors", "S"), 0, ":factors.S: "),
    (("factors", "A"), True, ":factors.A: "),
    (("innocent", "re", 0, 0), "0.5", ":innocent: 're'"),  # exited 0
    (("channel", "kraus", 0, "re", 0, 0), True, ":channel.kraus[0]: 're'"),  # exited 0
    (("ensemble", "probs", 0), "0.5713594349325903", ":ensemble: 'probs'"),  # exited 0
    (("innocent", "re", 0, 0), None, ":innocent: 're'"),
    (("innocent", "re", 0, 0), 10 ** 400, ":innocent: 're'"),
    (("innocent", "re", 0, 0), [1.0], ":innocent: 're'"),
    (("innocent", "re", 0), [[1, 0], 0], ":innocent: 're'"),
])
def test_malformed_matrices_and_factors_exit_2(path, value, field, tmp_path, capsys):
    spec = _mutated_spec(tmp_path, QUBIT, _set(path, value))
    code, out, err = run_cli(capsys, *BOUND_THM1, "--spec", spec)
    assert code == 2 and out == ""
    assert field in err and "Traceback" not in err


@pytest.mark.parametrize("fixture,argv,name,value", [
    (QUBIT, BOUND_THM1, "support_tol", -1),  # exited 3: "eigenvalue ... below --6.5e-01"
    (QUBIT, BOUND_THM1, "psd_tol", math.nan),  # disabled the PSD check, exited 0
    (QUBIT, BOUND_THM1, "covert_tol", math.inf),
    (QUBIT, BOUND_THM1, "herm_tol", "0"),
    (CLASSICAL, CLASSICAL_SIMULATE, "codebook_cap", "x"),  # exited 6, internal TypeError
    (CLASSICAL, CLASSICAL_SIMULATE, "codebook_cap", True),  # accepted as 1
    (CLASSICAL, CLASSICAL_SIMULATE, "warden_cap", 0),
    (CLASSICAL, CLASSICAL_SIMULATE, "warden_cap", 65536.0),
    (QUBIT, ("simulate", "--target", "quantum", "--trials", "30"), "trial_cap", 0),
])
def test_numerics_validated_at_parse(fixture, argv, name, value, tmp_path, capsys):
    spec = _mutated_spec(tmp_path, fixture, _set(("numerics",), {name: value}))
    code, out, err = run_cli(capsys, *argv, "--spec", spec)
    assert code == 2 and out == ""
    assert f":numerics.{name}: " in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("simulate", "--spec", CLASSICAL, "--target", "classical", "--trials", "30"),  # exited 6
    ("verify", "--suite", "fm"),  # exited 6
])
def test_negative_seed_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", "-2"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_closed_stdout_exits_quietly(tmp_path):
    # printed "error: internal BrokenPipeError" and exited 6
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = tmp_path / "fm.json"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "covertq.cli", "verify", "--suite", "fm",
                               "--out", str(out)], stdout=write_end, stderr=subprocess.PIPE,
                              env=env, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 0 and proc.stderr == ""
    assert json.loads(out.read_text())["verdicts"] == {"fm": True}


def test_classical_rates_default_to_zero(tmp_path, capsys):
    # the oracle used to default a missing R to 0.5, the end-to-end run to 0
    def drop_r(doc):
        del doc["rates"]["R"]
    spec = _mutated_spec(tmp_path, CLASSICAL, drop_r)
    code, out, _ = run_cli(capsys, *CLASSICAL_SIMULATE, "--spec", spec)
    assert code == 0
    res = json.loads(out)["results"]["resolvability"]
    assert res["rate"] == 0.0 and res["codewords"] == 1


@pytest.mark.parametrize("argv", [("bound", "--which", "lemma1"),
                                  ("simulate", "--target", "quantum", "--trials", "30")])
def test_absent_or_empty_rates_read_as_zeros(argv, tmp_path, capsys):
    # an absent or empty rates block exited 2 ("spec carries no rates block")
    # even with --alpha given; a missing rate is 0
    bodies = []
    for rates in (None, {}, {"R": 0, "R_K": 0, "R_J": 0}):
        def set_rates(doc, rates=rates):
            del doc["rates"]
            if rates is not None:
                doc["rates"] = rates
        spec = _mutated_spec(tmp_path, QUBIT, set_rates)
        code, out, _ = run_cli(capsys, *argv, "--alpha", "0.2", "--spec", spec)
        assert code == 0
        bodies.append(json.loads(out)["results"])
    assert bodies[0] == bodies[1] == bodies[2]
    code, _, err = run_cli(capsys, *argv, "--spec", spec)
    assert code == 2 and "no alpha given (flag or spec)" in err


class _HalfWriter:
    """A file that takes half of the text, then fails as a full disk would."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[:len(text) // 2])
        self.fh.flush()
        raise OSError("disk full")


WRITERS = {
    "report": lambda path: specio.RunReport("bound", {}, {"value": 1.0}).write(path),
    "csv": lambda path: specio.write_region_csv(path, [{"w_R": 1.0, "w_RK": 0.0,
                                                        "R": 0.5, "R_K": 0.0}]),
}


@pytest.mark.parametrize("fail_at", ["write", "replace"])
@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_failed_write_leaves_target_unchanged(writer, fail_at, tmp_path, monkeypatch):
    target = tmp_path / "out"
    target.write_text("old\n")
    if fail_at == "write":
        fdopen = os.fdopen
        monkeypatch.setattr(os, "fdopen", lambda fd, *a, **k: _HalfWriter(fdopen(fd, *a, **k)))
    else:
        def refuse(src, dst):
            raise OSError("rename refused")
        monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError):
        WRITERS[writer](str(target))
    assert target.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out"]  # no .tmp left behind


def _body_in_fresh_process(argv, hash_seed: str) -> dict:
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "covertq.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    del doc["wall_clock_s"]
    return doc


@pytest.mark.parametrize("argv", [
    ("simulate", "--spec", CLASSICAL, "--target", "classical", "--seed", "3"),
    ("simulate", "--spec", QUBIT, "--target", "quantum", "--trials", "50"),
], ids=["classical", "quantum"])
def test_report_body_byte_identical_across_processes(argv):
    first = _body_in_fresh_process(argv, "1")
    second = _body_in_fresh_process(argv, "2")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


@pytest.mark.parametrize("run_seed,expected", [(None, 12), (5, 5)])
def test_simulate_seed_defaults_to_spec_run_seed(run_seed, expected, tmp_path, capsys):
    # every report said "seed": 0 when --seed was omitted
    spec = CLASSICAL if run_seed is None else \
        _mutated_spec(tmp_path, CLASSICAL, _set(("run", "seed"), run_seed))
    code, out, _ = run_cli(capsys, *CLASSICAL_SIMULATE, "--spec", spec)
    doc = json.loads(out)
    assert code == 0
    assert doc["config"]["seed"] == doc["results"]["seed"] == expected
    code, out2, _ = run_cli(capsys, *CLASSICAL_SIMULATE, "--spec", spec,
                            "--seed", str(expected))
    assert json.loads(out2)["results"] == doc["results"]


def test_verify_seed_defaults_to_spec_run_seed(tmp_path, capsys):
    spec = _mutated_spec(tmp_path, QUBIT, _set(("run", "seed"), 9))
    code, out, _ = run_cli(capsys, "verify", "--suite", "fm", "--spec", spec)
    assert code == 0 and json.loads(out)["config"]["seed"] == 9
    code, out, _ = run_cli(capsys, "verify", "--suite", "fm")
    assert code == 0 and json.loads(out)["config"]["seed"] == 0


@pytest.mark.parametrize("seed", ["x", -1, 2.5, True])
def test_run_seed_validated_at_parse(seed, tmp_path, capsys):
    spec = _mutated_spec(tmp_path, CLASSICAL, _set(("run", "seed"), seed))
    code, out, err = run_cli(capsys, *CLASSICAL_SIMULATE, "--spec", spec)
    assert code == 2 and out == ""
    assert ":run.seed: " in err and "Traceback" not in err


@pytest.mark.parametrize("argv,code", [
    (("--which", "thm1"), 5),  # exited 6, internal OverflowError
    (("--which", "thm1", "--optimize"), 5),
    (("--which", "thm5"), 5),
    (("--which", "lemma2"), 5),
    (("--which", "lemma1"), 0),  # 2^-(alpha R) underflows to a zero bound
])
def test_bound_overflow_exits_5(argv, code, tmp_path, capsys):
    spec = _mutated_spec(tmp_path, QUBIT, _set(("rates", "R"), 10000.0))
    got, out, err = run_cli(capsys, "bound", "--spec", spec, *argv)
    assert got == code
    if code == 5:
        assert out == "" and len(err.splitlines()) == 1
        assert "cap" in err and "Traceback" not in err


CLASSICAL_THM3 = ("region", "--which", "thm3")


@pytest.mark.parametrize("fixture,argv,path,value,field", [
    (DIAG, ("divergence", "--measure", "trace", "--a", "rho", "--b", "sigma"),
     ("states", "rho", "re", 0, 0), "0.3", ":states.rho: 're'"),
    (CLASSICAL, CLASSICAL_THM3, ("q_s", 0), "0.5", ": 'q_s'"),
    (CLASSICAL, CLASSICAL_THM3, ("channel", 0, 0, 0, 0), False, ": 'channel'"),
    (CLASSICAL, CLASSICAL_THM3, ("policy", "p_u_s", 0, 0), "1", ":policy: 'p_u_s'"),
    (CLASSICAL, CLASSICAL_THM3, ("x0",), 0.0, ":x0: "),
    (CLASSICAL, CLASSICAL_THM3, ("x0",), False, ":x0: "),
], ids=["diag.rho.re", "classical.q_s", "classical.channel", "classical.p_u_s",
        "classical.x0-float", "classical.x0-bool"])
def test_spec_arrays_hold_only_numbers(fixture, argv, path, value, field, tmp_path, capsys):
    # numeric strings and booleans loaded as matrix and table entries
    spec = _mutated_spec(tmp_path, fixture, _set(path, value))
    code, out, err = run_cli(capsys, *argv, "--spec", spec)
    assert code == 2 and out == ""
    assert field in err and "Traceback" not in err


@pytest.mark.parametrize("pair", [(), ("--a", "rho", "--b", "sigma")], ids=["default", "rho-sigma"])
@pytest.mark.parametrize("order", ["nan", "inf"])
def test_non_finite_renyi_order_exits_3(order, pair):
    # nan on the default pair printed "value": "nan" and exited 0; on rho/sigma it
    # exited 3 blaming the matrix; inf also printed a numpy RuntimeWarning
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "covertq.cli", "divergence", "--spec", DIAG,
                           "--measure", "sandwiched", "--order", order, *pair],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.splitlines() == [f"error: order {order} outside (0,1) u (1,inf)"]


OPTIMIZE = ("bound", "--which", "thm1", "--optimize")
CLASSICAL_RUN_TRIALS = ("simulate", "--target", "classical")  # trials from run.trials


@pytest.mark.parametrize("name,value", [
    ("trials", "x"),  # exited 6 through int()
    ("trials", 40.9),  # ran 40 trials, exited 0
    ("trials", True),
    ("trials", 0),
    ("alpha_grid", ["0.2"]),  # exited 0
    ("alpha_grid", [0.7]),  # exited 6 through ProtocolRates
    ("alpha_grid", [True]),
    ("alpha_grid", [0.2, math.nan]),
    ("alpha_grid", []),
    ("alpha_grid", 0.2),  # exited 6, internal TypeError
    ("rj_grid", ["0.2"]),  # exited 0
    ("rj_grid", ["1"]),  # exited 0
    ("rj_grid", [True]),  # exited 0, reporting R_J 1.0
    ("rj_grid", [-1.0]),
    ("rj_grid", [0.0, math.inf]),
    ("rj_grid", []),
    ("rj_grid", 1.0),
])
def test_run_block_validated_at_parse(name, value, tmp_path, capsys):
    fixture, argv = (CLASSICAL, CLASSICAL_RUN_TRIALS) if name == "trials" else (QUBIT, OPTIMIZE)
    spec = _mutated_spec(tmp_path, fixture, _set(("run", name), value))
    code, out, err = run_cli(capsys, *argv, "--spec", spec)
    assert code == 2 and out == ""
    assert f":run.{name}: " in err and "Traceback" not in err


def test_run_trials_below_30_stay_a_run_parameter_error(tmp_path, capsys):
    spec = _mutated_spec(tmp_path, CLASSICAL, _set(("run", "trials"), 29))
    code, out, err = run_cli(capsys, *CLASSICAL_RUN_TRIALS, "--spec", spec)
    assert code == 6 and out == ""
    assert err.strip() == "error: trials must be >= 30, got 29"


@pytest.mark.parametrize("path,value,field", [
    (("channel", "kraus"), 5, ":channel.kraus: "),  # exited 6, internal TypeError
    (("ensemble", "conditionals"), 5, ":ensemble.conditionals: "),  # the same
    (("states",), [1, 2], ":states: "),  # exited 6, internal AttributeError
    (("ensemble", "probs"), 0.5, ":ensemble: 'probs'"),  # exited 6, internal IndexError
    (("ensemble", "probs"), [[0.5, 0.5]], ":ensemble: 'probs'"),
])
def test_spec_containers_of_the_wrong_kind_exit_2(path, value, field, tmp_path, capsys):
    spec = _mutated_spec(tmp_path, QUBIT, _set(path, value))
    code, out, err = run_cli(capsys, *BOUND_THM1, "--spec", spec)
    assert code == 2 and out == ""
    assert field in err and "internal" not in err and len(err.splitlines()) == 1


THIRD_3X3 = (np.eye(3) / 3).tolist()


@pytest.mark.parametrize("path,value,message", [
    (("ensemble", "conditionals", 1), {"re": [[1.0, 0.0], [0.0, 0.0]]},
     ":ensemble.conditionals[1]: shape (2, 2), expected (4, 4)"),
    (("ensemble", "conditionals", 2, "re", 0, 0), -0.5,
     ":ensemble.conditionals: state 2 trace is"),
    (("innocent",), {"re": [[0.5, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.0]]},
     ":innocent: shape (3, 3), expected (2, 2)"),
    # these three exited 3 naming only the factors, not the field
    (("csi",), {"re": THIRD_3X3, "factors": ["S"]}, ":csi: shape (3, 3), expected (2, 2)"),
    (("csi",), {"re": THIRD_3X3, "factors": ["Sbar", "S"]},
     ":csi: shape (3, 3), expected a square of side a multiple of the S dimension 2"),
    (("csi",), {"re": [[0.5, 0.0], [0.0, 0.5], [0.0, 0.0], [0.0, 0.0]], "factors": ["Sbar", "S"]},
     ":csi: shape (4, 2), expected a square"),
    (("channel", "kraus", 0), {"re": np.eye(3).tolist()},
     ":channel.kraus[0]: shape (3, 3), expected (4, 4)"),
])
def test_state_of_the_wrong_shape_or_trace_exits_3_naming_it(path, value, message, tmp_path, capsys):
    spec = _mutated_spec(tmp_path, QUBIT, _set(path, value))
    code, out, err = run_cli(capsys, *BOUND_THM1, "--spec", spec)
    assert code == 3 and out == ""
    assert message in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ("region", "--spec", QUBIT, "--which", "cc_csk", "--sweep", "0"),  # exited 0, no sweep
    ("region", "--spec", QUBIT, "--which", "cc_csk", "--sweep", "-3"),
    ("region", "--spec", QUBIT, "--which", "cc_csk", "--sweep", "2.5"),
    ("simulate", "--spec", QUBIT, "--target", "quantum", "--cap", "0"),  # exited 5
    ("simulate", "--spec", QUBIT, "--target", "quantum", "--cap", "-2"),
])
def test_sweep_and_cap_must_be_positive_integers(argv, tmp_path, capsys):
    csv = tmp_path / "b.csv"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--csv", str(csv)] if argv[0] == "region" else [*argv, "--trials", "30"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {argv[-2]}: must be an integer >= 1, got {argv[-1]!r}" in err
    assert not csv.exists()


@pytest.mark.parametrize("factors", [5, "S", ["S", "Sbar"], None])
def test_csi_factors_must_be_an_array(factors, tmp_path, capsys):
    # 5 exited 6 with an internal TypeError; "S" was read as ["S"]
    spec = _mutated_spec(tmp_path, QUBIT, _set(("csi", "factors"), factors))
    code, out, err = run_cli(capsys, *BOUND_THM1, "--spec", spec)
    assert code == 2 and out == ""
    assert ":csi.factors: " in err and "Traceback" not in err


def _purified_csi(doc):
    """Replace the diagonal S state by a purification on (Sbar, S)."""
    p = np.diag(np.asarray(doc["csi"]["re"]))
    psi = np.zeros(len(p) ** 2)
    psi[np.arange(len(p)) * (len(p) + 1)] = np.sqrt(p)  # sum_i sqrt(p_i) |i>|i>
    doc["csi"] = {"re": np.outer(psi, psi).tolist(), "factors": ["Sbar", "S"]}


@pytest.mark.parametrize("argv,exact", [
    (BOUND_THM1, True),
    (("region", "--which", "cc_csk"), True),
    (("region", "--which", "corollaries"), True),
    (("simulate", "--target", "quantum", "--trials", "50", "--seed", "1"), False),
], ids=["thm1", "cc_csk", "corollaries", "simulate"])
def test_bipartite_csi_matches_its_s_marginal(argv, exact, tmp_path, capsys):
    spec = _mutated_spec(tmp_path, QUBIT, _purified_csi)
    bodies = []
    for path in (QUBIT, spec):
        code, out, _ = run_cli(capsys, *argv, "--spec", path)
        assert code == 0
        doc = json.loads(out)
        del doc["wall_clock_s"], doc["config"]["spec"]
        bodies.append(doc)
    if exact:
        assert bodies[0] == bodies[1]
    else:  # the S-marginal is a partial trace, equal to the fixture's to rounding
        assert_same(bodies[1], bodies[0])


@pytest.mark.parametrize("fixture,target,cap,trials", [
    (QUBIT, "quantum", 40, 41),
    (CLASSICAL, "classical", 40, 41),
    (QUBIT, "quantum", None, 100_000_000),  # ran past 20 s, memory growing
])
def test_trials_over_the_trial_cap_exit_5_before_any_spawn(fixture, target, cap, trials,
                                                           tmp_path, monkeypatch, capsys):
    if cap is not None:
        fixture = _mutated_spec(tmp_path, fixture, _set(("numerics",), {"trial_cap": cap}))
    spawned = []

    class RecordingSeq(np.random.SeedSequence):
        def spawn(self, n):
            spawned.append(n)
            return super().spawn(n)

    monkeypatch.setattr(np.random, "SeedSequence", RecordingSeq)
    code, out, err = run_cli(capsys, "simulate", "--spec", fixture, "--target", target,
                             "--trials", str(trials), "--seed", "1")
    assert code == 5 and out == "" and spawned == []
    assert err.strip() == f"error: {trials} trials exceed trial_cap {cap or DEFAULT.trial_cap}"
    if cap is not None:  # the cap itself is allowed
        code, _, _ = run_cli(capsys, "simulate", "--spec", fixture, "--target", target,
                             "--trials", str(cap), "--seed", "1")
        assert code == 0 and (target == "classical" or spawned)


def test_sweep_beyond_the_cap_exits_5_before_any_row(tmp_path, capsys, monkeypatch):
    # --sweep 100000000 built one report row per weight
    def no_rows(*args):
        raise AssertionError("rows built past the sweep cap")
    monkeypatch.setattr(cli, "_region_rows", no_rows)
    monkeypatch.setattr(cli, "load_spec", no_rows)
    csv = tmp_path / "b.csv"
    for sweep in (cli.SWEEP_CAP + 1, 100000000):
        code, out, err = run_cli(capsys, "region", "--spec", QUBIT, "--which", "cc_csk",
                                 "--sweep", str(sweep), "--csv", str(csv))
        assert code == 5 and out == "" and not csv.exists()
        assert err == f"error: --sweep {sweep} exceeds the sweep cap {cli.SWEEP_CAP}\n"


def test_sweep_at_the_cap_runs(capsys):
    code, out, _ = run_cli(capsys, "region", "--spec", QUBIT, "--which", "corollaries",
                           "--sweep", str(cli.SWEEP_CAP))
    assert code == 0 and json.loads(out)["config"]["sweep"] == cli.SWEEP_CAP


def _policy_rows_off_by(delta):
    def mutate(doc):
        for row in doc["policy"]["p_u_s"]:
            row[0] += delta
    return mutate


def test_policy_rows_within_the_law_slack_still_simulate(tmp_path, capsys):
    # AuxiliaryPolicy accepts P(u|s) rows 1e-9 from one, so the codeword law
    # q_s @ P(u|s) that simulate passes on may be that far from one too
    spec = _mutated_spec(tmp_path, CLASSICAL, _policy_rows_off_by(5e-10))
    parsed = load_spec(spec)
    assert abs(float(np.sum(parsed.problem.q_s @ parsed.policy.p_u_s)) - 1.0) > 1e-12
    code, out, err = run_cli(capsys, "simulate", "--spec", spec, "--target", "classical",
                             "--trials", "30", "--seed", "3")
    assert code in (0, 1) and err == ""
    assert "end_to_end" in json.loads(out)["results"]


def _policy_a1(doc):
    doc["policy"]["p_a_us"] = [[[1.0] for _ in row] for row in doc["policy"]["p_a_us"]]


def _policy_s3(doc):
    pol = doc["policy"]
    pol["p_u_s"].append(pol["p_u_s"][0])
    for row in pol["p_a_us"]:
        row.append(row[0])


def _channel_a1(doc):
    del doc["channel"][1:]


@pytest.mark.parametrize("mutate,message", [
    (_policy_a1, "policy A alphabet does not match channel"),  # exited 0, warden_tv 7.5
    (_policy_s3, "policy S alphabet does not match state distribution"),  # exited 6
    (_channel_a1, "policy A alphabet does not match channel"),  # exited 6, IndexError
], ids=["p_a_us-A1", "policy-S3", "channel-A1"])
@pytest.mark.parametrize("argv", [CLASSICAL_SIMULATE, ("region", "--which", "causal")],
                         ids=["simulate", "causal"])
def test_policy_alphabets_must_match_the_channel(mutate, message, argv, tmp_path, capsys):
    spec = _mutated_spec(tmp_path, CLASSICAL, mutate)
    code, out, err = run_cli(capsys, *argv, "--spec", spec, "--seed", "1")
    assert code == 3 and out == ""
    assert err == f"error: {spec}:policy: {message}\n"


def test_pow2_refuses_a_non_finite_power(tmp_path, capsys):
    for x in (math.inf, math.nan, 1e308):
        with pytest.raises(CapExceeded):
            pow2(x)
    assert pow2(-math.inf) == 0.0
    # n * rate is inf at blocklength 4: exited 6, internal OverflowError from int(inf)
    spec = _mutated_spec(tmp_path, CLASSICAL, _set(("rates", "R"), 1e308))
    code, out, err = run_cli(capsys, *CLASSICAL_SIMULATE, "--spec", spec, "--seed", "1")
    assert code == 5 and out == "" and err == "error: 2^inf exceeds every cap\n"


def test_blocklength_beyond_the_float_range_exits_5(tmp_path, capsys):
    # n * rate exited 6, internal OverflowError: int too large to convert to float
    spec = _mutated_spec(tmp_path, CLASSICAL, _set(("run", "blocklength"), 10 ** 400))
    code, out, err = run_cli(capsys, *CLASSICAL_SIMULATE, "--spec", spec, "--seed", "1")
    assert code == 5 and out == ""
    assert err.startswith("error: blocklength 1000") and err.endswith("exceeds cap 65536\n")


def _huge_entries(path, values):
    def mutate(doc):
        node = doc
        for key in path:
            node = node[key]
        for (i, j), value in values.items():
            node[i][j] = value
    return mutate


HUGE_ENTRIES = [
    # re + 1j * im with an inf in im
    (DIAG, ("states", "sigma", "im"), {(0, 1): math.inf}, ":states.sigma: state has non-finite"),
    # m - m^dag overflows in the Hermiticity check
    (QUBIT, ("innocent", "re"), {(0, 1): 1e308, (1, 0): -1e308},
     ":innocent: state deviates from Hermitian by inf"),
    (QUBIT, ("innocent", "im"), {(0, 1): 1e308, (1, 0): 1e308},
     ":innocent: state deviates from Hermitian by inf"),
    # Hermitian, but its Hermitian part overflows: before the trace check, and
    # in a state of unit trace, whose eigenvalues are then NaN
    (QUBIT, ("innocent", "re"), {(1, 1): 1e308}, ":innocent: state trace is 1e+308"),
    (DIAG, ("states", "rho", "re"), {(0, 1): 1e308, (1, 0): 1e308},
     ":states.rho: state has eigenvalue nan"),
    # the trace-preservation check of a Kraus operator
    (QUBIT, ("channel", "kraus", 0, "re"), {(1, 0): 1e308},
     ":channel: channel is not trace preserving"),
]


@pytest.mark.parametrize("fixture,path,values,message", HUGE_ENTRIES,
                         ids=["im-inf", "re-1e308", "im-1e308", "trace-1e308", "eigenvalue-1e308",
                              "kraus-1e308"])
def test_huge_spec_entries_exit_3_without_numpy_warnings(fixture, path, values, message,
                                                        tmp_path, capsys):
    # each printed a RuntimeWarning, and under error::RuntimeWarning exited 6
    spec = _mutated_spec(tmp_path, fixture, _huge_entries(path, values))
    argv = QUANTUM_NODES[0][2][0] if fixture == DIAG else BOUND_THM1
    code, out, err = run_cli(capsys, *argv, "--spec", spec)
    assert code == 3 and out == ""
    assert len(err.splitlines()) == 1 and message in err


def test_huge_spec_entry_leaves_only_the_error_line_on_stderr(tmp_path):
    spec = _mutated_spec(tmp_path, QUBIT, _huge_entries(("innocent", "im"), {(0, 1): math.inf}))
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "covertq.cli", *BOUND_THM1, "--spec", spec],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr == f"error: {spec}:innocent: state has non-finite entries at [(0, 1)]\n"


def test_alpha_flag_has_its_own_rule(capsys):
    # was reported as "qubit_cnot.json:rates: alpha must lie in (0, 1/2)", exit 2
    with pytest.raises(SystemExit) as exc:
        main([*BOUND_THM1, "--spec", QUBIT, "--alpha", "0.7"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --alpha: must be a number in (0, 1/2), got '0.7'" in err
    assert "qubit_cnot.json" not in err


FIELD_ERRORS = [
    (DIAG, QUANTUM_NODES[0][2][0], _set(("states", "rho", "re", 0, 1), math.nan),
     ":states.rho: state has non-finite entries"),
    (QUBIT, BOUND_THM1, _set(("innocent", "re", 0, 1), math.inf),
     ":innocent: state has non-finite entries"),
    (QUBIT, BOUND_THM1, _set(("csi", "re", 0, 0), 1.65), ":csi: state trace is 2.0"),
    (QUBIT, BOUND_THM1, _set(("channel", "kraus", 0, "re", 0, 0), 1.2),
     ":channel: channel is not trace preserving"),
    (QUBIT, BOUND_THM1, _set(("ensemble", "conditionals", 2, "re", 0, 0), -0.5),
     ":ensemble.conditionals: state 2 trace is"),
    (QUBIT, BOUND_THM1, _set(("ensemble", "probs", 0), 0.9), ":ensemble: probabilities sum to"),
    (CLASSICAL, CLASSICAL_THM3, _q_s_offset(1e-6), ":q_s: q_s is not a distribution"),
    (CLASSICAL, CLASSICAL_THM3, _set(("channel", 0, 0, 0, 0), 0.5), ":channel: channel rows"),
    (CLASSICAL, CLASSICAL_THM3, _set(("x0",), 5), ":x0: innocent symbol 5"),
    (CLASSICAL, CLASSICAL_THM3, _set(("policy", "p_u_s", 0, 0), 0.9),
     ":policy: P(u|s) rows must sum to one"),
    (CLASSICAL, CLASSICAL_THM3, _policy_a1, ":policy: policy A alphabet"),
]


@pytest.mark.parametrize("fixture,argv,mutate,field", FIELD_ERRORS,
                         ids=[f"{c[3].split(':')[1]}-{i}" for i, c in enumerate(FIELD_ERRORS)])
def test_every_spec_node_error_names_its_field(fixture, argv, mutate, field, tmp_path, capsys):
    # the states, innocent, csi, channel, ensemble and policy errors named no field
    spec = _mutated_spec(tmp_path, fixture, mutate)
    code, out, err = run_cli(capsys, *argv, "--spec", spec)
    assert code == 3 and out == ""
    assert err.startswith(f"error: {spec}{field}") and len(err.splitlines()) == 1
