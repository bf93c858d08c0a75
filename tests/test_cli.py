import json
import math
import os

import numpy as np
import pytest

from covertq.cli import main
from covertq.errors import ParseError
from covertq.specio import load_spec

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
