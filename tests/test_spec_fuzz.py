"""A seeded fuzzer of the spec loader and the CLI, read from ``specio.FIELDS``.

Part (a) feeds every FIELDS row, and every numeric flag that shares a row's
rule, the values that break it.  Part (b) mutates the four bundled fixtures
and runs every command that reads them.  Every call must exit in 0..6 and
never report an internal error; it leaves stderr empty on exit 0 or 1 and
prints exactly one ``error:`` line otherwise, within 2 s.  No mutation
raises a cap above its default.  Stdlib ``random`` only.  Part (c) breaks
one to three states of ``diag_states`` in every order and checks that the
loader, which checks the states in one batch per shape, exits and prints as
a check of each state in turn does.
"""

import contextlib
import copy
import io
import itertools
import json
import math
import os
import random
import time

import pytest

from covertq import specio
from covertq.cli import main
from covertq.specio import FIELDS
from covertq.states import DensityMatrix

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "src", "covertq", "fixtures")
QUBIT = os.path.join(FIXTURES, "qubit_cnot.json")
DIAG = os.path.join(FIXTURES, "diag_states.json")
CLASSICAL = os.path.join(FIXTURES, "classical_full_csi.json")
FAULTY = os.path.join(FIXTURES, "faulty_channel.json")

# ---------------------------------------------------------------------------
# Part (a): the table

_WRONG_KIND = [[0.25], {"x": 1}, True, False, "1", None, math.nan, math.inf, -math.inf]
_GRID_KIND = [[], 0.25, {"x": [0.25]}, True, "[0.25]", None, math.nan]

# Values that break each rule, keyed by the rule's ``what``: the wrong JSON
# type, a boolean, a string, null, NaN, +-inf, an integer beyond the float
# range, and the edges of the range.  A rule without examples fails
# test_every_rule_has_examples.
BAD = {
    "an integer >= 1": [*_WRONG_KIND, 0, -1, 1.0, 2.5, 1e308, -10 ** 400],
    "an integer >= 0": [*_WRONG_KIND, -1, 0.0, 2.5, 1e308, -10 ** 400],
    "a finite number >= 0": [*_WRONG_KIND, -5e-324, -1, 10 ** 400, -10 ** 400],
    "a number in (0, 1/2)": [*_WRONG_KIND, 0, 0.0, -0.0, 0.5, 1, -0.25, 10 ** 400],
}
for _what in ("a finite number >= 0", "a number in (0, 1/2)"):
    BAD[f"a non-empty array, each entry {_what}"] = \
        _GRID_KIND + [[0.25, bad] for bad in BAD[_what]]

# Values each rule keeps, its edges included.
GOOD = {
    "an integer >= 1": [1, 2, 10 ** 400],
    "an integer >= 0": [0, 1, 10 ** 400],
    "a finite number >= 0": [0, 0.0, -0.0, 5e-324, 1e308],
    "a number in (0, 1/2)": [5e-324, 0.25, 0.49999999999999994],
    "a non-empty array, each entry a finite number >= 0": [[0], [0.0, 1e308]],
    "a non-empty array, each entry a number in (0, 1/2)": [[0.25], [5e-324, 0.4]],
}

# A command that reads each block, on a fixture that loads.
READS = {
    "numerics": (DIAG, ("divergence", "--measure", "trace", "--a", "rho", "--b", "sigma")),
    "rates": (QUBIT, ("bound", "--which", "thm1")),
    "run": (QUBIT, ("bound", "--which", "thm1", "--optimize")),
    "factors": (QUBIT, ("region", "--which", "cc_csk")),
    "": (CLASSICAL, ("simulate", "--target", "classical", "--trials", "30")),
}

# The numeric flags and the spec field whose rule each shares.
FLAGS = [
    ("--seed", ("run", "seed"), ("verify", "--suite", "fm")),
    ("--sweep", ("run", "trials"), ("region", "--spec", QUBIT, "--which", "cc_csk")),
    ("--cap", ("numerics", "codebook_cap"),
     ("simulate", "--spec", QUBIT, "--target", "quantum", "--trials", "30")),
    ("--alpha", ("rates", "alpha"), ("bound", "--spec", QUBIT, "--which", "thm1")),
    ("--alpha", ("rates", "alpha"),
     ("simulate", "--spec", QUBIT, "--target", "quantum", "--trials", "30")),
]

ROWS = [(block, name) for block, rows in FIELDS.items() for name in rows]


def _write(tmp_path, doc) -> str:
    path = tmp_path / "fuzzed.json"
    path.write_text(json.dumps(doc))  # NaN and inf as JSON's NaN / Infinity
    return str(path)


def _load(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def test_every_rule_has_examples():
    whats = {what for rows in FIELDS.values() for what, _ in rows.values()}
    assert whats <= set(BAD) and whats <= set(GOOD)


@pytest.mark.parametrize("what", sorted(GOOD))
def test_rules_keep_their_good_values_and_break_the_bad(what):
    ok = next(ok for rows in FIELDS.values() for w, ok in rows.values() if w == what)
    assert all(ok(v) for v in GOOD[what])
    assert not any(ok(v) for v in BAD[what])


@pytest.mark.parametrize("block,name", ROWS, ids=[f"{b or 'top'}.{n}" for b, n in ROWS])
def test_every_field_rule_exits_2_naming_its_field(block, name, tmp_path, capsys):
    fixture, argv = READS[block]
    what, _ = FIELDS[block][name]
    where = f"{block}.{name}" if block else name
    for value in BAD[what]:
        doc = _load(fixture)
        (doc.setdefault(block, {}) if block else doc)[name] = value
        code = main([*argv, "--spec", _write(tmp_path, doc)])
        out, err = capsys.readouterr()
        assert code == 2 and out == "", (value, err)
        assert f":{where}: must be {what}, got " in err, (value, err)
        assert len(err.splitlines()) == 1


@pytest.mark.parametrize("flag,row,argv", FLAGS, ids=[f"{f}-{a[0]}" for f, _, a in FLAGS])
def test_every_flag_rule_exits_2_naming_the_flag(flag, row, argv, capsys):
    what, _ = FIELDS[row[0]][row[1]]
    for value in BAD[what]:
        text = json.dumps(value)
        with pytest.raises(SystemExit) as exc:
            main([*argv, f"{flag}={text}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: must be {what}, got {text!r}" in err, err


def test_readme_lists_every_field_rule():
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as fh:
        readme = fh.read()
    for block, name in ROWS:
        field = f"{block}.{name}" if block else name
        assert f"| `{field}` | {FIELDS[block][name][0]} |" in readme, field


# ---------------------------------------------------------------------------
# Part (b): generic mutations of the fixtures

def _commands(*argvs):
    return [(*argv, "--seed", "1") for argv in argvs]


COMMANDS = {
    DIAG: _commands(*(("divergence", "--measure", m, "--a", "rho", "--b", "sigma")
                      for m in ("trace", "fidelity", "purified", "relent")),
                    ("divergence", "--measure", "sandwiched", "--order", "1.25",
                     "--a", "rho", "--b", "sigma")),
    QUBIT: _commands(("bound", "--which", "thm1", "--optimize"),
                     *(("bound", "--which", w) for w in ("thm5", "lemma1", "lemma2")),
                     *(("region", "--which", w) for w in ("cc_csk", "csc_csk", "corollaries")),
                     ("simulate", "--target", "quantum", "--trials", "30"),
                     ("verify", "--suite", "dataprocessing")),
    CLASSICAL: _commands(*(("region", "--which", w)
                           for w in ("thm3", "thm4", "thm6", "causal")),
                         ("simulate", "--target", "classical", "--trials", "30")),
    FAULTY: _commands(("bound", "--which", "thm1"), ("verify", "--suite", "dataprocessing")),
}

REPLACEMENTS = [None, True, "0.5", math.nan, math.inf, 1e308, 10 ** 400]
TABLES = {("q_s",), ("channel",), ("policy", "p_u_s"), ("policy", "p_a_us"),
          ("channel", "kraus")}


def _nodes(node, path=()):
    """Every (path, node) below ``node``, the root excluded."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,), child
        yield from _nodes(child, path + (key,))


def _parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


def mutate(doc: dict, rng: random.Random, kind: str) -> tuple | None:
    """Apply one mutation of ``kind`` to ``doc`` in place; returns what was
    done, or None when ``doc`` offers no site for it."""
    nodes = [(p, n) for p, n in _nodes(doc) if p[0] != "numerics"]  # caps stay at default
    if kind == "drop":
        sites = [p for p, _ in nodes if isinstance(_parent(doc, p), dict)]
    elif kind == "replace":
        sites = [p for p, _ in nodes]
    elif kind == "ragged":
        sites = [p for p, n in nodes
                 if isinstance(n, list) and len(n) > 1 and isinstance(n[0], list)]
    else:  # drop a row of a classical table or a Kraus operator
        sites = [p for p, n in nodes if isinstance(n, list) and n
                 and any(p[:len(t)] == t for t in TABLES)]
    if not sites:
        return None
    path = rng.choice(sites)
    parent = _parent(doc, path)
    if kind == "drop":
        del parent[path[-1]]
        return kind, path
    if kind == "replace":
        value = rng.choice(REPLACEMENTS)
        parent[path[-1]] = value
        return kind, path, value
    node = parent[path[-1]]
    if kind == "ragged":
        row = rng.choice([row for row in node if isinstance(row, list)])
        if row and rng.random() < 0.5:
            row.pop()
        else:
            row.append(copy.deepcopy(row[-1]) if row else 0.5)
        return kind, path
    del node[rng.randrange(len(node))]
    return kind, path


KINDS = ("drop", "replace", "ragged", "drop_row")


def check_call(argv) -> tuple[int, str, str, float]:
    """Run one call; returns (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


def violations(code, out, err, seconds) -> list[str]:
    """How one call breaks the fuzzer's contract, if it does."""
    found = []
    if code not in range(7):
        found.append(f"exit {code}")
    if "internal" in err or "Traceback" in err:
        found.append("internal error")
    if code in (0, 1) and err:
        found.append("stderr on success")
    if code not in (0, 1) and (out or len(err.splitlines()) != 1
                               or not err.startswith("error: ")):
        found.append("not one error line")
    if seconds > 2.0:
        found.append(f"took {seconds:.2f} s")
    return found


def fuzz(fixture: str, seed: int, count: int, workdir: str) -> list:
    """``count`` mutated copies of ``fixture``, each run through every
    command that reads it; returns the calls that break the contract."""
    rng = random.Random(seed)
    base = _load(fixture)
    path = os.path.join(workdir, "fuzzed.json")
    bad = []
    for _ in range(count):
        doc = copy.deepcopy(base)
        done = mutate(doc, rng, rng.choice(KINDS))
        if done is None:
            continue
        with open(path, "w") as fh:
            json.dump(doc, fh)
        for argv in COMMANDS[fixture]:
            code, out, err, seconds = check_call([*argv, "--spec", path])
            found = violations(code, out, err, seconds)
            if found:
                bad.append((done, argv, code, err.strip()[-200:], found))
    return bad


@pytest.mark.parametrize("fixture,count", [(DIAG, 40), (QUBIT, 40), (CLASSICAL, 60),
                                           (FAULTY, 30)],
                         ids=["diag", "qubit", "classical", "faulty"])
def test_mutated_fixtures_keep_the_exit_contract(fixture, count, tmp_path):
    assert fuzz(fixture, 2024, count, str(tmp_path)) == []


# ---------------------------------------------------------------------------
# Part (c): batched state checks, the per-state error on failure


def _bad_state(node: dict, kind: str) -> dict:
    """A copy of the matrix node ``node`` broken in one way."""
    re_ = [list(row) for row in node["re"]]
    d = len(re_)
    if kind == "non_hermitian":
        re_[0][1] += 0.3
    elif kind == "wrong_trace":
        re_ = [[1.5 * x for x in row] for row in re_]
    elif kind == "non_psd":
        re_ = [[(1.5 if i == j == 0 else -0.5 if i == j == 1 else 0.0) for j in range(d)]
               for i in range(d)]
    elif kind == "nan":
        re_[1][1] = math.nan
    else:  # malformed: a string among the numbers
        re_[0][0] = "0.5"
    return {**node, "re": re_}


BAD_STATES = ("non_hermitian", "wrong_trace", "non_psd", "nan", "malformed")


def _states_by_one(nodes, cfg, path):
    """Reference: every state parsed and checked on its own, in order."""
    return {name: specio._checked(f"{path}:states.{name}", DensityMatrix,
                                  specio._matrix(node, f"{path}:states.{name}"), cfg=cfg)
            for name, node in nodes.items()}


@pytest.mark.parametrize("count", [1, 2, 3])
def test_batched_state_checks_report_the_first_bad_state(count, tmp_path, monkeypatch):
    # diag_states plus one qutrit state, so the states form two shapes; one
    # to three of them are broken, each kind in every order of placement
    base = _load(DIAG)
    qutrit = {"re": [[0.5, 0.0, 0.0], [0.0, 0.3, 0.0], [0.0, 0.0, 0.2]]}
    base["states"] = dict(list(base["states"].items())[:2] + [("qutrit", qutrit)]
                          + list(base["states"].items())[2:])
    names = list(base["states"])
    argv = ["divergence", "--measure", "trace", "--a", "rho", "--b", "sigma"]
    path = str(tmp_path / "states.json")
    codes = set()
    for where in itertools.combinations(range(len(names)), count):
        for kinds in itertools.permutations(BAD_STATES, count):
            doc = copy.deepcopy(base)
            for i, kind in zip(where, kinds):
                doc["states"][names[i]] = _bad_state(doc["states"][names[i]], kind)
            with open(path, "w") as fh:
                json.dump(doc, fh)
            code, out, err, _ = check_call([*argv, "--spec", path])
            with monkeypatch.context() as patch:
                patch.setattr(specio, "_named_states", _states_by_one)
                want = check_call([*argv, "--spec", path])[:3]
            assert (code, out, err) == want, (where, kinds)
            assert f":states.{names[where[0]]}:" in err and code in (2, 3), (where, kinds)
            codes.add(code)
    assert codes == {2, 3}
