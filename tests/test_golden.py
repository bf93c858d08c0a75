"""Replay the frozen benchmark report bodies (``scripts/make_golden.py``).

Keys, strings, bools, ints and exit codes must match exactly; floats to
1e-12 relative, so that other numpy and BLAS builds agree.  The generated
``classical_n7`` and ``synthetic_quantum`` specs are written under the
test's scratch directory by ``perfbench/workloads.py``, at the record's
seed, as when the records were made.
"""

import json
import os
import sys

import pytest
from conftest import assert_same

from covertq.cli import main

HERE = os.path.dirname(__file__)
ROOT = os.path.join(HERE, "..")
FIXTURES = os.path.join(ROOT, "src", "covertq", "fixtures")
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402


def _golden(workload):
    with open(os.path.join(HERE, "golden", workload + ".json"), encoding="utf-8") as fh:
        return json.load(fh)


GOLDEN = _golden("fixtures_cli")
CLASSICAL_N7 = _golden("classical_n7")
SYNTHETIC = _golden("synthetic_quantum")


def _replay(record, tmp_path, capsys):
    argv = [a.replace("{fixtures}", FIXTURES).replace("{tmp}", str(tmp_path))
            for a in record["argv"]]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == record["exit"]
    if record["body"] is None:
        assert out == ""
        return
    body = json.loads(out)
    del body["wall_clock_s"]
    want = json.loads(json.dumps(record["body"]).replace("{fixtures}", FIXTURES)
                      .replace("{tmp}", str(tmp_path)))
    assert_same(body, want)


@pytest.mark.parametrize("record", GOLDEN, ids=[f"{r['key']}-seed{r['seed']}" for r in GOLDEN])
def test_fixtures_cli_body_matches_golden(record, tmp_path, capsys):
    _replay(record, tmp_path, capsys)


@pytest.mark.parametrize("record", CLASSICAL_N7,
                         ids=[f"{r['key']}-seed{r['seed']}" for r in CLASSICAL_N7])
def test_classical_n7_body_matches_golden(record, tmp_path, capsys):
    workloads.prepare_specs("classical_n7", ROOT, str(tmp_path), 0)
    _replay(record, tmp_path, capsys)


@pytest.mark.parametrize("record", SYNTHETIC,
                         ids=[f"{r['key']}-seed{r['seed']}" for r in SYNTHETIC])
def test_synthetic_quantum_body_matches_golden(record, tmp_path, capsys):
    workloads.prepare_specs("synthetic_quantum", ROOT, str(tmp_path), record["seed"])
    _replay(record, tmp_path, capsys)
