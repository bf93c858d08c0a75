"""Replay the frozen ``fixtures_cli`` report bodies (``scripts/make_golden.py``).

Keys, strings, bools, ints and exit codes must match exactly; floats to
1e-12 relative, so that other numpy and BLAS builds agree.
"""

import json
import math
import os

import pytest

from covertq.cli import main

HERE = os.path.dirname(__file__)
FIXTURES = os.path.join(HERE, "..", "src", "covertq", "fixtures")
with open(os.path.join(HERE, "golden", "fixtures_cli.json"), encoding="utf-8") as _fh:
    GOLDEN = json.load(_fh)


def assert_same(got, want, where="body"):
    assert type(got) is type(want), f"{where}: {got!r} != {want!r}"
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), f"{where}: keys differ"
        for key in want:
            assert_same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{where}: lengths differ"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-300), \
            f"{where}: {got!r} != {want!r}"
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


@pytest.mark.parametrize("record", GOLDEN, ids=[f"{r['key']}-seed{r['seed']}" for r in GOLDEN])
def test_fixtures_cli_body_matches_golden(record, tmp_path, capsys):
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
