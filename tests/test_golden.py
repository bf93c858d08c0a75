"""Replay the frozen ``fixtures_cli`` report bodies (``scripts/make_golden.py``).

Keys, strings, bools, ints and exit codes must match exactly; floats to
1e-12 relative, so that other numpy and BLAS builds agree.
"""

import json
import os

import pytest
from conftest import assert_same

from covertq.cli import main

HERE = os.path.dirname(__file__)
FIXTURES = os.path.join(HERE, "..", "src", "covertq", "fixtures")
with open(os.path.join(HERE, "golden", "fixtures_cli.json"), encoding="utf-8") as _fh:
    GOLDEN = json.load(_fh)


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
