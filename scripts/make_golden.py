#!/usr/bin/env python3
"""Freeze the report body and exit code of every ``fixtures_cli`` call.

Run from the repository root:

    python scripts/make_golden.py

The calls are those of one ``fixtures_cli`` benchmark op
(``perfbench/workloads.py``) at seeds 0 and 1, run in process through
``covertq.cli.main``.  Each record keeps the argv with the fixture
directory written as ``{fixtures}`` and the scratch directory as
``{tmp}``, the exit code, and the stdout report without ``wall_clock_s``
(null when nothing is printed).  ``tests/test_golden.py`` replays them.
"""

import contextlib
import io
import json
import os
import sys
import tempfile

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from covertq.cli import main as cli_main  # noqa: E402
import workloads  # noqa: E402

SEEDS = (0, 1)
OUT = os.path.join(ROOT, "tests", "golden", "fixtures_cli.json")


def run_call(argv: list[str]) -> tuple[int, dict | None]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    text = out.getvalue()
    if not text:
        return code, None
    body = json.loads(text)
    del body["wall_clock_s"]
    return code, body


def main() -> None:
    fixtures = os.path.abspath(workloads.fixture_dir(ROOT))
    records = []
    with tempfile.TemporaryDirectory() as tmp:
        specs = workloads.prepare_specs("fixtures_cli", ROOT, tmp, 0)
        specs = {k: os.path.abspath(v) for k, v in specs.items()}
        for seed in SEEDS:
            for call in workloads.op_calls("fixtures_cli", specs, tmp, seed):
                code, body = run_call(list(call.argv))
                text = json.dumps({"key": call.key, "seed": seed, "argv": list(call.argv),
                                   "exit": code, "body": body})
                text = text.replace(fixtures, "{fixtures}").replace(tmp, "{tmp}")
                records.append(json.loads(text))
    os.makedirs(os.path.dirname(OUT), exist_ok=True)
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(records, fh, sort_keys=True, indent=1)
        fh.write("\n")
    print(f"wrote {len(records)} calls to {OUT}")


if __name__ == "__main__":
    main()
