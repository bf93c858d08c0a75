#!/usr/bin/env python3
"""Freeze the report body and exit code of benchmark workload calls.

Run from the repository root:

    python scripts/make_golden.py

The calls are those of the ``perfbench/workloads.py`` ops listed in
``GOLDEN``, run in process through ``covertq.cli.main``: every
``fixtures_cli`` call at op seeds 0, 1 and 7, the four ``classical_n7``
calls of op seeds 1 and 7 (call seeds 4-7 and 28-31), and the eight
``synthetic_quantum`` calls of op seed 3 (its spec generated at seed 3, as
``perfbench/run.py`` does).  Each workload gets its own file under ``tests/golden``.  Each
record keeps the argv with the fixture directory written as ``{fixtures}``
and the scratch directory (where generated specs are written) as
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

# workload -> op seeds whose calls are frozen
GOLDEN = {"fixtures_cli": (0, 1, 7), "classical_n7": (1, 7), "synthetic_quantum": (3,)}
OUT_DIR = os.path.join(ROOT, "tests", "golden")


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
    for workload, seeds in GOLDEN.items():
        records = []
        for seed in seeds:
            with tempfile.TemporaryDirectory() as tmp:
                specs = workloads.prepare_specs(workload, ROOT, tmp, seed)
                specs = {k: os.path.abspath(v) for k, v in specs.items()}
                for call in workloads.op_calls(workload, specs, tmp, seed):
                    code, body = run_call(list(call.argv))
                    text = json.dumps({"key": call.key, "seed": seed,
                                       "argv": list(call.argv), "exit": code, "body": body})
                    text = text.replace(fixtures, "{fixtures}").replace(tmp, "{tmp}")
                    records.append(json.loads(text))
        out = os.path.join(OUT_DIR, workload + ".json")
        os.makedirs(OUT_DIR, exist_ok=True)
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(records, fh, sort_keys=True, indent=1)
            fh.write("\n")
        print(f"wrote {len(records)} calls to {out}")


if __name__ == "__main__":
    main()
