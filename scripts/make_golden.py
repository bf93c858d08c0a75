#!/usr/bin/env python3
"""Freeze the report body and exit code of benchmark workload calls.

Run from the repository root:

    python scripts/make_golden.py           # rewrite tests/golden/*.json
    python scripts/make_golden.py --check   # compare with them, write nothing

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

``--check`` builds the records in memory and compares each with the
committed one: for each value that differs it prints the workload, key,
seed, JSON path, old and new value and relative change, then the count of
byte-identical records, and exits 1 when any record differs.
"""

import argparse
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


def build(workload: str, seeds) -> list[dict]:
    """The records of one workload's calls at the op ``seeds``."""
    fixtures = os.path.abspath(workloads.fixture_dir(ROOT))
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
    return records


def _dump(records) -> str:
    return json.dumps(records, sort_keys=True, indent=1) + "\n"


def _diffs(old, new, path: str = "$"):
    """(path, old, new) of each value where two JSON documents differ."""
    if isinstance(old, dict) and isinstance(new, dict) and old.keys() == new.keys():
        for k in sorted(old):
            yield from _diffs(old[k], new[k], f"{path}.{k}")
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from _diffs(a, b, f"{path}[{i}]")
    elif _dump(old) != _dump(new):
        yield path, old, new


def _relative(old, new) -> str:
    if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (old, new)):
        return "n/a"
    return f"{abs(new - old) / abs(old):.3e}" if old else "inf"


def check() -> int:
    """Compare freshly built records with the committed ones; 1 if any differs."""
    same = differ = 0
    for workload, seeds in GOLDEN.items():
        with open(os.path.join(OUT_DIR, workload + ".json"), encoding="utf-8") as fh:
            old = json.load(fh)
        new = build(workload, seeds)
        if len(old) != len(new):
            print(f"{workload}: {len(old)} committed records, {len(new)} built")
            differ += 1
        for a, b in zip(old, new):
            if _dump(a) == _dump(b):
                same += 1
                continue
            differ += 1
            for path, x, y in _diffs(a, b):
                print(f"{workload} {a['key']} seed {a['seed']} {path}: {x!r} -> {y!r} "
                      f"(relative change {_relative(x, y)})")
    print(f"{same} records byte-identical, {differ} differ")
    return 1 if differ else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the committed records and write nothing")
    if parser.parse_args().check:
        return check()
    os.makedirs(OUT_DIR, exist_ok=True)
    for workload, seeds in GOLDEN.items():
        records = build(workload, seeds)
        out = os.path.join(OUT_DIR, workload + ".json")
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(_dump(records))
        print(f"wrote {len(records)} calls to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
