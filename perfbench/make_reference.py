"""Write ``reference.json``: the results of the seed-free fixture calls.

    python3 perfbench/make_reference.py

Run from the root of a source checkout whose results are trusted; the
benchmark then requires every later commit to reproduce them within
``checks.REL_TOL``.  The seed-free calls are the divergence, bound and
region calls that must succeed.
"""

import contextlib
import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from covertq import cli  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    reference = {}
    specs = workloads.prepare_specs("fixtures_cli", ROOT, HERE, 0)
    with tempfile.TemporaryDirectory() as workdir:
        for call in workloads.op_calls("fixtures_cli", specs, workdir, 0):
            if call.category != "cli.analytic_s" or call.expect_exit != 0:
                continue
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(list(call.argv))
            if code != 0:
                raise SystemExit(f"{call.key} exited {code}")
            reference[call.key] = json.loads(out.getvalue())["results"]
    with open(checks.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(reference)} reference results to {checks.REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
