#!/usr/bin/env python3
"""Print the covertq function-body lines that no command path reaches.

    python scripts/reach.py

Under ``sys.settrace`` it replays every call of one op of each workload in
``perfbench/workloads.py`` (read, never changed), ``bound --optimize`` on thm1
and thm5, every ``region`` selector under ``--stealth`` and
``tests/test_acceptance.py``.  It then prints, per ``src/covertq`` module, the
lines of function bodies that never ran and the functions none of whose lines
ran, and one summary line.  It exits nonzero only when a replayed call gives
the wrong exit code or an acceptance test fails: the trace would then not show
the paths they take.
"""

import contextlib
import glob
import inspect
import io
import os
import sys
import tempfile
import types

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PKG = os.path.join(REPO, "src", "covertq")
SEED = 1
# the region selectors under --stealth, by the fixture they read
STEALTH = {"qubit_cnot": ("cc_csk", "csc_csk", "corollaries"),
           "classical_full_csi": ("thm3", "thm4", "thm6", "causal")}


def trace(run) -> set[tuple[str, int]]:
    """(file, line) of every line of ``src/covertq`` that ``run()`` executes."""
    reached = set()

    def local(frame, event, _arg):
        if event == "line":
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    sys.settrace(lambda frame, _event, _arg:
                 local if frame.f_code.co_filename.startswith(PKG + os.sep) else None)
    try:
        run()
    finally:
        sys.settrace(None)
    return reached


def replay() -> None:
    import pytest
    import workloads
    from covertq import cli
    with tempfile.TemporaryDirectory() as work:
        calls, specs = [], {}
        for w in workloads.WORKLOADS:
            specs.update(workloads.prepare_specs(w, REPO, work, SEED))
            calls += workloads.op_calls(w, specs, work, SEED)
        extra = [("bound", "--which", w, "--optimize", "--spec", specs[s])
                 for w in ("thm1", "thm5") for s in ("qubit_cnot", "synthetic")]
        extra += [("region", "--which", w, "--stealth", "--spec", specs[s])
                  for s, which in STEALTH.items() for w in which]
        calls += [workloads.Call(" ".join(a[:3]), a + ("--seed", str(SEED))) for a in extra]
        for call in calls:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(list(call.argv))
            if code != call.expect_exit:
                raise SystemExit(f"reach: {call.key} exited {code}, expected {call.expect_exit}")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = pytest.main([os.path.join(REPO, "tests", "test_acceptance.py"), "-q",
                              "-p", "no:cacheprovider"])
    if status != 0:
        raise SystemExit(f"reach: tests/test_acceptance.py failed\n{out.getvalue()}")


def functions(path: str) -> dict[tuple[int, str], set[int]]:
    """(first line, name) of every function of a module -> its body lines."""
    with open(path, encoding="utf-8") as fh:
        todo, out = [compile(fh.read(), path, "exec")], {}
    while todo:
        co = todo.pop()
        todo += [c for c in co.co_consts if isinstance(c, types.CodeType)]
        if co.co_flags & inspect.CO_NEWLOCALS:
            out[co.co_firstlineno, co.co_name] = {
                line for *_, line in co.co_lines() if line and line != co.co_firstlineno}
    return out


def ranges(lines: list[int]) -> str:
    """Sorted line numbers as runs: ``3-5,9``."""
    runs = []
    for line in lines:
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ",".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main() -> None:
    sys.path[:0] = [os.path.join(REPO, "src"), os.path.join(REPO, "perfbench")]
    reached = trace(replay)
    total = missed = dead = 0
    for path in sorted(glob.glob(os.path.join(PKG, "*.py"))):
        funcs = functions(path)
        lines = set().union(*funcs.values())
        ran = {line for line in lines if (path, line) in reached}
        never = [f"{name}:{first}" for (first, name), body in sorted(funcs.items())
                 if body and not body & ran and not name.startswith("<")]
        miss = sorted(lines - ran)
        total, missed, dead = total + len(lines), missed + len(miss), dead + len(never)
        print(f"{os.path.relpath(path, REPO)}: {len(miss)} of {len(lines)} unreached"
              + (f": {ranges(miss)}" if miss else ""))
        if never:
            print(f"  never ran: {', '.join(never)}")
    print(f"reach: {missed} of {total} function-body lines unreached; {dead} functions never ran")


if __name__ == "__main__":
    main()
