"""Output checks for every CLI call of an op.

A call passes when it gives its expected exit code without raising, its
stdout parses as a JSON report whose verdicts all hold, its body (the
report without ``wall_clock_s``) is byte-identical to the body the same
call gave in the first op of the run, any ``--out`` or ``--csv`` file it
wrote is well formed, and its seed-free analytic values agree with the
reference values within ``REL_TOL`` relative (plus ``ABS_TOL``, so that
values that are exactly zero in theory compare sanely).

Reference values for the bundled fixtures live in ``reference.json``
(written by ``make_reference.py``).  For the generated quantum instance
they are recomputed here with ``numpy.linalg.eigh``, independently of
the program's eigensolver.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

REL_TOL = 1e-9
ABS_TOL = 1e-12
REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
CSV_HEADER = "w_R,w_RK,R,R_K,active"


def load_reference() -> dict:
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def body_text(doc: dict) -> str:
    """Canonical text of a report without its timing field."""
    return json.dumps({k: v for k, v in doc.items() if k != "wall_clock_s"},
                      sort_keys=True)


def close(got, want) -> bool:
    return (isinstance(got, (int, float)) and not isinstance(got, bool)
            and math.isfinite(got) and abs(got - want) <= REL_TOL * abs(want) + ABS_TOL)


def compare_tree(got, want, path: str = "results") -> list[str]:
    """Differences between two JSON trees; floats compare within tolerance."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r} "
                    f"!= {sorted(want)}"]
        return [d for k in sorted(want) for d in compare_tree(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: {got!r} != {want!r}"]
        return [d for i, (g, w) in enumerate(zip(got, want))
                for d in compare_tree(g, w, f"{path}[{i}]")]
    if isinstance(want, float) and not isinstance(got, bool):
        return [] if close(got, want) else [f"{path}: {got!r} != {want!r}"]
    return [] if got == want and type(got) is type(want) else [f"{path}: {got!r} != {want!r}"]


def lookup(doc: dict, path: str):
    node = doc
    for part in path.split("/"):
        node = node[part]
    return node


class OpChecker:
    """Checks the calls of every op of one run against the first op and the
    reference values.

    ``reference`` maps a call key to the expected ``results`` tree;
    ``expected`` maps a call key to {"/"-separated path: value} pairs.
    """

    def __init__(self, reference: dict | None = None, expected: dict | None = None):
        self.reference = reference or {}
        self.expected = expected or {}
        self.bodies: dict[str, str] = {}
        self.docs: dict[str, dict] = {}

    def check(self, call, code, stdout: str, stderr: str, error: str | None = None,
              out_path: str | None = None, csv_path: str | None = None) -> list[str]:
        """Problems found with one call's outcome (empty when it passed)."""
        if error is not None:
            return [f"{call.key}: raised {error}"]
        problems = []
        if code != call.expect_exit:
            problems.append(f"{call.key}: exit {code}, expected {call.expect_exit}")
        if call.expect_exit != 0:
            if stdout.strip() or not stderr.startswith("error:") or "Traceback" in stderr:
                problems.append(f"{call.key}: error path printed {stdout[:80]!r} / "
                                f"{stderr[:80]!r}")
            return problems
        try:
            doc = json.loads(stdout)
        except ValueError as exc:
            return problems + [f"{call.key}: report is not JSON ({exc})"]
        if not isinstance(doc, dict) or "results" not in doc:
            return problems + [f"{call.key}: report has no results"]
        failed = sorted(k for k, ok in doc.get("verdicts", {}).items() if ok is not True)
        if failed:
            problems.append(f"{call.key}: verdicts failed {failed}")
        body = body_text(doc)
        first = self.bodies.setdefault(call.key, body)
        self.docs.setdefault(call.key, doc)
        if body != first:
            problems.append(f"{call.key}: report body differs from the first op")
        if call.key in self.reference:
            problems += [f"{call.key}: {d}" for d in
                         compare_tree(doc["results"], self.reference[call.key])[:5]]
        for path, want in self.expected.get(call.key, {}).items():
            try:
                got = lookup(doc["results"], path)
            except (KeyError, TypeError):
                got = None
            if not close(got, want):
                problems.append(f"{call.key}: results/{path} = {got!r}, reference {want!r}")
        if out_path is not None:
            problems += _check_out_file(call.key, out_path, body)
        if csv_path is not None:
            problems += _check_csv(call.key, csv_path, doc)
        return problems


def _check_out_file(key: str, path: str, body: str) -> list[str]:
    try:
        with open(path, encoding="utf-8") as fh:
            written = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"{key}: --out file unreadable ({exc})"]
    if isinstance(written, dict) and body_text(written) == body:
        return []
    return [f"{key}: --out body differs from stdout"]


def _check_csv(key: str, path: str, doc: dict) -> list[str]:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        return [f"{key}: --csv file unreadable ({exc})"]
    rows = doc["results"].get("sweep", [])
    if not lines or lines[0] != CSV_HEADER or len(lines) != len(rows) + 1:
        return [f"{key}: --csv has {len(lines)} lines, expected header and {len(rows)} rows"]
    return []


# ---------------------------------------------------------------------------
# Independent reference values for a generated quantum spec

def _matrix(node) -> np.ndarray:
    return np.asarray(node["re"], float) + 1j * np.asarray(node.get("im") or 0.0, float)


def _partial_trace(m: np.ndarray, dims: tuple[int, int], keep: int) -> np.ndarray:
    t = m.reshape(dims + dims)
    return np.einsum("ijkj->ik", t) if keep == 0 else np.einsum("ijil->jl", t)


def _cutoff(w: np.ndarray) -> float:
    return 1e-10 * float(np.max(np.abs(w), initial=0.0))


def _sandwiched(probs, conds, order: float) -> float:
    """log2(sum_u p_u tr[(s rho_u s)^order]) / (order - 1), s = sigma^((1-order)/(2 order))."""
    a = order - 1.0
    sigma = sum(p * c for p, c in zip(probs, conds))
    w, v = np.linalg.eigh(sigma)
    keep = w > _cutoff(w)
    s = (v[:, keep] * w[keep] ** (-a / (2.0 * order))) @ v[:, keep].conj().T
    total = 0.0
    for p, c in zip(probs, conds):
        x = s @ c @ s
        ev = np.linalg.eigvalsh(0.5 * (x + x.conj().T))
        total += p * float(np.sum(ev[ev > _cutoff(ev)] ** order))
    return math.log2(total) / a


def _entropy(m: np.ndarray) -> float:
    w = np.linalg.eigvalsh(m)
    w = w[w > _cutoff(w)]
    return float(-np.sum(w * np.log2(w)))


def _holevo(probs, conds) -> float:
    avg = sum(p * c for p, c in zip(probs, conds))
    return max(0.0, _entropy(avg) - sum(p * _entropy(c) for p, c in zip(probs, conds)))


def quantum_expected(doc: dict) -> dict:
    """Seed-free values the bound and region reports of a quantum spec must
    carry, keyed by call key, computed with LAPACK eigendecompositions."""
    f = doc["factors"]
    alpha = float(doc["rates"]["alpha"])
    kraus = [_matrix(k) for k in doc["channel"]["kraus"]]
    probs = [float(p) for p in doc["ensemble"]["probs"]]
    conds = [_matrix(c) for c in doc["ensemble"]["conditionals"]]
    outs = [sum(k @ c @ k.conj().T for k in kraus) for c in conds]
    cq_s = [_partial_trace(c, (f["A"], f["S"]), 1) for c in conds]
    cq_b = [_partial_trace(o, (f["B"], f["E"]), 0) for o in outs]
    cq_e = [_partial_trace(o, (f["B"], f["E"]), 1) for o in outs]
    divs = {"divergences/D_state": _sandwiched(probs, cq_s, 1.0 + alpha),
            "divergences/D_receiver": _sandwiched(probs, cq_b, 1.0 - alpha),
            "divergences/D_warden": _sandwiched(probs, cq_e, 1.0 + alpha)}
    info = {"I(U;B)": _holevo(probs, cq_b), "I(U;S)": _holevo(probs, cq_s),
            "I(U;E)": _holevo(probs, cq_e)}
    region = {f"region/meta/{k}": v for k, v in info.items()}
    return {"bound.thm1": divs, "bound.thm5": divs, "region.cc_csk": region,
            "region.csc_csk": region, "region.corollaries": info}
