"""Problem spec files (JSON in, JSON/CSV out) and run reports.

Spec files are versioned JSON with complex matrices as paired real/imag
arrays.  Reports serialize deterministically (sorted keys, canonical
float repr) so identical runs produce byte-identical bodies; wall-clock
time is the one field excluded from that contract.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT, Numerics, ProtocolRates
from .errors import CovertqError, DimMismatch, ParseError
from .states import (AuxiliaryPolicy, ClassicalProblem, CQState, DensityMatrix,
                     ProblemInstance, QuantumChannel, check_policy, require_states)

__all__ = ["FIELDS", "SpecFile", "load_spec", "RunReport", "write_region_csv"]

SUPPORTED_VERSIONS = ("1",)


def _expect(cond: bool, where: str, msg: str):
    if not cond:
        raise ParseError(f"{where}: {msg}")


def _finite(value) -> bool:
    """Whether ``value`` is a finite JSON number; a bool is not one."""
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:  # an integer literal beyond the float range
        return False


def _each(what: str, ok):
    """The rule of a non-empty array whose every entry keeps ``(what, ok)``."""
    return (f"a non-empty array, each entry {what}",
            lambda v: type(v) is list and len(v) > 0 and all(map(ok, v)))


# The rule of every scalar spec field, FIELDS[block][name] = (what, test),
# block "" being the top level.  ``test`` takes the decoded JSON value; one
# that fails it is a parse error "<path>:<block>.<name>: must be <what>,
# got <value!r>".  The numeric CLI flags take their argparse types from the
# same rows.
_COUNT = ("an integer >= 1", lambda v: type(v) is int and v >= 1)
_INDEX = ("an integer >= 0", lambda v: type(v) is int and v >= 0)
_NONNEG = ("a finite number >= 0", lambda v: _finite(v) and v >= 0.0)
_OPEN_HALF = ("a number in (0, 1/2)", lambda v: _finite(v) and 0.0 < v < 0.5)
FIELDS = {
    # a cap is an integer, a tolerance a float
    "numerics": {f.name: _COUNT if type(f.default) is int else _NONNEG
                 for f in dataclasses.fields(Numerics)},
    "rates": {"R": _NONNEG, "R_K": _NONNEG, "R_J": _NONNEG, "alpha": _OPEN_HALF},
    "run": {"blocklength": _COUNT, "seed": _INDEX, "trials": _COUNT,
            "rj_grid": _each(*_NONNEG), "alpha_grid": _each(*_OPEN_HALF)},
    "factors": {"A": _COUNT, "S": _COUNT, "B": _COUNT, "E": _COUNT},
    "": {"x0": _INDEX},
}


def _check_fields(node: dict, block: str, path: str) -> None:
    """Check the fields of ``node``, spec block ``block``, against their
    FIELDS rows; other keys are left to the block's parser."""
    for name, (what, ok) in FIELDS[block].items():
        if name in node and not ok(node[name]):
            where = f"{block}.{name}" if block else name
            raise ParseError(f"{path}:{where}: must be {what}, got {node[name]!r}")


def _numbers(node, where: str, name: str) -> np.ndarray:
    """Array ``name`` of spec node ``where`` as floats; strings, booleans,
    nulls and ragged rows (lists among the cells, or an error) are parse errors."""
    try:
        cells = np.array(node, dtype=object)
        if set(map(type, cells.flat)) <= {int, float}:
            return cells.astype(np.float64)
    except (ValueError, OverflowError):  # ragged rows, integers beyond the float range
        pass
    raise ParseError(f"{where}: {name} must be a rectangular array of JSON numbers")


def _matrix(node, where: str, shape: tuple[int, int] | None = None) -> np.ndarray:
    """A matrix node; a well-formed one of a shape other than ``shape`` is a
    dimension error."""
    _expect(isinstance(node, dict), where, "expected an object with 're' (and 'im')")
    _expect("re" in node, where, "missing 're'")
    re = _numbers(node["re"], where, "'re'")
    im = np.zeros_like(re) if node.get("im") is None else _numbers(node["im"], where, "'im'")
    _expect(re.ndim == 2, where, "'re' must be a 2-D array")
    _expect(im.shape == re.shape, where, "'im' shape differs from 're'")
    if shape is not None and re.shape != shape:
        raise DimMismatch(f"{where}: shape {re.shape}, expected {shape}")
    with np.errstate(invalid="ignore"):  # 1j * inf; the state check names the entry
        return re + 1j * im


def _array(node, where: str) -> list:
    if not isinstance(node, list):  # the message renders the node only on failure
        raise ParseError(f"{where}: must be an array, got {node!r}")
    return node


def _checked(where: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, its errors prefixed by the spec field ``where``
    (and the error's own ``field`` below it): a well-formed but invalid value
    keeps its error type, a malformed one is a parse error."""
    try:
        return make(*args, **kwargs)
    except CovertqError as exc:
        if exc.field:
            where = f"{where}:{exc.field}"
        raise type(exc)(f"{where}: {exc}") from exc
    except Exception as exc:
        raise ParseError(f"{where}: {exc}") from exc


@dataclass(frozen=True, eq=False)
class SpecFile:
    """Parsed problem spec with resolved numerics."""

    cfg: Numerics
    path: str
    # quantum side (None for classical specs)
    instance: ProblemInstance | None = None
    ensemble: CQState | None = None
    states: dict[str, DensityMatrix] = field(default_factory=dict)
    # classical side
    problem: ClassicalProblem | None = None
    policy: AuxiliaryPolicy | None = None
    rates: dict = field(default_factory=dict)
    run: dict = field(default_factory=dict)

    def rate(self, name: str) -> float:
        """Rate ``name`` ("R", "R_K" or "R_J") of the rates block; 0 if absent."""
        return float(self.rates.get(name, 0.0))

    def protocol_rates(self, alpha: float | None = None) -> ProtocolRates:
        """The rates block, its alpha replaced by ``alpha`` when given."""
        a = alpha if alpha is not None else self.rates.get("alpha")
        _expect(a is not None, f"{self.path}:rates", "no alpha given (flag or spec)")
        return ProtocolRates(R=self.rate("R"), R_K=self.rate("R_K"),
                             R_J=self.rate("R_J"), alpha=float(a))


def _named_states(nodes: dict, cfg: Numerics, path: str) -> dict[str, DensityMatrix]:
    """The ``states`` block, checked with one :func:`require_states` call per
    shape; the states are checked one at a time only when that fails."""
    mats: dict[str, np.ndarray] = {}
    try:
        for name, node in nodes.items():
            mats[name] = _matrix(node, f"{path}:states.{name}")
        shapes: dict[tuple, list[np.ndarray]] = {}
        for m in mats.values():
            shapes.setdefault(m.shape, []).append(m)
        for group in shapes.values():
            require_states(np.stack(group), cfg)
    except Exception:
        # A malformed node, or a failing batch: check the states read so far
        # in order, so that the error is the one the first bad state raises.
        for name, m in mats.items():
            _checked(f"{path}:states.{name}", DensityMatrix, m, cfg=cfg)
        raise
    return {name: DensityMatrix(m, validate=False) for name, m in mats.items()}


def _parse_quantum(doc: dict, cfg: Numerics, path: str) -> dict:
    out: dict = {}
    states = doc.get("states", {})
    _expect(isinstance(states, dict), f"{path}:states", "must be an object")
    out["states"] = _named_states(states, cfg, path)
    if "channel" not in doc:
        _expect("ensemble" not in doc, f"{path}:ensemble",
                "an ensemble needs a channel block")
        return out

    factors = doc.get("factors")
    _expect(isinstance(factors, dict), f"{path}:factors", "missing factor dimension map")
    for name in FIELDS["factors"]:
        _expect(name in factors, f"{path}:factors", f"missing factor {name!r}")
    _check_fields(factors, "factors", path)
    d_a, d_s, d_b, d_e = (factors[name] for name in ("A", "S", "B", "E"))

    ch_node = doc.get("channel")
    _expect(isinstance(ch_node, dict) and "kraus" in ch_node, f"{path}:channel",
            "missing Kraus list")
    kraus = [_matrix(k, f"{path}:channel.kraus[{i}]", (d_b * d_e, d_a * d_s))
             for i, k in enumerate(_array(ch_node["kraus"], f"{path}:channel.kraus"))]
    channel = _checked(f"{path}:channel", QuantumChannel, kraus,
                       in_factors=[("A", d_a), ("S", d_s)],
                       out_factors=[("B", d_b), ("E", d_e)], cfg=cfg)

    _expect("innocent" in doc, f"{path}:innocent", "missing innocent state")
    innocent = _checked(f"{path}:innocent", DensityMatrix,
                        _matrix(doc["innocent"], f"{path}:innocent", (d_a, d_a)),
                        [("A", d_a)], cfg=cfg)
    csi_node, where = doc.get("csi"), f"{path}:csi"
    _expect(isinstance(csi_node, dict), where, "missing csi state")
    csi_factors = csi_node.get("factors", ["S"])
    _expect(csi_factors in (["S"], ["Sbar", "S"]), f"{where}.factors",
            f"must be ['S'] or ['Sbar', 'S'], got {csi_factors!r}")
    if csi_factors == ["S"]:
        csi_mat, csi_dims = _matrix(csi_node, where, (d_s, d_s)), [("S", d_s)]
    else:
        csi_mat = _matrix(csi_node, where)
        side = csi_mat.shape[0]
        if csi_mat.shape != (side, side) or side % d_s:
            raise DimMismatch(f"{where}: shape {csi_mat.shape}, expected a square "
                              f"of side a multiple of the S dimension {d_s}")
        csi_dims = [("Sbar", side // d_s), ("S", d_s)]
    csi = _checked(where, DensityMatrix, csi_mat, csi_dims, cfg=cfg)
    out["instance"] = _checked(path, ProblemInstance, channel, innocent, csi)

    if "ensemble" in doc:
        ens, where = doc["ensemble"], f"{path}:ensemble"
        _expect(isinstance(ens, dict) and "probs" in ens and "conditionals" in ens,
                where, "needs 'probs' and 'conditionals'")
        nodes = _array(ens["conditionals"], f"{where}.conditionals")
        stack = np.empty((len(nodes), d_a * d_s, d_a * d_s), dtype=np.complex128)
        for i, node in enumerate(nodes):
            stack[i] = _matrix(node, f"{where}.conditionals[{i}]", (d_a * d_s, d_a * d_s))
        conds = _checked(f"{where}.conditionals", DensityMatrix, stack,
                         [("A", d_a), ("S", d_s)], cfg=cfg)
        probs = _numbers(ens["probs"], where, "'probs'")
        _expect(probs.ndim == 1, where, f"'probs' must be a 1-D array, got {ens['probs']!r}")
        out["ensemble"] = _checked(where, CQState, range(len(nodes)), probs, conds, cfg=cfg)
    return out


def _parse_classical(doc: dict, cfg: Numerics, path: str) -> dict:
    out: dict = {}
    _expect("q_s" in doc and "channel" in doc and "x0" in doc, f"{path}",
            "classical spec needs 'q_s', 'channel', 'x0'")
    q_s = _numbers(doc["q_s"], path, "'q_s'")
    w = _numbers(doc["channel"], path, "'channel'")
    _check_fields(doc, "", path)
    out["problem"] = _checked(path, ClassicalProblem, q_s, w, doc["x0"], cfg)
    if "policy" in doc:
        pol, where = doc["policy"], f"{path}:policy"
        _expect(isinstance(pol, dict) and "p_u_s" in pol and "p_a_us" in pol,
                where, "needs 'p_u_s' and 'p_a_us'")
        p_u_s = _numbers(pol["p_u_s"], where, "'p_u_s'")
        p_a_us = _numbers(pol["p_a_us"], where, "'p_a_us'")
        out["policy"] = _checked(where, AuxiliaryPolicy, p_u_s, p_a_us, cfg)
        _checked(where, check_policy, out["problem"], out["policy"])
    return out


def load_spec(path: str, cfg: Numerics = DEFAULT) -> SpecFile:
    """Parse and validate a spec file; raises :class:`ParseError` with a
    field path or line number on malformed input."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:line {exc.lineno}: {exc.msg}") from exc

    _expect(isinstance(doc, dict), path, "top level must be an object")
    version = str(doc.get("version", ""))
    _expect(version in SUPPORTED_VERSIONS, f"{path}:version",
            f"unsupported version {version!r} (supported: {SUPPORTED_VERSIONS})")
    kind = doc.get("kind")
    _expect(kind in ("quantum", "classical"), f"{path}:kind",
            "kind must be 'quantum' or 'classical'")

    blocks = {}
    for block in ("numerics", "rates", "run"):
        blocks[block] = node = doc.get(block, {})
        _expect(isinstance(node, dict), f"{path}:{block}", "must be an object")
        _check_fields(node, block, path)
    try:
        cfg = cfg.replaced(**blocks["numerics"])
    except (TypeError, ValueError) as exc:  # a key that is not a Numerics field
        raise ParseError(f"{path}:numerics: {exc}") from exc

    parsed = (_parse_quantum if kind == "quantum" else _parse_classical)(doc, cfg, path)
    return SpecFile(cfg=cfg, path=path, rates=blocks["rates"], run=blocks["run"], **parsed)


# ---------------------------------------------------------------------------
# Reports

def _canonical(obj):
    """Make numpy scalars/arrays JSON-ready, deterministically."""
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _canonical(obj.tolist())
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        obj = float(obj)
    if isinstance(obj, float):
        if obj != obj:  # NaN has no strict-JSON form
            return "nan"
        if obj in (float("inf"), float("-inf")):
            return "inf" if obj > 0 else "-inf"
    return obj


@dataclass
class RunReport:
    """Command echo, resolved configuration, results, and verdicts."""

    command: str
    config: dict
    results: dict
    verdicts: dict = field(default_factory=dict)
    wall_clock_s: float = 0.0

    def body(self) -> dict:
        """Everything except timing; byte-stable for a fixed seed."""
        return _canonical({
            "command": self.command,
            "config": self.config,
            "results": self.results,
            "verdicts": self.verdicts,
        })

    def to_json(self) -> str:
        doc = self.body()
        doc["wall_clock_s"] = round(float(self.wall_clock_s), 6)
        return json.dumps(doc, sort_keys=True, indent=2)

    def write(self, path: str) -> None:
        """Atomic write: temp file then rename."""
        _atomic_write(path, self.to_json() + "\n")


def _atomic_write(path: str, text: str) -> None:
    """Write ``text`` to a temp file beside ``path``, then rename it over
    ``path``; on any failure the temp file is removed and ``path`` is left
    as it was."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_region_csv(path: str, rows: list[dict]) -> None:
    """Boundary CSV with one row per scalarization weight."""
    header = "w_R,w_RK,R,R_K,active\n"
    lines = [header]
    for row in rows:
        active = ";".join(row.get("active", []))
        lines.append(f"{row['w_R']},{row['w_RK']},{row['R']},{row['R_K']},{active}\n")
    _atomic_write(path, "".join(lines))
