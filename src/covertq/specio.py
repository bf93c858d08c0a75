"""Problem spec files (JSON in, JSON/CSV out) and run reports.

Spec files are versioned JSON with complex matrices as paired real/imag
arrays.  Reports serialize deterministically (sorted keys, canonical
float repr) so identical runs produce byte-identical bodies; wall-clock
time is the one field excluded from that contract.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT, Numerics
from .errors import CovertqError, DimMismatch, ParseError
from .oneshot import ProtocolRates
from .regions import AuxiliaryPolicy, ClassicalProblem
from .states import CQState, DensityMatrix, ProblemInstance, QuantumChannel

__all__ = ["SpecFile", "load_spec", "RunReport", "write_region_csv"]

SUPPORTED_VERSIONS = ("1",)


def _expect(cond: bool, where: str, msg: str):
    if not cond:
        raise ParseError(f"{where}: {msg}")


def _numbers(node, where: str, name: str) -> np.ndarray:
    """Array ``name`` of spec node ``where`` as floats; strings, booleans,
    nulls and ragged rows are parse errors."""
    def numeric(x) -> bool:
        return all(map(numeric, x)) if isinstance(x, list) else _is_number(x)
    try:
        if numeric(node):
            return np.asarray(node, dtype=np.float64)
    except (ValueError, OverflowError):  # ragged rows, integers beyond the float range
        pass
    raise ParseError(f"{where}: {name} must be a rectangular array of JSON numbers")


def _matrix(node, where: str, dim: int | None = None) -> np.ndarray:
    """A matrix node; a well-formed one that is not ``dim`` x ``dim`` is a
    dimension error."""
    _expect(isinstance(node, dict), where, "expected an object with 're' (and 'im')")
    _expect("re" in node, where, "missing 're'")
    re = _numbers(node["re"], where, "'re'")
    im = np.zeros_like(re) if node.get("im") is None else _numbers(node["im"], where, "'im'")
    _expect(re.ndim == 2, where, "'re' must be a 2-D array")
    _expect(im.shape == re.shape, where, "'im' shape differs from 're'")
    if dim is not None and re.shape != (dim, dim):
        raise DimMismatch(f"{where}: shape {re.shape}, expected ({dim}, {dim})")
    return re + 1j * im


def _array(node, where: str) -> list:
    _expect(isinstance(node, list), where, f"must be an array, got {node!r}")
    return node


def _checked(where: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, its errors prefixed by the spec field ``where``:
    a well-formed but invalid value keeps its error type, a malformed one is a parse error."""
    try:
        return make(*args, **kwargs)
    except CovertqError as exc:
        raise type(exc)(f"{where}: {exc}") from exc
    except Exception as exc:
        raise ParseError(f"{where}: {exc}") from exc


@dataclass(frozen=True, eq=False)
class SpecFile:
    """Parsed problem spec with resolved numerics."""

    kind: str
    cfg: Numerics
    raw: dict
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
        _expect(bool(self.rates), f"{self.path}:rates", "spec carries no rates block")
        a = alpha if alpha is not None else self.rates.get("alpha")
        _expect(a is not None, f"{self.path}:rates", "no alpha given (flag or spec)")
        try:
            return ProtocolRates(R=self.rate("R"), R_K=self.rate("R_K"),
                                 R_J=self.rate("R_J"), alpha=float(a))
        except ValueError as exc:
            raise ParseError(f"{self.path}:rates: {exc}") from exc


def _parse_quantum(doc: dict, cfg: Numerics, path: str) -> dict:
    out: dict = {}
    states = doc.get("states", {})
    _expect(isinstance(states, dict), f"{path}:states", "must be an object")
    out["states"] = {name: DensityMatrix(_matrix(node, f"{path}:states.{name}"), cfg=cfg)
                     for name, node in states.items()}
    if "channel" not in doc:
        _expect("ensemble" not in doc, f"{path}:ensemble",
                "an ensemble needs a channel block")
        return out

    where = f"{path}:factors"
    factors = doc.get("factors")
    _expect(isinstance(factors, dict), where, "missing factor dimension map")
    for name in ("A", "S", "B", "E"):
        _expect(name in factors, where, f"missing factor {name!r}")
        _expect(_is_int(factors[name], 1), f"{where}.{name}",
                f"must be an integer >= 1, got {factors[name]!r}")
    d_a, d_s, d_b, d_e = (factors[name] for name in ("A", "S", "B", "E"))

    ch_node = doc.get("channel")
    _expect(isinstance(ch_node, dict) and "kraus" in ch_node, f"{path}:channel",
            "missing Kraus list")
    kraus = [_matrix(k, f"{path}:channel.kraus[{i}]")
             for i, k in enumerate(_array(ch_node["kraus"], f"{path}:channel.kraus"))]
    channel = QuantumChannel(kraus, in_factors=[("A", d_a), ("S", d_s)],
                             out_factors=[("B", d_b), ("E", d_e)], cfg=cfg)

    _expect("innocent" in doc, f"{path}:innocent", "missing innocent state")
    innocent = DensityMatrix(_matrix(doc["innocent"], f"{path}:innocent", d_a),
                             [("A", d_a)], cfg=cfg)
    csi_node = doc.get("csi")
    _expect(isinstance(csi_node, dict), f"{path}:csi", "missing csi state")
    csi_mat = _matrix(csi_node, f"{path}:csi")
    csi_factors = csi_node.get("factors", ["S"])
    _expect(csi_factors in (["S"], ["Sbar", "S"]), f"{path}:csi.factors",
            f"must be ['S'] or ['Sbar', 'S'], got {csi_factors!r}")
    if csi_factors == ["S"]:
        csi = DensityMatrix(csi_mat, [("S", d_s)], cfg=cfg)
    else:
        d_bar = csi_mat.shape[0] // d_s
        csi = DensityMatrix(csi_mat, [("Sbar", d_bar), ("S", d_s)], cfg=cfg)
    out["instance"] = ProblemInstance(channel, innocent, csi)

    if "ensemble" in doc:
        ens, where = doc["ensemble"], f"{path}:ensemble"
        _expect(isinstance(ens, dict) and "probs" in ens and "conditionals" in ens,
                where, "needs 'probs' and 'conditionals'")
        nodes = _array(ens["conditionals"], f"{where}.conditionals")
        stack = np.empty((len(nodes), d_a * d_s, d_a * d_s), dtype=np.complex128)
        for i, node in enumerate(nodes):
            stack[i] = _matrix(node, f"{where}.conditionals[{i}]", d_a * d_s)
        conds = _checked(f"{where}.conditionals", DensityMatrix, stack,
                         [("A", d_a), ("S", d_s)], cfg=cfg)
        probs = _numbers(ens["probs"], where, "'probs'")
        _expect(probs.ndim == 1, where, f"'probs' must be a 1-D array, got {ens['probs']!r}")
        out["ensemble"] = CQState(range(len(nodes)), probs, conds, cfg=cfg)
    return out


def _parse_classical(doc: dict, cfg: Numerics, path: str) -> dict:
    out: dict = {}
    _expect("q_s" in doc and "channel" in doc and "x0" in doc, f"{path}",
            "classical spec needs 'q_s', 'channel', 'x0'")
    q_s = _numbers(doc["q_s"], path, "'q_s'")
    w = _numbers(doc["channel"], path, "'channel'")
    _expect(_is_int(doc["x0"], 0), f"{path}:x0", f"must be an integer >= 0, got {doc['x0']!r}")
    out["problem"] = _checked(f"{path}:channel", ClassicalProblem, q_s, w, doc["x0"], cfg)
    if "policy" in doc:
        pol = doc["policy"]
        _expect(isinstance(pol, dict) and "p_u_s" in pol and "p_a_us" in pol,
                f"{path}:policy", "needs 'p_u_s' and 'p_a_us'")
        p_u_s = _numbers(pol["p_u_s"], f"{path}:policy", "'p_u_s'")
        p_a_us = _numbers(pol["p_a_us"], f"{path}:policy", "'p_a_us'")
        out["policy"] = _checked(f"{path}:policy", AuxiliaryPolicy, p_u_s, p_a_us, cfg)
    return out


def _is_number(value) -> bool:
    """Whether ``value`` is a JSON number (not a bool)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _finite_number(value) -> float | None:
    """``value`` as a float if it is a finite JSON number (not a bool)."""
    if not _is_number(value):
        return None
    try:
        x = float(value)
    except OverflowError:  # an integer literal beyond the float range
        return None
    return x if math.isfinite(x) else None


def _is_int(value, least: int) -> bool:
    """Whether ``value`` is a JSON integer >= ``least`` (not a bool)."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= least


def _check_numerics(nums: dict, path: str) -> None:
    """Tolerances must be finite numbers >= 0 and caps integers >= 1;
    unknown keys are left to ``Numerics.replaced``."""
    for name, value in nums.items():
        default = getattr(DEFAULT, name, None)
        if isinstance(default, int):
            _expect(_is_int(value, 1), f"{path}:numerics.{name}",
                    f"must be an integer >= 1, got {value!r}")
        elif isinstance(default, float):
            x = _finite_number(value)
            _expect(x is not None and x >= 0.0, f"{path}:numerics.{name}",
                    f"must be a finite number >= 0, got {value!r}")


# The range of a rate and of the Renyi knob alpha: (what, test on a finite float).
_RATE = ("a finite number >= 0", lambda x: x >= 0.0)
_ALPHA = ("a number in (0, 1/2)", lambda x: 0.0 < x < 0.5)


def _in_range(value, ok) -> bool:
    x = _finite_number(value)
    return x is not None and ok(x)


def _check_rates(rates: dict, path: str) -> None:
    for name, (what, ok) in (("R", _RATE), ("R_K", _RATE), ("R_J", _RATE), ("alpha", _ALPHA)):
        if name in rates:
            _expect(_in_range(rates[name], ok), f"{path}:rates.{name}",
                    f"must be {what}, got {rates[name]!r}")


def _check_run(run: dict, path: str) -> None:
    for name, least in (("blocklength", 1), ("seed", 0), ("trials", 1)):
        if name in run:
            _expect(_is_int(run[name], least), f"{path}:run.{name}",
                    f"must be an integer >= {least}, got {run[name]!r}")
    for name, (what, ok) in (("rj_grid", _RATE), ("alpha_grid", _ALPHA)):
        if name in run:
            grid = run[name]
            _expect(isinstance(grid, list) and len(grid) > 0
                    and all(_in_range(x, ok) for x in grid), f"{path}:run.{name}",
                    f"must be a non-empty array, each entry {what}, got {grid!r}")


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

    nums = doc.get("numerics", {})
    _expect(isinstance(nums, dict), f"{path}:numerics", "must be an object")
    _check_numerics(nums, path)
    try:
        cfg = cfg.replaced(**nums)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}:numerics: {exc}") from exc

    rates, run = doc.get("rates", {}), doc.get("run", {})
    _expect(isinstance(rates, dict), f"{path}:rates", "must be an object")
    _expect(isinstance(run, dict), f"{path}:run", "must be an object")
    _check_rates(rates, path)
    _check_run(run, path)

    parsed = (_parse_quantum if kind == "quantum" else _parse_classical)(doc, cfg, path)
    return SpecFile(kind=kind, cfg=cfg, raw=doc, path=path, rates=rates, run=run,
                    **parsed)


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
