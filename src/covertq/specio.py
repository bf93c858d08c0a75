"""Problem spec files (JSON in, JSON/CSV out) and run reports.

Spec files are versioned JSON with complex matrices as paired real/imag
arrays.  Reports serialize deterministically (sorted keys, canonical
float repr) so identical runs produce byte-identical bodies; wall-clock
time is the one field excluded from that contract.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT, Numerics
from .errors import CovertqError, ParseError
from .oneshot import ProtocolRates
from .regions import AuxiliaryPolicy, ClassicalProblem
from .states import CQState, DensityMatrix, ProblemInstance, QuantumChannel

__all__ = ["SpecFile", "load_spec", "RunReport", "write_region_csv"]

SUPPORTED_VERSIONS = ("1",)


def _expect(cond: bool, where: str, msg: str):
    if not cond:
        raise ParseError(f"{where}: {msg}")


def _matrix(node, where: str) -> np.ndarray:
    _expect(isinstance(node, dict), where, "expected an object with 're' (and 'im')")
    _expect("re" in node, where, "missing 're'")
    re = np.asarray(node["re"], dtype=np.float64)
    _expect(re.ndim == 2, where, "'re' must be a 2-D array")
    if "im" in node and node["im"] is not None:
        im = np.asarray(node["im"], dtype=np.float64)
        _expect(im.shape == re.shape, where, "'im' shape differs from 're'")
    else:
        im = np.zeros_like(re)
    return re + 1j * im


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

    def protocol_rates(self, alpha: float | None = None) -> ProtocolRates:
        r = self.rates
        _expect(bool(r), f"{self.path}:rates", "spec carries no rates block")
        a = alpha if alpha is not None else r.get("alpha")
        _expect(a is not None, f"{self.path}:rates", "no alpha given (flag or spec)")
        try:
            return ProtocolRates(R=float(r.get("R", 0.0)), R_K=float(r.get("R_K", 0.0)),
                                 R_J=float(r.get("R_J", 0.0)), alpha=float(a))
        except ValueError as exc:
            raise ParseError(f"{self.path}:rates: {exc}") from exc


def _parse_quantum(doc: dict, cfg: Numerics, path: str) -> dict:
    out: dict = {}
    out["states"] = {name: DensityMatrix(_matrix(node, f"{path}:states.{name}"), cfg=cfg)
                     for name, node in doc.get("states", {}).items()}
    if "channel" not in doc:
        _expect("ensemble" not in doc, f"{path}:ensemble",
                "an ensemble needs a channel block")
        return out

    where = f"{path}:factors"
    factors = doc.get("factors")
    _expect(isinstance(factors, dict), where, "missing factor dimension map")
    for name in ("A", "S", "B", "E"):
        _expect(name in factors, where, f"missing factor {name!r}")
    d_a, d_s = int(factors["A"]), int(factors["S"])
    d_b, d_e = int(factors["B"]), int(factors["E"])

    ch_node = doc.get("channel")
    _expect(isinstance(ch_node, dict) and "kraus" in ch_node, f"{path}:channel",
            "missing Kraus list")
    kraus = [_matrix(k, f"{path}:channel.kraus[{i}]")
             for i, k in enumerate(ch_node["kraus"])]
    channel = QuantumChannel(kraus, in_factors=[("A", d_a), ("S", d_s)],
                             out_factors=[("B", d_b), ("E", d_e)], cfg=cfg)

    _expect("innocent" in doc, f"{path}:innocent", "missing innocent state")
    innocent = DensityMatrix(_matrix(doc["innocent"], f"{path}:innocent"),
                             [("A", d_a)], cfg=cfg)
    csi_node = doc.get("csi")
    _expect(isinstance(csi_node, dict), f"{path}:csi", "missing csi state")
    csi_mat = _matrix(csi_node, f"{path}:csi")
    csi_factors = csi_node.get("factors", ["S"])
    if list(csi_factors) == ["S"]:
        csi = DensityMatrix(csi_mat, [("S", d_s)], cfg=cfg)
    else:
        _expect(list(csi_factors) == ["Sbar", "S"], f"{path}:csi",
                "factors must be ['S'] or ['Sbar', 'S']")
        d_bar = csi_mat.shape[0] // d_s
        csi = DensityMatrix(csi_mat, [("Sbar", d_bar), ("S", d_s)], cfg=cfg)
    out["instance"] = ProblemInstance(channel, innocent, csi)

    if "ensemble" in doc:
        ens = doc["ensemble"]
        _expect(isinstance(ens, dict) and "probs" in ens and "conditionals" in ens,
                f"{path}:ensemble", "needs 'probs' and 'conditionals'")
        conds = [DensityMatrix(_matrix(c, f"{path}:ensemble.conditionals[{i}]"),
                               [("A", d_a), ("S", d_s)], cfg=cfg)
                 for i, c in enumerate(ens["conditionals"])]
        out["ensemble"] = CQState(range(len(conds)), ens["probs"], conds, cfg=cfg)
    return out


def _parse_classical(doc: dict, cfg: Numerics, path: str) -> dict:
    out: dict = {}
    _expect("q_s" in doc and "channel" in doc and "x0" in doc, f"{path}",
            "classical spec needs 'q_s', 'channel', 'x0'")
    try:
        out["problem"] = ClassicalProblem(doc["q_s"], doc["channel"], doc["x0"], cfg)
    except CovertqError as exc:  # a well-formed but invalid table
        raise type(exc)(f"{path}:channel: {exc}") from exc
    except Exception as exc:
        raise ParseError(f"{path}:channel: {exc}") from exc
    if "policy" in doc:
        pol = doc["policy"]
        _expect(isinstance(pol, dict) and "p_u_s" in pol and "p_a_us" in pol,
                f"{path}:policy", "needs 'p_u_s' and 'p_a_us'")
        try:
            out["policy"] = AuxiliaryPolicy(pol["p_u_s"], pol["p_a_us"], cfg)
        except CovertqError as exc:
            raise type(exc)(f"{path}:policy: {exc}") from exc
        except Exception as exc:
            raise ParseError(f"{path}:policy: {exc}") from exc
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

    nums = doc.get("numerics", {})
    _expect(isinstance(nums, dict), f"{path}:numerics", "must be an object")
    try:
        cfg = cfg.replaced(**nums)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}:numerics: {exc}") from exc

    rates, run = doc.get("rates", {}), doc.get("run", {})
    _expect(isinstance(rates, dict), f"{path}:rates", "must be an object")
    _expect(isinstance(run, dict), f"{path}:run", "must be an object")
    if "blocklength" in run:
        n = run["blocklength"]
        _expect(isinstance(n, int) and not isinstance(n, bool) and n >= 1,
                f"{path}:run.blocklength", f"must be an integer >= 1, got {n!r}")

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

    def to_json(self, include_timing: bool = True) -> str:
        doc = self.body()
        if include_timing:
            doc["wall_clock_s"] = round(float(self.wall_clock_s), 6)
        return json.dumps(doc, sort_keys=True, indent=2)

    def write(self, path: str) -> None:
        """Atomic write: temp file then rename."""
        directory = os.path.dirname(os.path.abspath(path)) or "."
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(self.to_json())
                fh.write("\n")
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
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
