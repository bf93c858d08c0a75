"""Span tracing from outside the program.

The tracer wraps public functions of the ``covertq`` modules by rebinding
module attributes (every module that imported the function, and
module-level dicts such as ``verify.SUITES``) and class attributes.  No
file of the program changes; ``uninstall`` puts every original back.

A span is ``(name, start, end, parent, op, info)``: ``parent`` indexes the
enclosing span (-1 for a root), ``op`` is the op id, and ``info`` holds the
matrix dimension for eigensolver calls.  A span's self time is its
duration minus the durations of its children; calls run on one thread, so
children never overlap.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import statistics
import sys
import time
from collections import defaultdict

# Layers are the modules.  Every function in a module's ``__all__`` is
# wrapped, plus the entries below; the three ``linalg`` helpers are called
# inside every eigen call and cost less than a span, so their time stays
# in their caller's self time.
MODULES = ("linalg", "states", "divergences", "pinching", "oneshot", "protocol",
           "regions", "classical", "sampling", "specio", "verify", "cli")
EXTRA = ("oneshot.InducedStates.divergence", "specio.RunReport.to_json",
         "states.DensityMatrix.__init__", "verify.suite_pinching",
         "verify.suite_dataprocessing", "verify.suite_fm", "verify.suite_reduction",
         "cli.main")
SKIP = frozenset({"linalg.dagger", "linalg.herm_deviation", "linalg.require_hermitian"})
# Constructions with validate=True are recorded under this name.
VALIDATE = "states.DensityMatrix.validate"
EIG = "linalg.eig_hermitian"
ROOT = "bench.op"


def _matrix_dim(args, kwargs) -> int:
    return len(args[0] if args else kwargs["m"])


def _resolve(dotted: str):
    """(owner, attribute name) of a module-relative dotted name, or None
    when the program has no such function (its metrics then read zero)."""
    mod_name, *attrs = dotted.split(".")
    owner = sys.modules.get(f"covertq.{mod_name}")
    for a in attrs[:-1]:
        owner = getattr(owner, a, None)
    return (owner, attrs[-1]) if attrs[-1] in getattr(owner, "__dict__", {}) else None


def wrap_targets() -> list[str]:
    """Dotted names (module-relative) of every function the tracer wraps."""
    names = []
    for mod_name in MODULES:
        mod = sys.modules.get(f"covertq.{mod_name}")
        for attr in getattr(mod, "__all__", ()):
            obj = getattr(mod, attr, None)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                names.append(f"{mod_name}.{attr}")
    names += [n for n in EXTRA if n not in names]
    return [n for n in names if n not in SKIP and _resolve(n)]


class Tracer:
    """Records spans in memory while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.op = -1

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, info=None):
        """``fn`` recording one span per call; ``info(args, kwargs)`` fills
        the span's info field."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op,
                              info(args, kwargs) if info else None)
        return wrapper

    def _wrap_validate(self, init):
        traced = self.wrap(VALIDATE, init)

        @functools.wraps(init)
        def __init__(obj, *args, **kwargs):
            if kwargs.get("validate", True):
                return traced(obj, *args, **kwargs)
            return init(obj, *args, **kwargs)
        return __init__

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; ``uninstall`` undoes it."""
        modules = [m for n, m in sys.modules.items()
                   if n == "covertq" or n.startswith("covertq.")]
        for dotted in wrap_targets():
            owner, attr = _resolve(dotted)
            original = owner.__dict__[attr]
            if dotted == "states.DensityMatrix.__init__":
                wrapper = self._wrap_validate(original)
            else:
                info = _matrix_dim if dotted == EIG else None
                wrapper = self.wrap(dotted, original, info)
            if inspect.isclass(owner):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)
                    elif type(val) is dict:
                        for k, v in val.items():
                            if v is original:
                                self._patches.append((val, k, original))
                                val[k] = wrapper

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    # -- output ------------------------------------------------------------

    def write(self, path: str) -> None:
        """Spans as gzip'd CSV: name,start,end,parent,op,info."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name,start,end,parent,op,info\n")
            for name, start, end, parent, op, info in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent},{op},"
                         f"{'' if info is None else info}\n")


def self_times(spans: list[tuple]) -> list[float]:
    """Self time of each span: its duration minus its children's durations.

    ``parent`` indexes into the same list; a span whose parent lies outside
    the list is treated as a root.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent, *_ in spans:
        if 0 <= parent < len(spans):
            child[parent] += end - start
    return [end - start - c for (_, start, end, *_), c in zip(spans, child)]


def op_summary(spans: list[tuple], offset: int = 0) -> dict:
    """Per-name calls, self time and total time for the spans of one op.

    ``offset`` is the index of ``spans[0]`` in the tracer's full list, so
    parent indices can be rebased.
    """
    local = [(n, s, e, p - offset, op, info) for n, s, e, p, op, info in spans]
    selfs = self_times(local)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    dims: dict[int, int] = defaultdict(int)
    nested_cq = 0
    for (name, start, end, parent, _, info), st in zip(local, selfs):
        calls[name] += 1
        self_s[name] += st
        total_s[name] += end - start
        if name == EIG:
            dims[info] += 1
        if (name == "divergences.cq_sandwiched_renyi" and 0 <= parent < len(local)
                and local[parent][0] == "oneshot.InducedStates.divergence"):
            nested_cq += 1
    root = [i for i, sp in enumerate(local) if sp[0] == ROOT]
    op_s = sum(local[i][2] - local[i][1] for i in root)
    top = sum(e - s for n, s, e, p, *_ in local if 0 <= p < len(local) and local[p][0] == ROOT)
    return {"calls": dict(calls), "self_s": dict(self_s), "total_s": dict(total_s),
            "eig_dims": dict(dims), "cq_from_cache_miss": nested_cq, "op_s": op_s,
            "top_level_s": top}


def kernel_table(eig, dims=(2, 4, 8, 16, 32), seed: int = 0, min_reps: int = 5,
                 min_seconds: float = 0.2) -> dict[int, float]:
    """Median microseconds of ``eig`` on seeded dense Hermitian matrices."""
    import numpy as np

    rng = np.random.default_rng(seed)
    out = {}
    for d in dims:
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        m = 0.5 * (g + g.conj().T)
        times = []
        t_end = time.perf_counter() + min_seconds
        while len(times) < min_reps or time.perf_counter() < t_end:
            t0 = time.perf_counter()
            eig(m)
            times.append(time.perf_counter() - t0)
        out[d] = statistics.median(times) * 1e6
    return out
