"""Shared numerical tolerances and size caps.

Every tolerance that appears in a contract lives here so spec files can
override them in one place (see ``specio``).  Support and grouping
tolerances are *relative* to the largest eigenvalue of the operator they
are applied to.
"""

from __future__ import annotations

from dataclasses import dataclass, replace, fields

from .errors import CapExceeded


@dataclass(frozen=True)
class Numerics:
    herm_tol: float = 1e-10          # max |M - M^dag| entry allowed
    psd_tol: float = 1e-10           # eigenvalue floor for state validation
    trace_tol: float = 1e-10         # |tr - 1| allowed for states
    support_tol: float = 1e-10       # relative eigenvalue cutoff defining supports
    group_tol: float = 1e-8          # relative gap below which eigenvalues merge
    support_mass_tol: float = 1e-9   # probability mass outside a support treated as zero
    prob_tol: float = 1e-12          # distribution normalization slack
    csi_tol: float = 1e-8            # trace-distance slack for CSI consistency
    covert_tol: float = 1e-6         # trace-distance / TV slack for covertness feasibility
    povm_tol: float = 1e-8           # completeness slack for decoder POVMs
    codebook_cap: int = 4096         # max number of codebook entries
    warden_cap: int = 65536          # max |E|^n for exact warden distributions
    exact_resolvability_cap: int = 10**6  # max codebook configurations enumerated exactly

    def replaced(self, **kw) -> "Numerics":
        return replace(self, **kw)

    @classmethod
    def from_dict(cls, d: dict) -> "Numerics":
        known = {f.name for f in fields(cls)}
        bad = set(d) - known
        if bad:
            raise ValueError(f"unknown numerics keys: {sorted(bad)}")
        return cls(**d)


DEFAULT = Numerics()


def code_size(bits: float) -> int:
    """Code size floor(2^bits), at least 1.

    Raises :class:`CapExceeded` when 2^bits overflows a float, so an
    absurd rate ends with the cap exit code instead of a traceback.
    """
    try:
        return max(1, int(2.0 ** bits))
    except OverflowError:
        raise CapExceeded(f"code size 2^{bits:g} exceeds every cap") from None
