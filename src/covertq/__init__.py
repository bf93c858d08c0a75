"""Covert communication over state-dependent channels: one-shot bounds,
asymptotic rate regions, and exact protocol simulation at desk scale."""

import importlib

# The defining module of each name the package exports.  Names and
# submodules are imported on first access (PEP 562), so a fresh interpreter
# compiles only the modules its work uses.
_EXPORTS = {
    "config": "DEFAULT Numerics ProtocolRates",
    "divergences": "DivergenceValue fidelity holevo_mutual_info purified_distance "
                   "relative_entropy sandwiched_renyi trace_distance von_neumann_entropy",
    "oneshot": "BoundReport bound_report decoding_test_bounds resolvability_bound",
    "protocol": "Codebook DecoderPOVM SimulationReport monte_carlo_verify",
    "regions": "RateRegion cc_csk_region classical_region_evaluate corollary_rates "
               "csc_csk_region fm_check superposition_transform",
    "states": "AuxiliaryPolicy ClassicalProblem CQState DensityMatrix ProblemInstance "
              "QuantumChannel apply_channel check_csi_consistency induced_cq_output "
              "innocent_output marginals",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _HOME.get(name, name)
    try:
        mod = importlib.import_module(f"{__name__}.{module}")
    except ModuleNotFoundError as exc:
        if not f"{__name__}.{module}".startswith(str(exc.name)):
            raise  # a submodule failed to import, not a missing attribute
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    if module == name:
        return mod
    value = globals()[name] = getattr(mod, name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
