"""The import graph: a fresh interpreter loads only the covertq modules its
work uses, and the package's lazy exports are the defining modules' objects.

Every case runs in its own interpreter, since this test process has long
since imported every module."""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "src")
FIXTURES = os.path.join(SRC, "covertq", "fixtures")
QUBIT = os.path.join(FIXTURES, "qubit_cnot.json")
DIAG = os.path.join(FIXTURES, "diag_states.json")
CLASSICAL = os.path.join(FIXTURES, "classical_full_csi.json")
FAULTY = os.path.join(FIXTURES, "faulty_channel.json")

# The names ``covertq`` exported when it imported them eagerly, by the
# module they were imported from then.
EXPORTS = {
    "config": "DEFAULT Numerics",
    "divergences": "DivergenceValue fidelity holevo_mutual_info purified_distance "
                   "relative_entropy sandwiched_renyi trace_distance von_neumann_entropy",
    "oneshot": "BoundReport ProtocolRates bound_report decoding_test_bounds "
               "resolvability_bound",
    "protocol": "Codebook DecoderPOVM SimulationReport monte_carlo_verify",
    "regions": "AuxiliaryPolicy ClassicalProblem RateRegion cc_csk_region "
               "classical_region_evaluate corollary_rates csc_csk_region fm_check "
               "superposition_transform",
    "states": "CQState DensityMatrix ProblemInstance QuantumChannel apply_channel "
              "check_csi_consistency induced_cq_output innocent_output marginals",
}
NAMES = sorted(n for names in EXPORTS.values() for n in names.split())

LOAD = {"config", "errors", "linalg", "states", "specio"}
CLI = LOAD | {"cli"}
ANALYSIS = {"divergences", "oneshot", "pinching"}  # what every bound and region needs


def fresh(code: str):
    """Run ``code`` in a fresh interpreter; return the JSON value of its last
    stdout line."""
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


LOADED = ("print(__import__('json').dumps(sorted(m.split('.', 1)[1] for m in sys.modules "
          "if m.startswith('covertq.'))))")


def test_loading_the_fixtures_imports_only_the_data_model():
    loaded = fresh(f"""
import sys
import covertq
from covertq.errors import CovertqError
from covertq.specio import load_spec
for path in {[QUBIT, DIAG, CLASSICAL, FAULTY]!r}:
    try:
        load_spec(path)
    except CovertqError:
        pass
{LOADED}
""")
    assert set(loaded) == LOAD


@pytest.mark.parametrize("argv, extra", [
    (("divergence", "--spec", DIAG, "--measure", "sandwiched", "--order", "1.5"),
     {"divergences"}),
    (("bound", "--spec", QUBIT, "--which", "lemma1"), ANALYSIS),
    (("bound", "--spec", QUBIT, "--which", "thm1", "--optimize"), ANALYSIS),
    (("region", "--spec", QUBIT, "--which", "csc_csk"), ANALYSIS | {"regions"}),
    # the classical regions, the classical simulation and the suites need no oneshot
    (("region", "--spec", CLASSICAL, "--which", "thm6"), {"divergences", "regions"}),
    (("simulate", "--spec", QUBIT, "--target", "quantum", "--trials", "30"),
     ANALYSIS | {"protocol", "sampling"}),
    (("simulate", "--spec", CLASSICAL, "--target", "classical", "--trials", "30"),
     {"divergences", "pinching", "classical", "regions", "sampling"}),
    (("verify", "--suite", "fm", "--spec", QUBIT),
     {"divergences", "pinching", "regions", "sampling", "verify"}),
    (("bound", "--spec", FAULTY, "--which", "thm1"), set()),  # rejected as it loads
], ids=["divergence", "bound.lemma1", "bound.optimize", "region.csc_csk", "region.thm6",
        "simulate.quantum", "simulate.classical", "verify", "bound.faulty"])
def test_each_command_imports_only_what_it_runs(argv, extra):
    loaded = fresh(f"""
import contextlib, io, sys
from covertq.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    main({list(argv)!r})
{LOADED}
""")
    assert set(loaded) == CLI | extra


def test_exports_are_the_defining_modules_objects():
    same = fresh(f"""
import importlib, json
import covertq
exports = {EXPORTS!r}
print(json.dumps({{name: getattr(covertq, name) is getattr(
    importlib.import_module("covertq." + module), name)
    for module, names in exports.items() for name in names.split()}}))
""")
    assert same == dict.fromkeys(NAMES, True)


def test_star_import_and_dir_list_every_export():
    seen = fresh("""
import json
from covertq import *
import covertq
print(json.dumps([sorted(covertq.__all__), sorted(set(dir(covertq)) & set(globals())
                                                  & set(covertq.__all__))]))
""")
    assert seen == [NAMES, NAMES]


def test_attribute_access_imports_the_defining_module():
    seen = fresh("""
import json, sys
import covertq
before = "covertq.protocol" in sys.modules
covertq.monte_carlo_verify
print(json.dumps([before, "covertq.protocol" in sys.modules, "covertq.regions" in sys.modules,
                  covertq.oneshot.__name__, hasattr(covertq, "no_such_name")]))
""")
    assert seen == [False, True, False, "covertq.oneshot", False]
