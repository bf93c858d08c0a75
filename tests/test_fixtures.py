"""The bundled fixtures against the documents ``scripts/make_fixtures.py``
builds, in memory: no fixture file is written."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "src" / "covertq" / "fixtures"


def _make_fixtures():
    spec = importlib.util.spec_from_file_location("make_fixtures",
                                                  ROOT / "scripts" / "make_fixtures.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _text(doc) -> str:
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"  # as the script writes it


@pytest.mark.parametrize("name", ["diag_states", "classical_full_csi", "faulty_channel"])
def test_fixture_documents_match_committed_files(name):
    doc = getattr(_make_fixtures(), f"{name}_spec")()
    assert _text(doc) == (FIXTURES / f"{name}.json").read_text(encoding="utf-8")


def test_qubit_cnot_document_drifts_only_in_the_conditionals():
    # The script's matched ensemble no longer reproduces the committed
    # conditionals bit for bit; the documented drift is at most 2.8e-17.
    doc = _make_fixtures().qubit_cnot_spec()
    committed = json.loads((FIXTURES / "qubit_cnot.json").read_text(encoding="utf-8"))
    conds, want = doc["ensemble"].pop("conditionals"), committed["ensemble"].pop("conditionals")
    assert json.loads(_text(doc)) == committed
    got = np.array([[m["re"], m["im"]] for m in conds])
    ref = np.array([[m["re"], m["im"]] for m in want])
    assert got.shape == ref.shape == (4, 2, 4, 4)
    assert np.max(np.abs(got - ref)) <= 2.8e-17
