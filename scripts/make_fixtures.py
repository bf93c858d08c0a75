#!/usr/bin/env python3
"""Regenerate the bundled spec-file fixtures.

Run from the repository root:

    python scripts/make_fixtures.py

The script no longer reproduces the committed ``qubit_cnot.json`` bit for
bit: the ensemble conditionals it writes differ from the committed ones by
up to 2.8e-17 in ``re`` and ``im`` (the other three fixtures match).
Regenerating that fixture therefore moves the floats of every report on it,
and the golden bodies under ``tests/golden`` with them; regenerate it only
together with those bodies (``scripts/make_golden.py``).
"""

import json
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from covertq.sampling import matched_ensemble  # noqa: E402
from covertq.states import DensityMatrix, ProblemInstance, QuantumChannel  # noqa: E402

OUT = os.path.join(os.path.dirname(__file__), "..", "src", "covertq", "fixtures")


def mat(m) -> dict:
    m = np.asarray(m, dtype=complex)
    return {"re": m.real.tolist(), "im": m.imag.tolist()}


def qubit_cnot_spec() -> dict:
    """Controlled-flip channel with a covertness-exact correlated ensemble."""
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                    dtype=complex)
    channel = QuantumChannel([cnot], in_factors=[("A", 2), ("S", 2)],
                             out_factors=[("B", 2), ("E", 2)])
    innocent = DensityMatrix(np.array([[0.6, 0.15 + 0.1j], [0.15 - 0.1j, 0.4]],
                                      dtype=complex), [("A", 2)])
    rho_s = DensityMatrix(np.diag([0.65, 0.35]).astype(complex), [("S", 2)])
    inst = ProblemInstance(channel, innocent, rho_s)
    rng = np.random.default_rng(77)
    ens = matched_ensemble(rng, inst, num_labels=4, spread=0.95)
    return {
        "version": "1",
        "kind": "quantum",
        "factors": {"A": 2, "S": 2, "B": 2, "E": 2},
        "channel": {"kraus": [mat(cnot)]},
        "innocent": mat(innocent.matrix),
        "csi": {**mat(rho_s.matrix), "factors": ["S"]},
        "ensemble": {"probs": ens.probs.tolist(),
                     "conditionals": [mat(c.matrix) for c in ens.conditionals]},
        "rates": {"R": 1.0, "R_K": 0.0, "R_J": 1.0, "alpha": 0.2},
        "run": {"seed": 5, "trials": 200},
    }


def diag_states_spec() -> dict:
    """States-only spec for divergence evaluations."""
    return {
        "version": "1",
        "kind": "quantum",
        "states": {
            "rho": mat(np.diag([0.3, 0.7])),
            "sigma": mat(np.diag([0.6, 0.4])),
            "pure0": mat(np.diag([1.0, 0.0])),
            "mix": mat(np.diag([0.5, 0.5])),
        },
    }


def classical_full_csi_spec() -> dict:
    """Binary full-CSI problem with a redundant innocent symbol.

    Receiver sees the input through a (1 - eps) flip channel plus the
    state; the warden sees the XOR of input and state through a noisy
    flip.  The stacked policy rides the codeword on the state.
    """
    eps, q = 0.03, 0.25
    w = np.zeros((2, 2, 2, 2))
    for a in range(2):
        for s in range(2):
            for b in range(2):
                pb = (1 - eps) if b == a else eps
                for e in range(2):
                    pe = (1 - q) if e == (a ^ s) else q
                    w[a, s, b, e] = pb * pe
    p_u_s = np.zeros((2, 4))
    for s in range(2):
        for ut in range(2):
            p_u_s[s, 2 * ut + s] = 0.5
    p_a_us = np.zeros((4, 2, 2))
    for ut in range(2):
        for sp in range(2):
            for s in range(2):
                p_a_us[2 * ut + sp, s, ut ^ s] = 1.0
    return {
        "version": "1",
        "kind": "classical",
        "q_s": [0.5, 0.5],
        "channel": w.tolist(),
        "x0": 0,
        "policy": {"p_u_s": p_u_s.tolist(), "p_a_us": p_a_us.tolist()},
        "rates": {"R": 0.175, "R_K": 0.956796, "R_J": 0.226434},
        "run": {"seed": 12, "trials": 200, "blocklength": 4},
    }


def faulty_channel_spec() -> dict:
    """Non-CPTP Kraus list; exercises the validation path."""
    doc = qubit_cnot_spec()
    bad = np.eye(4, dtype=complex)
    bad[0, 0] = 1.2
    doc["channel"] = {"kraus": [mat(bad)]}
    del doc["ensemble"]
    return doc


def main() -> None:
    os.makedirs(OUT, exist_ok=True)
    fixtures = {
        "qubit_cnot.json": qubit_cnot_spec(),
        "diag_states.json": diag_states_spec(),
        "classical_full_csi.json": classical_full_csi_spec(),
        "faulty_channel.json": faulty_channel_spec(),
    }
    for name, doc in fixtures.items():
        path = os.path.join(OUT, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print("wrote", path)


if __name__ == "__main__":
    main()
