"""Workload definitions: the specs each workload uses and the CLI calls of one op.

An *op* is a fixed list of ``covertq.cli.main(argv)`` calls.  Every call
carries ``--seed`` explicitly, because ``cli.main`` turns an omitted seed
into 0 and never reads ``run.seed`` from the spec.

Workloads and why they were chosen:

- ``fixtures_cli``: every subcommand on the four bundled fixtures.  Qubit
  scale, where thousands of tiny eigenproblems (d = 2..6) and per-call
  Python overhead dominate; the classical path at n = 4 is cheap, and the
  exit-code error path (``faulty_channel``, exit 3) is exercised.
- ``synthetic_quantum``: a seeded A4 S8 B8 E4 instance with 8 labels.
  Eigenproblems at d = 4, 8 and 32 carry almost all of the op, split
  between the divergence grid behind ``--optimize`` and the per-trial
  decoder and covertness blocks.  No classical code runs.
- ``classical_n7``: the ``classical_full_csi`` fixture at blocklength 7.
  The exact warden distribution and the per-trial encode/transmit/decode
  loop carry the op, with a single eigen call per simulation, so a
  ``linalg`` change must show no change here.  The warden sum skips bins
  of zero encoder probability, so its work depends on the seeded codebook
  (the inner loop ran 5562 to 8343 times over seeds 0-15); one op
  simulates ``CLASSICAL_CODEBOOKS`` codebooks, with seeds derived from the
  workload seed, so that run medians do not swing with one codebook.

``BENCHMARK.json`` lists ``fixtures_cli`` and ``classical_n7`` only: between
them every layer is measured, a ``linalg`` change and a classical-path
change each have a workload that exercises it and one that bypasses it,
and the two get 60-second runs within the benchmark's time budget, which
three workloads would cut to 40.  ``synthetic_quantum`` had the widest
run-to-run spread at 40 seconds; run it with ``--workload synthetic_quantum``
or ``--workload all``.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("fixtures_cli", "synthetic_quantum", "classical_n7")
CLASSICAL_CODEBOOKS = 4

# CLI command -> end-to-end metric that sums its call times.
CATEGORY = {"divergence": "cli.analytic_s", "bound": "cli.analytic_s",
            "region": "cli.analytic_s", "simulate": "cli.simulate_s",
            "verify": "cli.verify_s"}


class GeneratorError(RuntimeError):
    """A generated instance failed its self-check."""


@dataclass(frozen=True)
class Call:
    """One CLI call: a key naming it within the op, its argv, and the exit
    code it must give."""

    key: str
    argv: tuple[str, ...]
    expect_exit: int = 0

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def category(self) -> str:
        return CATEGORY[self.command]


def fixture_dir(root: str) -> str:
    return os.path.join(root, "src", "covertq", "fixtures")


# ---------------------------------------------------------------------------
# Spec generation

def _mat(m) -> dict:
    m = np.asarray(m, dtype=complex)
    return {"re": m.real.tolist(), "im": m.imag.tolist()}


def _permutation(d_in: tuple[int, int], d_out: tuple[int, int], fn) -> np.ndarray:
    """Permutation matrix sending |x, y> to |fn(x, y)> in tensor order."""
    p = np.zeros((d_out[0] * d_out[1], d_in[0] * d_in[1]))
    for x in range(d_in[0]):
        for y in range(d_in[1]):
            b, e = fn(x, y)
            p[b * d_out[1] + e, x * d_in[1] + y] = 1.0
    return p


def synthetic_quantum_doc(seed: int) -> dict:
    """Seeded A4 S8 B8 E4 spec whose decoder blocks are non-trivial.

    Two Kraus permutations, B = S + A mod 8 with E = S mod 4 (weight 0.7)
    or E = A (weight 0.3).  The 8 labels are two mutually unbiased A bases
    tensored with a diagonal state rho_S that puts weight 0.4 on one symbol,
    so some conditional outputs exceed twice the average and the decoder
    blocks are non-zero.  The label average is (I/4) x rho_S: CSI
    consistent and covertness exact with innocent I/4.

    The seed draws the bases: the A factor is written in a seeded Haar
    basis, undone inside the Kraus operators, and the outputs in seeded
    local Haar bases on B and E, so every channel-output eigenproblem is
    dense.  The spectrum of rho_S is fixed, because it sets which decoder
    blocks are non-zero and so the work per op: with a seeded spectrum
    the eigensolver work of ``simulate`` varied by +-16% between seeds.
    Rates R = 1, R_K = R_J = 0, alpha = 0.2.
    """
    from covertq.sampling import random_unitary

    d_a, d_s, d_b, d_e = 4, 8, 8, 4
    rng = np.random.default_rng(seed)
    p_mod = _permutation((d_a, d_s), (d_b, d_e), lambda a, s: ((s + a) % d_b, s % d_e))
    p_a = _permutation((d_a, d_s), (d_b, d_e), lambda a, s: ((s + a) % d_b, a))
    v_a = random_unitary(rng, d_a)
    v_in = np.kron(v_a, np.eye(d_s))
    u_out = np.kron(random_unitary(rng, d_b), random_unitary(rng, d_e))
    kraus = [math.sqrt(w) * (u_out @ p @ v_in.conj().T)
             for w, p in ((0.7, p_mod), (0.3, p_a))]

    weights = 0.6 * np.arange(d_s, 0, -1) / (d_s * (d_s + 1) / 2)  # 8:7:...:1
    weights[0] += 0.4
    rho_s = np.diag(weights).astype(complex)
    fourier = np.exp(2j * np.pi * np.outer(np.arange(d_a), np.arange(d_a)) / d_a) / 2.0
    vectors = [v_a @ v for v in list(np.eye(d_a, dtype=complex)) + list(fourier.T)]
    conds = [np.kron(np.outer(v, v.conj()), rho_s) for v in vectors]
    return {
        "version": "1",
        "kind": "quantum",
        "factors": {"A": d_a, "S": d_s, "B": d_b, "E": d_e},
        "channel": {"kraus": [_mat(k) for k in kraus]},
        "innocent": _mat(np.eye(d_a) / d_a),
        "csi": {**_mat(rho_s), "factors": ["S"]},
        "ensemble": {"probs": [1.0 / len(conds)] * len(conds),
                     "conditionals": [_mat(c) for c in conds]},
        "rates": {"R": 1.0, "R_K": 0.0, "R_J": 0.0, "alpha": 0.2},
        "run": {"seed": seed, "trials": 100},
    }


def classical_n7_doc(root: str) -> dict:
    """The ``classical_full_csi`` fixture rewritten with blocklength 7."""
    doc = read_doc(os.path.join(fixture_dir(root), "classical_full_csi.json"))
    doc["run"]["blocklength"] = 7
    return doc


def check_quantum_instance(ensemble, instance, rates, seed: int,
                           trials: int = 30) -> dict:
    """Self-check of a generated quantum instance; raises GeneratorError.

    The instance must be CSI consistent and covertness exact (so the
    trace-distance verdicts run), every Monte Carlo verdict must pass, the
    mean idealized error must lie strictly inside (0, 1) (otherwise the
    decoder blocks are all zero and the eigensolver exits early), and the
    mean key_p2 must be positive.
    """
    from covertq.divergences import trace_distance
    from covertq.oneshot import induced_states
    from covertq.protocol import monte_carlo_verify
    from covertq.states import check_csi_consistency, innocent_output

    problems = []
    csi_ok, dev = check_csi_consistency(ensemble, instance)
    if not csi_ok:
        problems.append(f"ensemble S-marginal is {dev:.3e} from the shared state")
    st = induced_states(ensemble, instance.channel)
    cov = trace_distance(st.rho_e, innocent_output(instance))
    if cov > st.cfg.covert_tol:
        problems.append(f"warden marginal is {cov:.3e} from the innocent output")
    sim = monte_carlo_verify(ensemble, instance, rates, trials, seed, keep_trials=False)
    failed = sorted(k for k, ok in sim.verdicts.items() if not ok)
    if failed:
        problems.append(f"verdicts failed: {failed}")
    if "key_trace" not in sim.verdicts:
        problems.append("trace-distance verdicts did not run")
    err = sim.means["ideal_error"]
    if not 0.0 < err < 1.0:
        problems.append(f"mean ideal_error {err!r} is not strictly inside (0, 1)")
    if not sim.means["key_p2"] > 0.0:
        problems.append(f"mean key_p2 {sim.means['key_p2']!r} is not positive")
    if problems:
        raise GeneratorError("; ".join(problems))
    return {"ideal_error": err, "key_p2": sim.means["key_p2"], "trials": trials}


def check_classical_instance(doc: dict) -> dict:
    """Self-check of a classical spec document: the policy must be covert
    (its induced warden distribution equals the innocent one) and the exact
    warden distribution must fit under its size cap."""
    from covertq.config import DEFAULT

    q_s, w_e = np.asarray(doc["q_s"]), np.asarray(doc["channel"]).sum(axis=2)  # (A, S, E)
    policy = doc["policy"]
    induced = np.einsum("s,su,usa,ase->e", q_s, np.asarray(policy["p_u_s"]),
                        np.asarray(policy["p_a_us"]), w_e)
    tv = 0.5 * float(np.abs(induced - q_s @ w_e[doc["x0"]]).sum())
    n = int(doc["run"]["blocklength"])
    problems = []
    if tv > DEFAULT.covert_tol:
        problems.append(f"policy is not covert: TV {tv:.3e}")
    if w_e.shape[2] ** n > DEFAULT.warden_cap:
        problems.append("warden alphabet power exceeds the cap")
    if problems:
        raise GeneratorError("; ".join(problems))
    return {"covert_tv": tv, "blocklength": n, "warden_terms": warden_terms(doc)}


def warden_terms(doc: dict) -> int:
    """|S|^n |M| |J| |K| of a classical spec's exact warden distribution,
    computed from the spec (code sizes are floor(2^(n rate)))."""
    n = int(doc["run"].get("blocklength", 4))
    sizes = [max(1, int(2.0 ** (n * float(doc["rates"].get(k, 0.0)))))
             for k in ("R_J", "R_K", "R")]
    return len(doc["q_s"]) ** n * math.prod(sizes)


def read_doc(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def write_spec(doc: dict, path: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
    return path


def prepare_specs(workload: str, root: str, workdir: str, seed: int) -> dict[str, str]:
    """Write the workload's generated specs; return name -> path for every
    spec the workload's calls read (bundled fixtures included)."""
    fx = fixture_dir(root)
    if workload == "fixtures_cli":
        return {name: os.path.join(fx, name + ".json")
                for name in ("diag_states", "qubit_cnot", "classical_full_csi",
                             "faulty_channel")}
    if workload == "synthetic_quantum":
        return {"synthetic": write_spec(synthetic_quantum_doc(seed),
                                        os.path.join(workdir, "synthetic_quantum.json"))}
    if workload == "classical_n7":
        return {"classical_n7": write_spec(classical_n7_doc(root),
                                           os.path.join(workdir, "classical_n7.json"))}
    raise ValueError(f"unknown workload {workload!r}")


def self_check(workload: str, specs: dict[str, str], seed: int) -> dict:
    """Run the generator self-check for the workload's generated spec."""
    from covertq.specio import load_spec

    if workload == "synthetic_quantum":
        spec = load_spec(specs["synthetic"])
        return check_quantum_instance(spec.ensemble, spec.instance,
                                      spec.protocol_rates(), seed)
    if workload == "classical_n7":
        return check_classical_instance(read_doc(specs["classical_n7"]))
    return {}


# ---------------------------------------------------------------------------
# Calls of one op

def op_calls(workload: str, specs: dict[str, str], workdir: str, seed: int) -> list[Call]:
    def call(key, *argv, expect_exit=0, call_seed=seed):
        return Call(key, tuple(argv) + ("--seed", str(call_seed)), expect_exit)

    if workload == "fixtures_cli":
        diag, cnot = specs["diag_states"], specs["qubit_cnot"]
        cfull, faulty = specs["classical_full_csi"], specs["faulty_channel"]
        calls = [call(f"divergence.{m}", "divergence", "--spec", diag, "--measure", m,
                      "--a", "rho", "--b", "sigma")
                 for m in ("trace", "fidelity", "purified", "relent")]
        calls.append(call("divergence.sandwiched", "divergence", "--spec", diag,
                          "--measure", "sandwiched", "--order", "1.25",
                          "--a", "rho", "--b", "sigma"))
        calls.append(call("bound.thm1", "bound", "--spec", cnot, "--which", "thm1",
                          "--optimize"))
        calls += [call(f"bound.{w}", "bound", "--spec", cnot, "--which", w)
                  for w in ("thm5", "lemma1", "lemma2")]
        calls.append(call("region.cc_csk", "region", "--spec", cnot, "--which", "cc_csk",
                          "--csv", os.path.join(workdir, "boundary.csv")))
        calls += [call(f"region.{w}", "region", "--spec", cnot, "--which", w)
                  for w in ("csc_csk", "corollaries")]
        calls += [call(f"region.{w}", "region", "--spec", cfull, "--which", w)
                  for w in ("thm3", "thm4", "thm6", "causal")]
        calls.append(call("simulate.quantum", "simulate", "--spec", cnot, "--target",
                          "quantum", "--trials", "200",
                          "--out", os.path.join(workdir, "simulate.json")))
        calls.append(call("simulate.classical", "simulate", "--spec", cfull, "--target",
                          "classical", "--trials", "200"))
        calls.append(call("verify.all", "verify", "--suite", "all"))
        calls.append(call("bound.faulty", "bound", "--spec", faulty, "--which", "thm1",
                          expect_exit=3))
        return calls
    if workload == "synthetic_quantum":
        syn = specs["synthetic"]
        calls = [call("bound.thm1", "bound", "--spec", syn, "--which", "thm1", "--optimize")]
        calls += [call(f"bound.{w}", "bound", "--spec", syn, "--which", w)
                  for w in ("thm5", "lemma1", "lemma2")]
        calls += [call(f"region.{w}", "region", "--spec", syn, "--which", w)
                  for w in ("cc_csk", "csc_csk", "corollaries")]
        calls.append(call("simulate.quantum", "simulate", "--spec", syn, "--target",
                          "quantum", "--trials", "100"))
        return calls
    if workload == "classical_n7":
        k = CLASSICAL_CODEBOOKS
        return [call(f"simulate.classical.{i}", "simulate", "--spec", specs["classical_n7"],
                     "--target", "classical", "--trials", "1000", call_seed=k * seed + i)
                for i in range(k)]
    raise ValueError(f"unknown workload {workload!r}")
