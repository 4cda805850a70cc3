"""Correctness checks on the studies' outputs.

Every check returns a largest deviation (0.0 for exact checks) and a list
of failure messages; the client counts each message as one failure.
"""

from __future__ import annotations

import csv
import hashlib
import io
from math import isfinite

import numpy as np

from stabmpo.circuit import StabMpoCompiler, compile_blocks
from stabmpo.dense import apply_circuit, apply_unitary, basis_state, rotation_matrix
from stabmpo.dense import expectation as dense_expectation
from stabmpo.harness import (
    TDopedConfig,
    realization_rng,
    run_tdoped,
    sample_floquet_blocks,
    sample_tdoped_blocks,
)
from stabmpo.mps import TruncationPolicy
from stabmpo.pauli import PauliString
from stabmpo.temporal import horizontal_contract, vertical_fold_evolve

ORACLE_TOL = 1e-8
FORWARD_CHECK_BLOCKS = 10
# Floquet never hits the bond cap, but the 1e-12 relative SVD cutoff drops
# about 1e-10 of weight per realization, which moves magnetizations by ~1e-9.
FLOQUET_TOL = 1e-6

# (n, m_layers, depth_d, seed) of a fixed T-doped instance and the sha256 of
# StabMpoCircuit.to_text() for its realization 0, recorded with the code at
# which this benchmark was defined.  Run seeds are not known in advance, so
# the reference instance has its own seed.
REFERENCE_COMPILE = (
    (128, 10, 1, 1234),
    "b88107dcf02ecd6c3222f368a82861c8edf5495616dd6b9c625b48464dddfb23",
)
TOY_REFERENCE_COMPILE = (
    (4, 3, 1, 1234),
    "a622574c41452cf4f0d84dd17290bc984b0b4ce4d74b6faedab3d8b4328f1e8d",
)


def trajectory_rows(data: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(data.decode("utf-8"))))


def row_failures(rows: list[dict]) -> list[str]:
    """One message per realization with a zero_state flag or a value out of range."""
    bad = set()
    for row in rows:
        obs = float(row["observable"])
        values = (float(row["entropy_bits"]), obs, float(row["cum_truncation_error"]))
        if (
            row["zero_state"] != "0"
            or not all(isfinite(v) for v in values)
            or abs(obs) > 1.0 + 1e-9
        ):
            bad.add(int(row["realization"]))
    return [f"realization {r}: zero state or value out of range" for r in sorted(bad)]


def discarded_weight(rows: list[dict]) -> float:
    """Mean final cum_truncation_error of the stabmpo track."""
    final: dict[str, float] = {}
    for row in rows:
        if row["track"] == "stabmpo":
            final[row["realization"]] = float(row["cum_truncation_error"])
    return float(np.mean(list(final.values())))


def _blocks_oracle(n: int, blocks, measure_every: int, observables):
    """Dense statevector values of the observables after every few blocks."""
    state = basis_state([0] * n)
    values = []
    for i, (circ, rot) in enumerate(blocks, start=1):
        if circ is not None:
            state = apply_circuit(state, circ)
        state = apply_unitary(state, rotation_matrix(rot.axis, rot.theta), (rot.site,), n)
        if i % measure_every == 0:
            values.append([dense_expectation(state, p).real for p in observables])
    return values


def compile_check(n: int, m_layers: int, depth_d: int, seed: int) -> tuple[str, list[str]]:
    """Compile realization 0 and check every layer's forward conjugation.

    C Sigma C^dag must give back the signed rotation axis exactly.  Returns
    the sha256 of the compiled circuit text and the failures.
    """
    blocks = sample_tdoped_blocks(n, m_layers, depth_d, realization_rng(seed, 0))
    comp = StabMpoCompiler(n)
    failures = []
    for m, (circ, rot) in enumerate(blocks, start=1):
        comp.push_clifford(circ)
        layer = comp.push_rotation(rot)
        axis = PauliString.single(n, rot.site, rot.axis)
        if comp.tableau.conjugate(layer.gamma, "forward") != axis:
            failures.append(f"layer {m}: forward conjugation is not the rotation axis")
    digest = hashlib.sha256(comp.result().to_text().encode("utf-8")).hexdigest()
    return digest, failures


def tdoped_wide_checks(cfg, rows: list[dict], toy: bool) -> tuple[float, list[str]]:
    """Exact stabilizer-side checks: forward conjugation and the golden text hash.

    The forward check covers the first blocks of the run's realization 0:
    every block costs the same tableau work, so more of them add time only.
    """
    m = min(cfg.m_layers, FORWARD_CHECK_BLOCKS)
    _, failures = compile_check(cfg.n, m, cfg.depth_d, cfg.seed)
    key, golden = TOY_REFERENCE_COMPILE if toy else REFERENCE_COMPILE
    digest, more = compile_check(*key)
    failures += more
    if digest != golden:
        failures.append(f"compiled text of reference instance {key} has sha256 {digest}")
    return 0.0, failures


def floquet_checks(cfg, rows: list[dict], toy: bool) -> tuple[float, list[str]]:
    """Each period's magnetization against a dense run of the same blocks."""
    n = cfg.n
    zs = [PauliString.single(n, j, 3) for j in range(n)]
    worst = 0.0
    for r in range(cfg.realizations):
        blocks = sample_floquet_blocks(n, cfg.epsilon, cfg.periods, realization_rng(cfg.seed, r))
        dense = [float(np.mean(v)) for v in _blocks_oracle(n, blocks, n, zs)]
        got = [float(row["observable"]) for row in rows if row["realization"] == str(r)]
        if len(got) != len(dense):
            return float("inf"), [f"realization {r}: {len(got)} rows, expected {len(dense)}"]
        worst = max(worst, max(abs(a - b) for a, b in zip(got, dense)))
    failures = [] if worst <= FLOQUET_TOL else [f"magnetization deviates from dense by {worst:.3g}"]
    return worst, failures


def temporal_checks(cfg, rows: list[dict], toy: bool) -> tuple[float, list[str]]:
    """Small instance from the run seed: four methods agree with the dense oracle.

    Layer evolution and the gate-by-gate baseline come from the rows of a
    ``run_tdoped`` call on that instance; the vertical fold (cap chi**2, since the coefficient train's bond
    is the square of the state's) and the horizontal sweep are evaluated at
    every step.
    """
    n, m, chi = (4, 3, 16) if toy else (10, 8, 64)
    small = TDopedConfig(n=n, m_layers=m, depth_d=1, chi=chi, realizations=1,
                         seed=cfg.seed, run_baseline=True, run_temporal=True)
    res = run_tdoped(small)
    obs = small.observable_pauli()
    blocks = sample_tdoped_blocks(n, m, 1, realization_rng(cfg.seed, 0))
    dense = [v[0] for v in _blocks_oracle(n, blocks, 1, [obs])]
    fold = TruncationPolicy(chi_max=chi * chi)
    policy = TruncationPolicy(chi_max=chi)
    worst = 0.0
    for step in range(1, m + 1):
        compiled = compile_blocks(n, blocks[:step])
        values = [row[4] for row in res.rows if row[1] == step]  # stabmpo, baseline
        values.append(vertical_fold_evolve(compiled, obs, [0] * n, fold).value)
        values.append(horizontal_contract(compiled, obs, [0] * n, policy).value)
        worst = max(worst, max(abs(v - dense[step - 1]) for v in values))
    failures = [] if worst <= ORACLE_TOL else [f"methods deviate from dense by {worst:.3g}"]
    return worst, failures


CHECKS = {
    "tdoped-wide": tdoped_wide_checks,
    "floquet": floquet_checks,
    "temporal": temporal_checks,
}
