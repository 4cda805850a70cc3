"""Seeded fuzz: random small circuits through every contraction against dense.

Each draw samples n <= 8 qubits, a brick wall with one rotation of random
axis and angle per block and random initial bits.  Observables are
O = C Z_j C^dag with C the compiled residual Clifford, so a wrong sign in a
brick shows.  An untruncated draw (a random bond cap above every bond,
the default ``svd_cutoff``) asks layer evolution, the vertical fold, the
horizontal sweep and the gate-by-gate baseline for dense values.  A truncated draw (a
random cap of 1 to 4 and a random ``svd_cutoff``, 0 included) asks each
layer's discarded weight eps_k to bound that layer's 1 - F and
(sum_k sqrt(eps_k))^2 to bound the final state's, for the layer track and
the baseline.  The fold and the sweep are linear in their chains, so a
dropped weight eps moves their value by up to sqrt(eps): they cut their
chains at weight ``svd_cutoff**2``, and the default cutoff holds them to
dense as well.
"""

from math import pi

import numpy as np
import pytest

from conftest import fidelity
from stabmpo import mps
from stabmpo.circuit import RotationGate, apply_layer, compile_blocks, expectation
from stabmpo.clifford import sample_brickwall
from stabmpo.dense import basis_state, rotation_matrix
from stabmpo.harness import apply_gates, dense_oracle_run
from stabmpo.mps import Mps, TruncationPolicy
from stabmpo.pauli import PauliString
from stabmpo.temporal import horizontal_contract, vertical_fold_evolve

DRAWS = 16


def random_blocks(rng, n: int, m: int) -> list:
    """m blocks: one brick-wall sublayer, then a rotation of random axis and angle."""
    return [
        (
            sample_brickwall(n, 1, rng, start_parity=k % 2),
            RotationGate(
                int(rng.integers(n)), int(rng.integers(1, 4)), float(rng.uniform(0, 2 * pi))
            ),
        )
        for k in range(m)
    ]


def baseline(blocks, bits, policy) -> tuple[Mps, list[float]]:
    """Gate-by-gate evolution of the blocks and each sublayer's discarded weight."""
    state, errs = Mps.product_state(bits), []
    for circ, rot in blocks:
        state, gate_errs = apply_gates(state, circ, policy)
        errs += gate_errs
        state = state.apply_1q_gate(rotation_matrix(rot.axis, rot.theta), rot.site)
    return state, errs


def check_untruncated(blocks, compiled, bits, policy, rng) -> None:
    n = compiled.n
    base, _ = baseline(blocks, bits, policy)
    for j in rng.choice(n, size=min(n, 2), replace=False):
        obs = compiled.residual.conjugate(PauliString.single(n, int(j), 3), "forward")
        want = dense_oracle_run(n, blocks, bits, obs)
        got = {
            "layer": expectation(Mps.product_state(bits), compiled, obs, policy).value,
            "vertical": vertical_fold_evolve(compiled, obs, bits, policy).value,
            "horizontal": horizontal_contract(compiled, obs, bits, policy).value,
            "baseline": base.expect_pauli(obs),
        }
        for method, value in got.items():
            assert abs(value - want) < 1e-10, (method, obs.to_literal(), value, want)


def check_truncated(blocks, compiled, bits, policy) -> float:
    """The fidelity bounds; returns the largest discarded weight of a layer."""
    state, exact = Mps.product_state(bits), basis_state(bits)
    errs = []
    for layer in compiled.layers:
        u = layer.to_dense()
        want = u @ state.to_dense()
        state, err = apply_layer(state, layer, policy)
        assert err >= 1.0 - fidelity(state.to_dense(), want) - 1e-12
        exact = u @ exact
        errs.append(err)
    assert 1.0 - fidelity(state.to_dense(), exact) <= np.sum(np.sqrt(errs)) ** 2 + 1e-12
    base, base_errs = baseline(blocks, bits, policy)
    loss = 1.0 - fidelity(base.to_dense(), dense_oracle_run(compiled.n, blocks, bits))
    assert loss <= np.sum(np.sqrt(base_errs)) ** 2 + 1e-12
    return max(errs + base_errs)


@pytest.mark.parametrize("seed", range(4))
def test_seeded_fuzz_against_dense(seed, monkeypatch):
    splits = []  # True: a certified gauge step, False: an eigen-split

    def counted(rho, policy, keeps=mps._keeps_every_weight):
        splits.append(keeps(rho, policy))
        return splits[-1]

    monkeypatch.setattr(mps, "_keeps_every_weight", counted)
    rng = np.random.default_rng([1729, seed])
    cut = 0.0
    for draw in range(DRAWS):
        n = int(rng.integers(2, 9))
        blocks = random_blocks(rng, n, int(rng.integers(1, 9)))
        compiled = compile_blocks(n, blocks)
        bits = [int(b) for b in rng.integers(2, size=n)]
        if draw % 2:
            cutoff = float(rng.choice([0.0, 10 ** rng.uniform(-12, -2)]))
            policy = TruncationPolicy(int(rng.integers(1, 5)), cutoff)
            cut = max(cut, check_truncated(blocks, compiled, bits, policy))
        else:
            policy = TruncationPolicy(int(rng.integers(4**4, 4**5)))
            check_untruncated(blocks, compiled, bits, policy, rng)
    assert cut > 1e-6, "no truncated draw cut anything"
    assert True in splits and False in splits, "a split path was never taken"
