"""Shared helpers for the test suite: random objects and dense references."""

from __future__ import annotations

import os

# Every tensor in the suite is small, so extra BLAS threads add nothing but
# contention.  This must run before numpy loads BLAS.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from stabmpo.clifford import CliffordCircuit, Gate
from stabmpo.mps import Mps, TruncationPolicy
from stabmpo.pauli import PauliString


def random_pauli(rng, n: int, signed: bool = True) -> PauliString:
    """Random Hermitian Pauli string, optionally with a random sign."""
    letter_exp = 2 * int(rng.integers(2)) if signed else 0
    return PauliString.from_letters(
        [int(rng.integers(4)) for _ in range(n)], letter_exp
    )


def random_clifford_circuit(rng, n: int, length: int) -> CliffordCircuit:
    gates = []
    for _ in range(length):
        kind = int(rng.integers(8))
        if kind < 5:
            name = ("H", "S", "SDG", "X", "Z")[kind]
            gates.append(Gate(name, (int(rng.integers(n)),)))
        else:
            name = ("CNOT", "CZ", "SWAP")[kind - 5]
            a, b = rng.choice(n, size=2, replace=False)
            gates.append(Gate(name, (int(a), int(b))))
    return CliffordCircuit(n, tuple(gates))


def random_state_vector(rng, n: int) -> np.ndarray:
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return v / np.linalg.norm(v)


def random_unitary(rng, d: int) -> np.ndarray:
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_mps(rng, n: int, layers: int = 3) -> Mps:
    """Generic normalized state from random two-qubit unitaries on |0...0>."""
    state = Mps.product_state([0] * n)
    policy = TruncationPolicy(chi_max=2**n)
    for _ in range(layers):
        for i in range(n - 1):
            state, _ = state.apply_2q_gate(random_unitary(rng, 4), i, policy)
    return state


def dense_entropy_bits(vec: np.ndarray, cut: int, n: int) -> float:
    """Half-cut entropy of a dense vector, in bits."""
    mat = vec.reshape(2**cut, 2 ** (n - cut))
    s = np.linalg.svd(mat, compute_uv=False)
    p = s**2 / np.sum(s**2)
    p = p[p > 1e-16]
    return float(-np.sum(p * np.log2(p)))
