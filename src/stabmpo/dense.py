"""Dense statevector reference implementation.

Exact 2^n simulation used as an independent oracle by the test suite and
the self-test command.  Qubit 0 is the most significant bit of the state
index, matching :meth:`PauliString.to_dense`.  Everything here is guarded
by the oracle size cap.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .clifford import Brick, two_qubit_clifford_sequences
from .pauli import ORACLE_CAP, SIGMA, OracleCapError, PauliString, basis_bits

_SQ2 = 1.0 / np.sqrt(2.0)

GATE_1Q = {
    "H": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=np.complex128),
    "S": np.array([[1, 0], [0, 1j]], dtype=np.complex128),
    "SDG": np.array([[1, 0], [0, -1j]], dtype=np.complex128),
    "X": SIGMA[1],
    "Z": SIGMA[3],
    "T": np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=np.complex128),
}

# Two-qubit matrices with the first listed qubit as the most significant bit.
GATE_2Q = {
    "CNOT": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
        dtype=np.complex128,
    ),
    "CZ": np.diag([1, 1, 1, -1]).astype(np.complex128),
    "SWAP": np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
        dtype=np.complex128,
    ),
}


def _check_cap(n: int) -> None:
    if n > ORACLE_CAP:
        raise OracleCapError(f"dense simulation of {n} qubits exceeds cap {ORACLE_CAP}")


def rotation_matrix(axis: int, theta: float) -> np.ndarray:
    """exp(-i theta/2 sigma^axis) for axis in {1,2,3}."""
    return np.cos(theta / 2) * SIGMA[0] - 1j * np.sin(theta / 2) * SIGMA[axis]


def basis_state(bits) -> np.ndarray:
    """Computational basis vector |b_0 b_1 ... b_{n-1}>; each bit must be 0 or 1."""
    bits = basis_bits(bits)
    _check_cap(len(bits))
    idx = 0
    for b in bits:
        idx = (idx << 1) | b
    vec = np.zeros(2 ** len(bits), dtype=np.complex128)
    vec[idx] = 1.0
    return vec


def apply_unitary(state: np.ndarray, u: np.ndarray, sites, n: int) -> np.ndarray:
    """Apply a 2^d x 2^d matrix on the given qubits of an n-qubit array.

    ``state`` may be a vector (2^n,) or a batch (2^n, B); the batch axis is
    untouched, which lets the same routine assemble full unitaries.
    """
    sites = tuple(sites)
    d = len(sites)
    batch = state.shape[1:] if state.ndim > 1 else ()
    work = state.reshape((2,) * n + batch)
    front = list(range(len(sites)))
    work = np.moveaxis(work, sites, front)
    rest = work.shape[d:]
    work = work.reshape(2**d, -1)
    work = u @ work
    work = work.reshape((2,) * d + rest)
    work = np.moveaxis(work, front, sites)
    return work.reshape(state.shape)


@lru_cache(maxsize=None)
def brick_unitary(index: int) -> np.ndarray:
    """4x4 unitary of two-qubit Clifford ``index``, built once and cached.

    The product of its gate sequence's matrices, with the sequence's qubit 0
    (a brick's first qubit) as the most significant bit.  Read-only.
    """
    u = np.eye(4, dtype=np.complex128)
    for g in two_qubit_clifford_sequences()[index]:
        u = _pair_matrix(g) @ u
    u.flags.writeable = False
    return u


@lru_cache(maxsize=None)
def _pair_matrix(gate) -> np.ndarray:
    """4x4 matrix of an elementary gate on qubits (0, 1), qubit 0 the MSB."""
    return apply_gate(np.eye(4, dtype=np.complex128), gate, 2)


def gate_matrix(gate) -> np.ndarray:
    """Matrix of a gate on its qubits in order, the first the most significant bit."""
    if isinstance(gate, Brick):
        return brick_unitary(gate.index)
    if gate.name in GATE_1Q:
        return GATE_1Q[gate.name]
    if gate.name in GATE_2Q:
        return GATE_2Q[gate.name]
    raise ValueError(f"unknown gate {gate.name!r}")


def apply_gate(state: np.ndarray, gate, n: int) -> np.ndarray:
    return apply_unitary(state, gate_matrix(gate), gate.qubits, n)


def apply_circuit(state: np.ndarray, circuit) -> np.ndarray:
    for gate in circuit.gates:
        state = apply_gate(state, gate, circuit.n)
    return state


def apply_pauli(state: np.ndarray, p: PauliString, n: int) -> np.ndarray:
    out = state
    for j in range(n):
        mu = p.letter(j)
        if mu:
            out = apply_unitary(out, SIGMA[mu], (j,), n)
    return p.phase * out


def circuit_unitary(circuit) -> np.ndarray:
    """Full 2^n x 2^n matrix of a Clifford circuit."""
    _check_cap(circuit.n)
    u = np.eye(2**circuit.n, dtype=np.complex128)
    return apply_circuit(u, circuit)


def run_blocks(blocks, bits) -> np.ndarray:
    """Evolve |bits> through (CliffordCircuit, RotationGate) blocks.

    Each block applies its Clifford circuit first and then the rotation,
    exactly mirroring the compiled evolution order.
    """
    bits = basis_bits(bits)
    state = basis_state(bits)
    n = len(bits)
    for circ, rot in blocks:
        if circ is not None:
            if circ.n != n:
                raise ValueError("block qubit count mismatch")
            state = apply_circuit(state, circ)
        if rot is not None:
            u = rotation_matrix(rot.axis, rot.theta)
            state = apply_unitary(state, u, (rot.site,), n)
    return state


def expectation(state: np.ndarray, p: PauliString) -> complex:
    num = np.vdot(state, apply_pauli(state, p, p.n))
    den = np.vdot(state, state)
    return complex(num / den)
