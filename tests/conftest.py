"""Shared helpers for the test suite: random objects and dense references."""

from __future__ import annotations

import os

# Every tensor in the suite is small, so extra BLAS threads add nothing but
# contention.  This must run before numpy loads BLAS.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from stabmpo.clifford import (
    Brick,
    CliffordCircuit,
    CliffordTableau,
    Gate,
    Row,
    _image_bits,
    _local_rows,
    two_qubit_clifford_sequences,
)
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


def expand_bricks(circ: CliffordCircuit) -> CliffordCircuit:
    """The circuit with each brick replaced by its enumeration gate sequence."""
    seqs = two_qubit_clifford_sequences()
    gates = []
    for g in circ.gates:
        if isinstance(g, Brick):
            gates += [
                Gate(h.name, tuple(g.qubits[q] for q in h.qubits)) for h in seqs[g.index]
            ]
        else:
            gates.append(g)
    return CliffordCircuit(circ.n, tuple(gates))


def conjugate_bits(x: int, z: int, phase: int, g) -> Row:
    """Forward-conjugate the packed string by one gate: the reference rule.

    The string's bits on the gate's qubits are gathered into a local string,
    mapped by the gate's local rows and scattered back; other bits stay.
    """
    qubits = g.qubits
    lx = lz = 0
    for q in reversed(qubits):
        lx = lx << 1 | x >> q & 1
        lz = lz << 1 | z >> q & 1
    if not lx | lz:
        return x, z, phase
    lx, lz, phase = _image_bits(_local_rows(g), len(qubits), lx, lz, phase)
    for q in qubits:
        m = 1 << q
        x = x & ~m | (lx & 1) << q
        z = z & ~m | (lz & 1) << q
        lx >>= 1
        lz >>= 1
    return x, z, phase


def forward_tableau(
    circ: CliffordCircuit, base: CliffordTableau | None = None
) -> CliffordTableau:
    """Tableau of ``circ`` applied after ``base`` (the identity if None).

    The reference for the compiler's rows of C^dag: every forward row is
    conjugated gate by gate with ``conjugate_bits``.
    """
    rows = (CliffordTableau.identity(circ.n) if base is None else base).rows
    if len(rows) != 2 * circ.n:
        raise ValueError("qubit count mismatch")
    for g in circ.gates:
        rows = [conjugate_bits(x, z, phase, g) for x, z, phase in rows]
    return CliffordTableau(circ.n, rows)


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


def raw_norm(m: Mps) -> float:
    """Two-norm of the tensor network, excluding the log_norm scale."""
    e = np.ones((1, 1), dtype=np.complex128)
    for t in m.tensors:
        tmp = np.tensordot(e, t, axes=(1, 0))  # (a, d, r)
        e = np.tensordot(t.conj(), tmp, axes=((0, 1), (0, 1)))  # (a', r)
    return float(np.sqrt(abs(e[0, 0].real)))


def norm(m: Mps) -> float:
    return raw_norm(m) * float(np.exp(m.log_norm))


def compress(m: Mps, policy: TruncationPolicy) -> tuple[Mps, float]:
    """Compress the whole chain with the state's own sweep."""
    return m._sweep(list(m.tensors), 0, m.n - 1, policy)


def fidelity(vec_a: np.ndarray, vec_b: np.ndarray) -> float:
    """|<a|b>|^2 / (<a|a> <b|b>)."""
    return abs(np.vdot(vec_a, vec_b)) ** 2 / (
        np.vdot(vec_a, vec_a).real * np.vdot(vec_b, vec_b).real
    )


def dense_entropy_bits(vec: np.ndarray, cut: int, n: int) -> float:
    """Half-cut entropy of a dense vector, in bits."""
    mat = vec.reshape(2**cut, 2 ** (n - cut))
    s = np.linalg.svd(mat, compute_uv=False)
    p = s**2 / np.sum(s**2)
    p = p[p > 1e-16]
    return float(-np.sum(p * np.log2(p)))
