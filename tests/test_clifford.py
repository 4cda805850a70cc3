"""Tableau conjugation, samplers and the two-qubit group enumeration.

The enumeration's table, ``src/stabmpo/two_qubit_cliffords.npy``, is checked
against the breadth-first search below that generates it.  Regenerate it
(only when the enumeration is meant to change, which changes every seeded
circuit) with

    PYTHONPATH=src python tests/test_clifford.py
"""

import hashlib
import itertools
import sys

import numpy as np
import pytest

from conftest import expand_bricks, random_clifford_circuit, random_pauli
from stabmpo.clifford import (
    GATE_ARITY,
    TWO_QUBIT_CLIFFORD_COUNT,
    _TABLE_PATH,
    Brick,
    CliffordCircuit,
    CliffordTableau,
    Gate,
    _conjugate_bits,
    _enumeration,
    append_to_inverse,
    gate,
    sample_brickwall,
    sample_u1_clifford,
    two_qubit_clifford_sequences,
)
from stabmpo.dense import GATE_1Q, GATE_2Q, apply_circuit, brick_unitary, circuit_unitary
from stabmpo.pauli import PauliString, pauli_coefficient


def dense_conjugate(circ: CliffordCircuit, p: PauliString) -> np.ndarray:
    u = circuit_unitary(circ)
    return u @ p.to_dense() @ u.conj().T


def assert_matches_dense(circ: CliffordCircuit, p: PauliString) -> None:
    tab = CliffordTableau.from_circuit(circ)
    img = tab.conjugate(p, "forward")
    ref = dense_conjugate(circ, p)
    # letters must match with coefficient exactly +-1
    coeff = pauli_coefficient(ref, img.unsigned())
    assert abs(abs(coeff) - 1.0) < 1e-9
    assert round(coeff.real) == img.sign
    assert np.allclose(img.to_dense(), ref, atol=1e-10)


def test_identity_plus_hadamard():
    tab = CliffordTableau.identity(1).apply_gate(Gate("H", (0,)))
    assert tab.conjugate(PauliString.from_literal("X")).to_literal() == "+Z"
    assert tab.conjugate(PauliString.from_literal("Z")).to_literal() == "+X"


def test_identity_plus_cnot():
    tab = CliffordTableau.identity(2).apply_gate(Gate("CNOT", (0, 1)))
    assert tab.conjugate(PauliString.from_literal("XI")).to_literal() == "+XX"
    assert tab.conjugate(PauliString.from_literal("IZ")).to_literal() == "+ZZ"


def test_phase_gate_directions():
    tab = CliffordTableau.identity(1).apply_gate(Gate("S", (0,)))
    x = PauliString.from_literal("X")
    assert tab.conjugate(x, "forward").to_literal() == "+Y"
    assert tab.conjugate(x, "inverse").to_literal() == "-Y"


def test_single_gate_conjugation_table_exact():
    # exhaustive letters for 1q gates, all 16 two-letter inputs for 2q gates
    for name in ("H", "S", "SDG", "X", "Z"):
        circ = CliffordCircuit(1, (Gate(name, (0,)),))
        for mu in range(4):
            assert_matches_dense(circ, PauliString.from_letters([mu]))
    for name in ("CNOT", "CZ", "SWAP"):
        circ = CliffordCircuit(2, (Gate(name, (0, 1)),))
        for mu in range(4):
            for nu in range(4):
                assert_matches_dense(circ, PauliString.from_letters([mu, nu]))
    # other placements on n=3: all letters on the gate's qubits, Y on the
    # others, so the order of the qubits and the bits passing through count
    placements = {1: [(2,)], 2: [(1, 0), (0, 2), (2, 0)]}
    for name, arity in GATE_ARITY.items():
        for qubits in placements[arity]:
            circ = CliffordCircuit(3, (Gate(name, qubits),))
            for local in itertools.product(range(4), repeat=arity):
                letters = [2, 2, 2]
                for q, mu in zip(qubits, local):
                    letters[q] = mu
                assert_matches_dense(circ, PauliString.from_letters(letters))


def test_random_circuit_conjugation_matches_dense():
    rng = np.random.default_rng(11)
    for _ in range(30):
        circ = random_clifford_circuit(rng, 3, 10)
        for j in range(3):
            assert_matches_dense(circ, PauliString.single(3, j, 1))
            assert_matches_dense(circ, PauliString.single(3, j, 3))


def test_random_tableau_conjugation_random_strings():
    rng = np.random.default_rng(12)
    for _ in range(25):
        circ = random_clifford_circuit(rng, 4, 16)
        p = random_pauli(rng, 4)
        assert_matches_dense(circ, p)


def test_forward_then_inverse_roundtrip():
    rng = np.random.default_rng(13)
    for _ in range(25):
        circ = random_clifford_circuit(rng, 4, 12)
        tab = CliffordTableau.from_circuit(circ)
        p = random_pauli(rng, 4)
        img = tab.conjugate(p, "forward")
        assert img.is_hermitian
        assert tab.conjugate(img, "inverse") == p


def test_symplectic_invariant_after_each_gate():
    rng = np.random.default_rng(14)
    circ = random_clifford_circuit(rng, 4, 20)
    tab = CliffordTableau.identity(4)
    for g in circ.gates:
        tab = tab.apply_gate(g)
        tab.validate()


def test_weight_change_bounds():
    rng = np.random.default_rng(15)
    for _ in range(100):
        p = random_pauli(rng, 4)
        q = int(rng.integers(4))
        for name in ("H", "S", "SDG", "X", "Z"):
            tab = CliffordTableau.identity(4).apply_gate(Gate(name, (q,)))
            assert tab.conjugate(p).weight == p.weight
        a, b = rng.choice(4, size=2, replace=False)
        for name in ("CNOT", "CZ"):
            tab = CliffordTableau.identity(4).apply_gate(Gate(name, (int(a), int(b))))
            assert abs(tab.conjugate(p).weight - p.weight) <= 1


def test_circuit_times_inverse_is_identity():
    rng = np.random.default_rng(16)
    for _ in range(10):
        circ = random_clifford_circuit(rng, 4, 15)
        total = circ + circ.inverse()
        assert CliffordTableau.from_circuit(total) == CliffordTableau.identity(4)


def test_tableau_text_roundtrip():
    rng = np.random.default_rng(17)
    circ = random_clifford_circuit(rng, 3, 12)
    tab = CliffordTableau.from_circuit(circ)
    assert CliffordTableau.from_text(tab.to_text()) == tab


@pytest.mark.parametrize(
    "text",
    [
        "qubits 1\nX0 -> +X\n",
        "qubits 1\nX0 -> +X\nZ0 -> +X\n",
        "qubits 1\nX0 -> +X\nZ0 -> +Z\nZ0 -> +Z\n",
        "qubits 1\nX0 -> +XI\nZ0 -> +ZI\n",
        "qubits\nX0 -> +X\nZ0 -> +Z\n",
        "qubits 0\n",
    ],
    ids=[
        "missing-row", "non-symplectic", "duplicate-row", "wrong-length",
        "bad-header", "zero-qubits",
    ],
)
def test_tableau_from_text_rejects_bad_tableau(text):
    with pytest.raises(ValueError):
        CliffordTableau.from_text(text)


@pytest.mark.parametrize(
    "text", ["qubits -2\n", "qubits 2.5\nH 0\n"], ids=["negative", "non-integer"]
)
def test_circuit_from_text_rejects_bad_qubit_count(text):
    CliffordCircuit.from_text("qubits 2\nH 0\n")
    with pytest.raises(ValueError):
        CliffordCircuit.from_text(text)


def test_circuit_text_roundtrip_and_determinism():
    rng = np.random.default_rng(18)
    circ = sample_brickwall(5, 2, rng)
    again = CliffordCircuit.from_text(circ.to_text())
    assert again == circ
    # identical seed -> identical serialized circuit
    c1 = sample_brickwall(5, 2, np.random.default_rng(99))
    c2 = sample_brickwall(5, 2, np.random.default_rng(99))
    assert c1.to_text() == c2.to_text()


# ----------------------------------------------------------------------
# brick-wall sampler
# ----------------------------------------------------------------------
def test_brickwall_pairing_rule():
    rng = np.random.default_rng(19)
    circ = sample_brickwall(4, 2, rng)
    pairs = [g.qubits for g in circ.gates if len(g.qubits) == 2]
    assert set(pairs) <= {(0, 1), (2, 3), (1, 2)}
    # sublayer 1 touches only even-offset pairs, sublayer 2 only (1, 2)
    seen_odd = False
    for p in pairs:
        if p == (1, 2):
            seen_odd = True
        else:
            assert not seen_odd, "even-offset pair after the odd sublayer began"
    assert seen_odd


def test_brickwall_open_boundary_leftover():
    rng = np.random.default_rng(20)
    circ = sample_brickwall(3, 1, rng)
    touched = {q for g in circ.gates for q in g.qubits}
    assert touched <= {0, 1}


def test_brickwall_requires_two_qubits():
    with pytest.raises(ValueError):
        sample_brickwall(1, 1, np.random.default_rng(0))


def test_two_qubit_enumeration_complete_and_unique():
    seqs = two_qubit_clifford_sequences()
    assert len(seqs) == TWO_QUBIT_CLIFFORD_COUNT
    keys = set()
    for seq in seqs:
        keys.add(CliffordTableau.from_circuit(CliffordCircuit(2, seq)).key())
    assert len(keys) == TWO_QUBIT_CLIFFORD_COUNT


def test_two_qubit_enumeration_order_is_pinned():
    # sample_two_qubit_clifford draws by index, so the BFS order is part of
    # every seeded T-doped and brickwall circuit
    digest = hashlib.sha256(repr(two_qubit_clifford_sequences()).encode()).hexdigest()
    assert digest == "2ec4a8609b1ca00706479a9ecc389b2a2605b49e5a40ff997787ede6213281b0"


def _mul6(u, v):
    """Product u v of two-qubit strings packed in 6 bits (ints or int arrays).

    Bits 0-1 hold the x bits of qubits 0 and 1, bits 2-3 the z bits and
    bits 4-5 the phase exponent of i, the layout of a packed row.
    """
    w = (u >> 2) & v & 3  # Z of u met by X of v
    phase = (u >> 4) + (v >> 4) + 2 * ((w & 1) + (w >> 1))
    return (u ^ v) & 15 | (phase & 3) << 4


def _inverse_states(states: np.ndarray) -> np.ndarray:
    """Packed states of the inverses of all two-qubit elements at once.

    The bits are the symplectic inverse, as in ``clifford._symplectic_inverse``:
    the inverse image of X_q has x bit j where the image of Z_j has z bit q,
    and z bit j where the image of X_j has z bit q; for Z_q read the x bits.
    Its phase makes the forward image +X_q or +Z_q.
    """
    img = [(states >> 6 * k) & 63 for k in range(4)]
    out = np.zeros_like(states)
    for k in range(4):
        shift = (2 if k < 2 else 0) + (k & 1)
        bit = [(im >> shift) & 1 for im in img]
        x, z = bit[2] | bit[3] << 1, bit[0] | bit[1] << 1
        phase = (x & z & 1) + (x & z) // 2
        fwd = phase << 4
        for j, on in enumerate((x & 1, x >> 1, z & 1, z >> 1)):
            fwd = np.where(on == 1, _mul6(fwd, img[j]), fwd)
        out |= (x | z << 2 | ((phase + (fwd >> 4)) & 3) << 4) << 6 * k
    return out


# one record of the enumeration's table
TABLE_DTYPE = np.dtype(
    [("state", "<u4"), ("parent", "<u2"), ("generator", "u1"), ("inverse", "<u2")]
)


def breadth_first_enumeration():
    """The enumeration's table and gate sequences, by breadth-first search.

    Closure over the {H, S, CNOT} generators from the identity, deduplicated
    by the packed images (i.e. up to global phase).  A state is one int: the
    four 6-bit images of X0, X1, Z0, Z1, each packed as in ``_mul6``, so one
    64-entry table per generator maps a state to the next.  Each record
    holds the state, the element and generator that first reached it, and
    the index of its inverse.
    """
    one_qubit = (Gate(name, (q,)) for name in ("H", "S") for q in (0, 1))
    generators = (*one_qubit, Gate("CNOT", (0, 1)))
    tables = []
    for g in generators:
        rows = (_conjugate_bits(u & 3, u >> 2 & 3, u >> 4, g) for u in range(64))
        tables.append([x | z << 2 | (ph & 3) << 4 for x, z, ph in rows])
    start = 1 | 2 << 6 | 4 << 12 | 8 << 18
    index = {start: 0}
    records = [(start, 0, 0)]
    sequences = [()]
    for parent, ((state, _, _), seq) in enumerate(zip(records, sequences)):
        x0, x1, z0, z1 = state & 63, state >> 6 & 63, state >> 12 & 63, state >> 18
        for k, (g, t) in enumerate(zip(generators, tables)):
            nxt = t[x0] | t[x1] << 6 | t[z0] << 12 | t[z1] << 18
            if nxt not in index:
                index[nxt] = len(records)
                records.append((nxt, parent, k))
                sequences.append(seq + (g,))
    states = np.array([r[0] for r in records], dtype=np.int64)
    inverse = [index[s] for s in _inverse_states(states).tolist()]
    table = np.array([(*r, inv) for r, inv in zip(records, inverse)], dtype=TABLE_DTYPE)
    return table, tuple(sequences)


def test_enumeration_table_matches_breadth_first_search():
    table, sequences = breadth_first_enumeration()
    assert len(table) == TWO_QUBIT_CLIFFORD_COUNT
    stored = np.load(_TABLE_PATH, allow_pickle=False)
    assert stored.dtype == TABLE_DTYPE
    assert stored.tobytes() == table.tobytes()
    enum = _enumeration()
    assert enum.states == tuple(table["state"].tolist())
    assert enum.inverse == tuple(table["inverse"].tolist())
    assert enum.sequences == sequences


def test_brickwall_two_qubit_clifford_uniform():
    # n=2, D=1 emits one uniformly random element of the 11520-element group;
    # count samples per element and apply a 5-sigma multinomial bound.
    seqs = two_qubit_clifford_sequences()
    samples = 1_000_000
    rng = np.random.default_rng(21)
    counts = np.zeros(len(seqs), dtype=np.int64)
    for _ in range(samples):
        circ = sample_brickwall(2, 1, rng)
        (brick,) = circ.gates
        counts[brick.index] += 1
    p = 1.0 / len(seqs)
    mean = samples * p
    sigma = np.sqrt(samples * p * (1 - p))
    assert np.max(np.abs(counts - mean)) <= 5 * sigma


# ----------------------------------------------------------------------
# bricks: one gate per sampled two-qubit Clifford
# ----------------------------------------------------------------------
def test_every_brick_matches_its_expanded_sequence():
    # on the reversed pair (2, 0) of a random 3-qubit Clifford, so the rows
    # outside the pair and the order of its qubits both count
    rng = np.random.default_rng(61)
    base = CliffordTableau.from_circuit(random_clifford_circuit(rng, 3, 12))
    inv_rows = base.inverse().rows
    for i in range(TWO_QUBIT_CLIFFORD_COUNT):
        brick = CliffordCircuit(3, (Brick(i, (2, 0)),))
        expanded = expand_bricks(brick)
        assert base.apply_circuit(brick) == base.apply_circuit(expanded)
        got, want = list(inv_rows), list(inv_rows)
        append_to_inverse(got, brick)
        append_to_inverse(want, expanded)
        assert got == want


def test_every_brick_unitary_is_its_sequence_up_to_phase():
    # the reference multiplies Kronecker products, a path brick_unitary does not take
    seqs = two_qubit_clifford_sequences()
    one = np.eye(2)
    local = {
        Gate("H", (0,)): np.kron(GATE_1Q["H"], one),
        Gate("H", (1,)): np.kron(one, GATE_1Q["H"]),
        Gate("S", (0,)): np.kron(GATE_1Q["S"], one),
        Gate("S", (1,)): np.kron(one, GATE_1Q["S"]),
        Gate("CNOT", (0, 1)): GATE_2Q["CNOT"],
    }
    ref = np.tile(np.eye(4, dtype=np.complex128), (len(seqs), 1, 1))
    for t in range(max(map(len, seqs))):
        for g, mat in local.items():
            rows = [i for i, seq in enumerate(seqs) if len(seq) > t and seq[t] == g]
            ref[rows] = mat @ ref[rows]
    got = np.array([brick_unitary(i) for i in range(len(seqs))])
    phase = np.einsum("kij,kij->k", ref.conj(), got) / 4
    assert np.allclose(np.abs(phase), 1.0, atol=1e-12)
    assert np.max(np.abs(got - phase[:, None, None] * ref)) < 1e-12


def test_brick_unitary_conjugates_generators_to_brick_images():
    # the dense 4x4 against the packed images that the compiler reads
    count = TWO_QUBIT_CLIFFORD_COUNT
    dense: dict = {}
    want = np.empty((count, 4, 4, 4), dtype=np.complex128)
    for i in range(count):
        tab = CliffordTableau.from_circuit(CliffordCircuit(2, (Brick(i, (0, 1)),)))
        for k, row in enumerate(tab.rows):  # images of X0, X1, Z0, Z1
            if row not in dense:
                dense[row] = PauliString(2, *row).to_dense()
            want[i, k] = dense[row]
    u = np.array([brick_unitary(i) for i in range(count)])
    gens = [PauliString.single(2, q, axis).to_dense() for axis in (1, 3) for q in (0, 1)]
    for k, p in enumerate(gens):
        got = u @ p @ u.conj().transpose(0, 2, 1)
        assert np.max(np.abs(got - want[:, k])) < 1e-12


def test_brick_dense_on_any_pair_matches_expanded_sequence():
    rng = np.random.default_rng(62)
    n = 4
    for _ in range(40):
        a, b = (int(q) for q in rng.choice(n, size=2, replace=False))
        index = int(rng.integers(TWO_QUBIT_CLIFFORD_COUNT))
        circ = CliffordCircuit(n, (Brick(index, (a, b)),))
        psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        want = apply_circuit(psi, expand_bricks(circ))
        assert np.allclose(apply_circuit(psi, circ), want)


def test_brickwall_emits_one_brick_per_pair():
    rng = np.random.default_rng(63)
    circ = sample_brickwall(7, 3, rng)
    assert [g.qubits for g in circ.gates] == [
        (0, 1), (2, 3), (4, 5), (1, 2), (3, 4), (5, 6), (0, 1), (2, 3), (4, 5)
    ]
    assert all(isinstance(g, Brick) for g in circ.gates)


def test_brickwall_text_roundtrip_and_inverse():
    rng = np.random.default_rng(64)
    for n, depth in ((2, 1), (5, 2), (8, 4)):
        circ = sample_brickwall(n, depth, rng)
        text = circ.to_text()
        g = circ.gates[0]
        assert text.splitlines()[1] == f"C2 {g.index} {g.qubits[0]} {g.qubits[1]}"
        assert CliffordCircuit.from_text(text) == circ
        identity = CliffordTableau.identity(n)
        assert CliffordTableau.from_circuit(circ + circ.inverse()) == identity
        u = circuit_unitary(circ + circ.inverse())
        assert np.allclose(u, u[0, 0] * np.eye(2**n)) and abs(abs(u[0, 0]) - 1) < 1e-12


@pytest.mark.parametrize(
    "line",
    ["C2 11520 0 1", "C2 -1 0 1", "C2 2.5 0 1", "C2 x 0 1", "C2 7 0", "C2 7 1 1",
     "C2 7 0 1 2", "C2", "C2 7 0 3"],
    ids=["index-high", "index-negative", "index-float", "index-word", "one-qubit",
         "equal-qubits", "three-qubits", "bare", "qubit-out-of-range"],
)
def test_circuit_from_text_rejects_bad_brick(line):
    CliffordCircuit.from_text("qubits 3\nC2 7 0 1\n")
    with pytest.raises(ValueError):
        CliffordCircuit.from_text(f"qubits 3\n{line}\n")


def test_brick_constructor_validation():
    for bad in (Brick(TWO_QUBIT_CLIFFORD_COUNT, (0, 1)), Brick(np.int64(3), (0, 1)),
                Brick(3, (0,)), Brick(3, (1, 1))):
        with pytest.raises(ValueError):
            CliffordCircuit(2, (bad,))
    with pytest.raises(ValueError):
        gate("C2", 0, 1)  # an elementary-gate name only


# ----------------------------------------------------------------------
# U(1)-symmetric sampler
# ----------------------------------------------------------------------
def test_u1_single_qubit_is_phase_powers_only():
    for seed in range(20):
        circ = sample_u1_clifford(1, np.random.default_rng(seed))
        assert all(g.name in ("S", "Z", "SDG") for g in circ.gates)
        tab = CliffordTableau.from_circuit(circ)
        assert tab.conjugate(PauliString.from_literal("Z")).to_literal() == "+Z"


def test_u1_preserves_each_z_with_plus_sign():
    rng = np.random.default_rng(22)
    for _ in range(50):
        n = int(rng.integers(2, 8))
        tab = CliffordTableau.from_circuit(sample_u1_clifford(n, rng))
        perm = []
        for j in range(n):
            img = tab.conjugate(PauliString.single(n, j, 3), "forward")
            assert img.sign == 1
            assert img.weight == 1 and img.letter(img.support[0]) == 3
            perm.append(img.support[0])
        assert sorted(perm) == list(range(n))


def test_u1_magnetization_multiset_preserved():
    # forward image of sum_j Z_j is the same formal multiset of signed strings
    rng = np.random.default_rng(23)
    n = 5
    tab = CliffordTableau.from_circuit(sample_u1_clifford(n, rng))
    images = {
        tab.conjugate(PauliString.single(n, j, 3)).to_literal() for j in range(n)
    }
    expected = {PauliString.single(n, j, 3).to_literal() for j in range(n)}
    assert images == expected


def test_gate_constructor_validation():
    with pytest.raises(ValueError):
        gate("CNOT", 1, 1)
    with pytest.raises(ValueError):
        gate("FOO", 0)
    with pytest.raises(ValueError):
        CliffordCircuit(2, (Gate("H", (5,)),))
    with pytest.raises(ValueError):
        CliffordCircuit(2, (Gate("H", (0, 1)),))
    with pytest.raises(ValueError):
        CliffordCircuit(2, (Gate("CNOT", (0,)),))


if __name__ == "__main__":
    np.save(_TABLE_PATH, breadth_first_enumeration()[0], allow_pickle=False)
    sys.exit(0)
