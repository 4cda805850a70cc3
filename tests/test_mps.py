"""Tensor-train engine against the dense statevector oracle."""

import numpy as np
import pytest

from conftest import (
    dense_entropy_bits,
    random_mps,
    random_pauli,
    random_state_vector,
    random_unitary,
)
from stabmpo.clifford import CliffordCircuit, Gate, sample_brickwall
from stabmpo.dense import GATE_1Q, GATE_2Q, apply_circuit, apply_pauli, basis_state
from stabmpo.harness import apply_gates
from stabmpo.mps import Mps, TruncationPolicy, cap_mpo, diagonal_mpo, inner
from stabmpo.pauli import SIGMA, PauliString

EXACT8 = TruncationPolicy(chi_max=2**8)


def fidelity(vec_a: np.ndarray, vec_b: np.ndarray) -> float:
    return abs(np.vdot(vec_a, vec_b)) ** 2 / (
        np.vdot(vec_a, vec_a).real * np.vdot(vec_b, vec_b).real
    )


# ----------------------------------------------------------------------
# product states
# ----------------------------------------------------------------------
def test_product_state_expectations():
    m = Mps.product_state([0, 0, 0, 0])
    for j in range(4):
        assert m.expect_pauli(PauliString.single(4, j, 3)) == pytest.approx(1.0)
    m = Mps.product_state([1, 0, 1])
    for j, b in enumerate([1, 0, 1]):
        assert m.expect_pauli(PauliString.single(3, j, 3)) == pytest.approx(
            (-1.0) ** b
        )


def test_product_state_dense_ordering():
    assert np.allclose(Mps.product_state([0, 1]).to_dense(), [0, 1, 0, 0])


def test_product_state_zero_entropy_everywhere():
    rng = np.random.default_rng(30)
    bits = rng.integers(2, size=10)
    m = Mps.product_state(bits)
    for cut in range(11):
        assert m.entanglement_entropy(cut) == pytest.approx(0.0, abs=1e-12)


# ----------------------------------------------------------------------
# gates
# ----------------------------------------------------------------------
def test_1q_gate_examples():
    m = Mps.product_state([0]).apply_1q_gate(GATE_1Q["H"], 0)
    assert m.expect_pauli(PauliString.from_literal("X")) == pytest.approx(1.0)
    m = m.apply_1q_gate(GATE_1Q["Z"], 0)
    assert m.expect_pauli(PauliString.from_literal("X")) == pytest.approx(-1.0)


def test_1q_gate_rejects_non_unitary():
    m = Mps.product_state([0])
    with pytest.raises(ValueError):
        m.apply_1q_gate(np.array([[1.0, 0.0], [0.0, 2.0]]), 0)


def test_1q_gate_matches_dense():
    rng = np.random.default_rng(31)
    m = random_mps(rng, 6)
    vec = m.to_dense()
    for _ in range(10):
        u = random_unitary(rng, 2)
        site = int(rng.integers(6))
        m = m.apply_1q_gate(u, site)
        from stabmpo.dense import apply_unitary

        vec = apply_unitary(vec, u, (site,), 6)
    assert fidelity(m.to_dense(), vec) > 1.0 - 1e-10


def test_2q_gate_bell_pair():
    m = Mps.product_state([0, 0]).apply_1q_gate(GATE_1Q["H"], 0)
    m, err = m.apply_2q_gate(GATE_2Q["CNOT"], 0, EXACT8)
    assert err == 0.0
    assert m.entanglement_entropy(1) == pytest.approx(1.0)
    assert np.allclose(np.abs(m.to_dense()), [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)])


def test_2q_identity_gate_is_noop():
    rng = np.random.default_rng(32)
    m = random_mps(rng, 4)
    before = m.to_dense()
    bonds = m.bond_dims
    m2, err = m.apply_2q_gate(np.eye(4), 1, TruncationPolicy(chi_max=16))
    assert err == pytest.approx(0.0, abs=1e-14)
    assert m2.bond_dims <= bonds or m2.bond_dims == bonds
    assert fidelity(m2.to_dense(), before) > 1.0 - 1e-12


def test_random_circuit_exact_regime_matches_dense():
    rng = np.random.default_rng(33)
    n = 8
    policy = TruncationPolicy(chi_max=2**4)  # exact for n = 8
    m = Mps.product_state([0] * n)
    vec = basis_state([0] * n)
    from stabmpo.dense import apply_unitary

    for _ in range(3):
        for i in range(n - 1):
            u = random_unitary(rng, 4)
            m, _ = m.apply_2q_gate(u, i, policy)
            vec = apply_unitary(vec, u, (i, i + 1), n)
    assert np.max(np.abs(m.to_dense() - vec)) < 1e-8


def two_branch(m: Mps, ca: complex, cb: complex, letters) -> tuple[Mps, float]:
    """ca |m> + cb P|m> as one capped bond-2 operator; P has the given letters."""
    ops = [diagonal_mpo((SIGMA[0], SIGMA[g])) for g in letters]
    return m.apply_mpo(cap_mpo(ops, [ca, cb], np.ones(2)), EXACT8)


def mpo_to_dense(ops) -> np.ndarray:
    """Dense matrix of an operator chain (site 0 most significant)."""
    full = np.ones((1, 1, 1), dtype=np.complex128)  # (out, in, bond)
    for op in ops:
        full = np.einsum("abl,loiw->aobiw", full, op)
        a, o, b, i, w = full.shape
        full = full.reshape(a * o, b * i, w)
    return full[:, :, 0]


def random_mpo(rng, bonds) -> list[np.ndarray]:
    shapes = [(bl, 2, 2, br) for bl, br in zip(bonds, bonds[1:])]
    return [rng.normal(size=s) + 1j * rng.normal(size=s) for s in shapes]


# ----------------------------------------------------------------------
# apply_mpo / compress
# ----------------------------------------------------------------------
def test_apply_mpo_matches_dense_operator():
    rng = np.random.default_rng(37)
    policy = TruncationPolicy(chi_max=2**5, svd_cutoff=0.0)
    for _ in range(10):
        m = random_mps(rng, 5)
        bonds = [1] + [int(b) for b in rng.integers(1, 4, size=4)] + [1]
        ops = random_mpo(rng, bonds)
        out, err = m.apply_mpo(ops, policy)
        want = mpo_to_dense(ops) @ m.to_dense()
        assert err == 0.0
        assert np.linalg.norm(out.to_dense() - want) < 1e-12 * np.linalg.norm(want)


def test_apply_mpo_diagonal_bond4_matches_dense_sum():
    rng = np.random.default_rng(47)
    n = 5
    m = random_mps(rng, n)
    mats = [[random_unitary(rng, 2) for _ in range(4)] for _ in range(n)]
    coeffs = [complex(rng.normal(), rng.normal()) for _ in range(4)]
    ops = cap_mpo([diagonal_mpo(site) for site in mats], coeffs, np.ones(4))
    out, _ = m.apply_mpo(ops, TruncationPolicy(chi_max=2**5))
    want = np.zeros(2**n, dtype=np.complex128)
    for a, c in enumerate(coeffs):
        product = np.ones((1, 1))
        for site in mats:
            product = np.kron(product, site[a])
        want += c * (product @ m.to_dense())
    assert np.max(np.abs(out.to_dense() - want)) < 1e-10


def test_apply_mpo_rejects_length_mismatch():
    m = Mps.product_state([0, 0, 0])
    ops = random_mpo(np.random.default_rng(48), [1, 2, 1])
    with pytest.raises(ValueError, match="operator length"):
        m.apply_mpo(ops, EXACT8)


def test_add_bell_state():
    c = 1 / np.sqrt(2)
    out, err = two_branch(Mps.product_state([0, 0]), c, c, [1, 1])
    assert err == pytest.approx(0.0, abs=1e-14)
    assert out.entanglement_entropy(1) == pytest.approx(1.0)


def test_add_cancellation_flags_zero():
    rng = np.random.default_rng(36)
    a = random_mps(rng, 4)
    out, _ = two_branch(a, 1.0, -1.0, [0] * 4)
    assert out.is_zero
    assert out.raw_norm() < 1e-12  # not silently renormalized


def test_compress_product_state_noop():
    m = Mps.product_state([0, 1, 0])
    out, err = m.compress(TruncationPolicy(chi_max=4))
    assert err == 0.0
    assert np.allclose(out.to_dense(), m.to_dense())


def test_compress_bell_to_chi1_discards_half():
    c = 1 / np.sqrt(2)
    bell, _ = two_branch(Mps.product_state([0, 0]), c, c, [1, 1])
    out, err = bell.compress(TruncationPolicy(chi_max=1))
    assert err == pytest.approx(0.5)
    assert out.max_bond == 1


def test_compress_fidelity_bound():
    rng = np.random.default_rng(38)
    m = random_mps(rng, 10, layers=5)  # bonds reach 32 at the middle
    assert m.max_bond == 32
    out, err = m.compress(TruncationPolicy(chi_max=16))
    assert out.max_bond <= 16
    f = fidelity(out.to_dense(), m.to_dense())
    assert err > 0.0
    assert f >= 1.0 - err - 1e-12


def test_compress_idempotent():
    rng = np.random.default_rng(39)
    m = random_mps(rng, 6)
    policy = TruncationPolicy(chi_max=3)
    once, _ = m.compress(policy)
    twice, err2 = once.compress(policy)
    assert err2 < 1e-12
    assert once.bond_dims == twice.bond_dims
    assert fidelity(once.to_dense(), twice.to_dense()) > 1.0 - 1e-12


def test_compress_renormalize_tracks_log_norm():
    rng = np.random.default_rng(40)
    m = random_mps(rng, 6)
    out, err = m.compress(TruncationPolicy(chi_max=2, renormalize=True))
    assert out.raw_norm() == pytest.approx(1.0, abs=1e-10)
    assert out.norm() == pytest.approx(np.sqrt(max(1.0 - err, 0.0)), abs=0.05)


# ----------------------------------------------------------------------
# entropy / expectation / overlap
# ----------------------------------------------------------------------
def test_entropy_ghz():
    n = 6
    c = 1 / np.sqrt(2)
    ghz, _ = two_branch(Mps.product_state([0] * n), c, c, [1] * n)
    for cut in range(1, n):
        assert ghz.entanglement_entropy(cut) == pytest.approx(1.0)


def test_entropy_matches_dense():
    rng = np.random.default_rng(41)
    m = random_mps(rng, 6)
    vec = m.to_dense()
    for cut in range(1, 6):
        assert m.entanglement_entropy(cut) == pytest.approx(
            dense_entropy_bits(vec, cut, 6), abs=1e-8
        )


def test_entropy_invariant_under_one_sided_unitaries():
    rng = np.random.default_rng(42)
    m = random_mps(rng, 6)
    cut = 3
    s0 = m.entanglement_entropy(cut)
    for site in (0, 1, 2):
        m = m.apply_1q_gate(random_unitary(rng, 2), site)
    for site in (3, 4, 5):
        m = m.apply_1q_gate(random_unitary(rng, 2), site)
    assert m.entanglement_entropy(cut) == pytest.approx(s0, abs=1e-10)
    # conjugating the state keeps the spectrum
    conj = Mps([t.conj() for t in m.tensors])
    assert conj.entanglement_entropy(cut) == pytest.approx(s0, abs=1e-10)


def test_expect_pauli_examples():
    m = Mps.product_state([0, 0, 0])
    assert m.expect_pauli(PauliString.single(3, 0, 3)) == pytest.approx(1.0)
    assert m.expect_pauli(PauliString.single(3, 0, 1)) == pytest.approx(0.0)


def test_expect_pauli_matches_dense():
    rng = np.random.default_rng(43)
    for _ in range(20):
        m = random_mps(rng, 6)
        p = random_pauli(rng, 6)
        vec = m.to_dense()
        ref = np.vdot(vec, apply_pauli(vec, p, 6)).real / np.vdot(vec, vec).real
        assert m.expect_pauli(p) == pytest.approx(ref, abs=1e-10)
        assert -1.0 - 1e-9 <= m.expect_pauli(p) <= 1.0 + 1e-9


def test_inner_examples_and_symmetry():
    z = Mps.product_state([0, 0, 0])
    o = Mps.product_state([1, 1, 1])
    assert inner(z, z) == pytest.approx(1.0)
    assert inner(z, o) == pytest.approx(0.0)
    rng = np.random.default_rng(44)
    a = random_mps(rng, 6)
    b = random_mps(rng, 6)
    ref = np.vdot(a.to_dense(), b.to_dense())
    assert inner(a, b) == pytest.approx(ref, abs=1e-10)
    assert inner(b, a) == pytest.approx(np.conj(inner(a, b)), abs=1e-12)
    assert abs(inner(a, b)) <= a.norm() * b.norm() + 1e-12


def test_unitary_gates_preserve_norm():
    rng = np.random.default_rng(45)
    m = random_mps(rng, 7)
    for _ in range(5):
        site = int(rng.integers(6))
        m, err = m.apply_2q_gate(random_unitary(rng, 4), site, EXACT8)
        assert err == pytest.approx(0.0, abs=1e-14)
    assert m.norm() == pytest.approx(1.0, abs=1e-10)


def test_engine_exact_for_small_systems():
    # n = 10 with chi = 2^5 covers any state exactly
    rng = np.random.default_rng(46)
    n = 10
    policy = TruncationPolicy(chi_max=2**5)
    m = Mps.product_state([0] * n)
    vec = basis_state([0] * n)
    from stabmpo.dense import apply_unitary

    for _ in range(2):
        for i in range(n - 1):
            u = random_unitary(rng, 4)
            m, _ = m.apply_2q_gate(u, i, policy)
            vec = apply_unitary(vec, u, (i, i + 1), n)
    p = random_pauli(rng, n)
    ref = np.vdot(vec, apply_pauli(vec, p, n)).real
    assert m.expect_pauli(p) == pytest.approx(ref, abs=1e-8)
    assert np.max(np.abs(m.to_dense() - vec)) < 1e-8


def random_adjacent_circuit(rng, n: int, length: int) -> CliffordCircuit:
    """Random Clifford circuit whose two-qubit gates act on (a, a + 1)."""
    gates = []
    for _ in range(length):
        if rng.random() < 0.5:
            name = str(rng.choice(sorted(set(GATE_1Q) - {"T"})))
            gates.append(Gate(name, (int(rng.integers(n)),)))
        else:
            a = int(rng.integers(n - 1))
            gates.append(Gate(str(rng.choice(sorted(GATE_2Q))), (a, a + 1)))
    return CliffordCircuit(n, tuple(gates))


def test_apply_gates_matches_dense():
    rng = np.random.default_rng(47)
    n = 6
    exact = TruncationPolicy(chi_max=2 ** (n // 2))
    for circ in [sample_brickwall(n, 3, rng)] + [
        random_adjacent_circuit(rng, n, 30) for _ in range(4)
    ]:
        bits = [int(b) for b in rng.integers(2, size=n)]
        m, errs = apply_gates(Mps.product_state(bits), circ, exact)
        vec = apply_circuit(basis_state(bits), circ)
        assert len(errs) == sum(len(g.qubits) == 2 for g in circ.gates)
        assert max(errs, default=0.0) == pytest.approx(0.0, abs=1e-14)
        assert fidelity(m.to_dense(), vec) > 1.0 - 1e-10
        p = random_pauli(rng, n)
        ref = np.vdot(vec, apply_pauli(vec, p, n)).real
        assert m.expect_pauli(p) == pytest.approx(ref, abs=1e-8)


def test_apply_gates_reports_each_truncated_gate():
    rng = np.random.default_rng(48)
    n = 6
    circ = sample_brickwall(n, 6, rng)
    cut, errs = apply_gates(Mps.product_state([0] * n), circ, TruncationPolicy(2))
    assert len(errs) == sum(len(g.qubits) == 2 for g in circ.gates)
    assert min(errs) >= 0.0 and sum(errs) > 0.0
    assert cut.max_bond == 2


@pytest.mark.parametrize("qubits", [(0, 2), (1, 0), (0, 3)])
def test_apply_gates_rejects_non_adjacent_two_qubit_gate(qubits):
    circ = CliffordCircuit(4, (Gate("H", (0,)), Gate("CNOT", qubits)))
    with pytest.raises(ValueError, match="adjacent"):
        apply_gates(Mps.product_state([0] * 4), circ, EXACT8)


def test_policy_validation():
    with pytest.raises(ValueError):
        TruncationPolicy(chi_max=0)
    with pytest.raises(ValueError):
        TruncationPolicy(chi_max=2, svd_cutoff=1.5)
