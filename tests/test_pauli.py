"""Pauli string algebra against dense matrix oracles."""

import numpy as np
import pytest

from conftest import random_pauli
from stabmpo.pauli import (
    ORACLE_CAP,
    SIGMA,
    OracleCapError,
    PauliString,
    pauli_coefficient,
)


def test_single_qubit_group_law():
    x = PauliString.from_literal("X")
    z = PauliString.from_literal("Z")
    assert (x * z).to_literal() == "-iY"
    assert np.allclose((x * z).to_dense(), x.to_dense() @ z.to_dense())


def test_identity_is_neutral():
    rng = np.random.default_rng(1)
    ident = PauliString.identity(4)
    for _ in range(20):
        p = random_pauli(rng, 4)
        assert ident * p == p
        assert p * ident == p


def test_product_matches_dense_oracle():
    rng = np.random.default_rng(2)
    for _ in range(100):
        p = random_pauli(rng, 3)
        q = random_pauli(rng, 3)
        assert np.allclose((p * q).to_dense(), p.to_dense() @ q.to_dense(), atol=1e-12)


def test_product_associative_dense_checked():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        p, q, r = (random_pauli(rng, n) for _ in range(3))
        assert (p * q) * r == p * (q * r)
        assert np.allclose(
            ((p * q) * r).to_dense(),
            p.to_dense() @ q.to_dense() @ r.to_dense(),
            atol=1e-12,
        )


def test_to_dense_examples():
    assert np.allclose(PauliString.from_literal("Z").to_dense(), np.diag([1, -1]))
    assert np.allclose(PauliString.identity(2).to_dense(), np.eye(4))
    # -iY must equal the dense composition X . Z
    miy = PauliString.from_literal("-iY")
    x = PauliString.from_literal("X")
    z = PauliString.from_literal("Z")
    assert np.allclose(miy.to_dense(), x.to_dense() @ z.to_dense())


def test_to_dense_cap_guard():
    p = PauliString.identity(ORACLE_CAP + 1)
    with pytest.raises(OracleCapError):
        p.to_dense()


def test_length_mismatch_rejected():
    p = PauliString.identity(2)
    q = PauliString.identity(3)
    with pytest.raises(ValueError):
        p.mul(q)


def test_pauli_coefficient_orthonormality():
    z = PauliString.from_literal("Z")
    assert pauli_coefficient(SIGMA[3], z) == pytest.approx(1.0)


def test_pauli_coefficient_projector_halves():
    # |s><s| decomposes into (identity + (-1)^s Z) / 2
    for s in (0, 1):
        proj = np.zeros((2, 2), dtype=complex)
        proj[s, s] = 1.0
        c0 = pauli_coefficient(proj, PauliString.from_letters([0]))
        c3 = pauli_coefficient(proj, PauliString.from_letters([3]))
        assert c0 == pytest.approx(0.5)
        assert c3 == pytest.approx(0.5 * (-1) ** s)


def test_pauli_coefficient_reconstruction():
    rng = np.random.default_rng(5)
    op = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    recon = np.zeros((4, 4), dtype=complex)
    for mu in range(4):
        for nu in range(4):
            p = PauliString.from_letters([mu, nu])
            recon += pauli_coefficient(op, p) * p.to_dense()
    assert np.max(np.abs(recon - op)) < 1e-12


def test_pauli_coefficient_dimension_mismatch():
    with pytest.raises(ValueError):
        pauli_coefficient(np.eye(4), PauliString.identity(1))


def test_hermitian_strings_square_to_identity():
    rng = np.random.default_rng(6)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        p = random_pauli(rng, n)
        assert p.is_hermitian
        sq = p * p
        assert sq == PauliString.identity(n)
        dense = p.to_dense()
        assert np.allclose(dense, dense.conj().T)


def test_group_closure_phase_mod4():
    rng = np.random.default_rng(7)
    p = random_pauli(rng, 3)
    q = random_pauli(rng, 3)
    r = p * q
    assert 0 <= r.phase_exp < 4
    assert r.n == 3


def test_literal_roundtrip_and_prefixes():
    for text, exp in [("XYZI", 0), ("+iXX", 1), ("-ZZ", 2), ("-iY", 3)]:
        p = PauliString.from_literal(text)
        assert p.letter_exp == exp
        assert PauliString.from_literal(p.to_literal()) == p
    # Unicode minus accepted
    assert PauliString.from_literal("−iXYZI") == PauliString.from_literal("-iXYZI")
    with pytest.raises(ValueError):
        PauliString.from_literal("AB")
    with pytest.raises(ValueError):
        PauliString.from_literal("++X")


def test_sign_of_hermitian_strings():
    assert PauliString.from_literal("-XZ").sign == -1
    assert PauliString.from_literal("Y").sign == 1
    with pytest.raises(ValueError):
        _ = PauliString.from_literal("+iX").sign


@pytest.mark.parametrize("mu", [-1, 4, 5, 1.5])
def test_letter_index_out_of_range_rejected(mu):
    with pytest.raises(ValueError):
        PauliString.single(3, 0, mu)
    with pytest.raises(ValueError):
        PauliString.from_letters([mu])


def test_index_mapping_roundtrip():
    from stabmpo.pauli import index_to_xz

    for mu in range(4):
        assert PauliString.from_letters([mu]).letter(0) == mu
    assert index_to_xz(0) == (0, 0)
    assert index_to_xz(1) == (1, 0)
    assert index_to_xz(2) == (1, 1)
    assert index_to_xz(3) == (0, 1)
    # sigma^3 is diagonal with (-1)^s on |s>
    assert np.allclose(SIGMA[3] @ np.array([1, 0]), np.array([1, 0]))
    assert np.allclose(SIGMA[3] @ np.array([0, 1]), -np.array([0, 1]))
