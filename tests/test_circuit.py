"""Compilation into Pauli-rotation layers, checked against dense products."""

import hashlib
import re
from math import cos, pi, sin

import numpy as np
import pytest

from conftest import forward_tableau, norm, random_clifford_circuit, random_mps
from stabmpo.circuit import (
    RotationGate,
    StabMpoCircuit,
    StabMpoCompiler,
    StabMpoLayer,
    apply_layer,
    compile_blocks,
    conjugate_rotation,
    expectation,
    t_gate,
    transform_observable,
)
from stabmpo.clifford import GATE_ARITY, CliffordCircuit, CliffordTableau, Gate
from stabmpo.dense import (
    GATE_1Q,
    apply_circuit,
    apply_pauli,
    basis_state,
    circuit_unitary,
    rotation_matrix,
)
from stabmpo.harness import (
    FloquetConfig,
    dense_oracle_run,
    realization_rng,
    sample_floquet_blocks,
    sample_tdoped_blocks,
)
from stabmpo.mps import Mps, TruncationPolicy, inner
from stabmpo.pauli import PauliString

EXACT = TruncationPolicy(chi_max=2**10)


def dense_of_blocks(n: int, blocks) -> np.ndarray:
    u = np.eye(2**n, dtype=np.complex128)
    for circ, rot in blocks:
        if circ is not None:
            u = apply_circuit(u, circ)
        if rot is not None:
            from stabmpo.dense import apply_unitary

            u = apply_unitary(u, rotation_matrix(rot.axis, rot.theta), (rot.site,), n)
    return u


def dense_of_compiled(compiled: StabMpoCircuit, residual_circuit: CliffordCircuit):
    u = np.eye(2**compiled.n, dtype=np.complex128)
    for layer in compiled.layers:
        u = layer.to_dense() @ u
    return circuit_unitary(residual_circuit) @ u


# ----------------------------------------------------------------------
# conjugate_rotation
# ----------------------------------------------------------------------
def test_rotation_through_identity_is_local_z():
    tab = CliffordTableau.identity(3)
    layer = conjugate_rotation(tab, RotationGate(1, 3, 0.7))
    assert layer.gamma.to_literal() == "+IZI"
    assert layer.theta_eff == pytest.approx(0.7)
    ref = np.kron(np.eye(2), np.kron(rotation_matrix(3, 0.7), np.eye(2)))
    assert np.allclose(layer.to_dense(), ref, atol=1e-12)


def test_rotation_through_hadamard_becomes_x():
    tab = CliffordTableau.from_circuit(CliffordCircuit(2, (Gate("H", (0,)),)))
    layer = conjugate_rotation(tab, RotationGate(0, 3, 1.1))
    assert layer.gamma.to_literal() == "+XI"
    assert layer.theta_eff == pytest.approx(1.1)


def test_rotation_sign_absorbed_in_theta():
    # S^dag X S = -Y, so an X rotation pulled through S flips the angle
    tab = CliffordTableau.from_circuit(CliffordCircuit(1, (Gate("S", (0,)),)))
    layer = conjugate_rotation(tab, RotationGate(0, 1, 0.9))
    assert layer.gamma.to_literal() == "-Y"
    assert layer.theta_eff == pytest.approx(-0.9)
    s = GATE_1Q["S"]
    ref = s.conj().T @ rotation_matrix(1, 0.9) @ s
    assert np.allclose(layer.to_dense(), ref, atol=1e-12)


def test_conjugated_t_matches_dense_including_phase():
    rng = np.random.default_rng(50)
    for _ in range(10):
        circ = random_clifford_circuit(rng, 3, 12)
        tab = CliffordTableau.from_circuit(circ)
        layer = conjugate_rotation(tab, t_gate(1))
        u = circuit_unitary(circ)
        rot_full = np.kron(np.eye(2), np.kron(rotation_matrix(3, pi / 4), np.eye(2)))
        ref_rot = u.conj().T @ rot_full @ u
        got = layer.to_dense()
        assert np.allclose(got, ref_rot, atol=1e-12)
        # with the T gate's own convention the mismatch is the known global phase
        t_full = np.kron(np.eye(2), np.kron(GATE_1Q["T"], np.eye(2)))
        ref_t = u.conj().T @ t_full @ u
        assert np.allclose(np.exp(1j * pi / 8) * got, ref_t, atol=1e-12)


# ----------------------------------------------------------------------
# compile
# ----------------------------------------------------------------------
def test_compile_clifford_only():
    rng = np.random.default_rng(51)
    circ = random_clifford_circuit(rng, 4, 10)
    compiled = compile_blocks(4, [(circ, None)])
    assert compiled.m == 0
    obs = PauliString.single(4, 2, 3)
    res = expectation(Mps.product_state([0] * 4), compiled, obs, EXACT)
    # pure stabilizer prediction: letters of the pulled-back string
    nu = transform_observable(compiled.residual, obs)
    want = float(nu.sign)
    for j in range(4):
        mu = nu.letter(j)
        if mu in (1, 2):
            want = 0.0
    assert res.value == pytest.approx(want, abs=1e-12)


def test_compile_single_t():
    compiled = compile_blocks(1, [(None, t_gate(0))])
    assert compiled.m == 1
    assert compiled.layers[0].gamma.to_literal() == "+Z"
    assert compiled.residual == CliffordTableau.identity(1)


def test_compile_matches_dense_product():
    rng = np.random.default_rng(52)
    for _ in range(5):
        n = 4
        blocks = sample_tdoped_blocks(n, 3, 1, rng)
        compiled = compile_blocks(n, blocks)
        full_clifford = CliffordCircuit(n)
        for circ, _rot in blocks:
            full_clifford = full_clifford + circ
        assert compiled.residual == forward_tableau(full_clifford)
        u_ref = dense_of_blocks(n, blocks)
        u_got = dense_of_compiled(compiled, full_clifford)
        assert np.max(np.abs(u_got - u_ref)) < 1e-10


def test_compiler_matches_forward_tableau_for_every_gate_type():
    """The inverse-tableau compiler against the forward tableau of its prefix.

    Blocks come from random circuits over every gate type, non-adjacent
    pairs included, followed by X, Y or Z rotations at random angles.
    """
    rng = np.random.default_rng(53)
    names: set[str] = set()
    axes: set[int] = set()
    distant_pairs = 0
    for n in range(2, 9):
        for _ in range(3):
            comp = StabMpoCompiler(n)
            prefix = CliffordCircuit(n)
            for _ in range(4):
                circ = random_clifford_circuit(rng, n, int(rng.integers(1, 16)))
                rot = RotationGate(
                    int(rng.integers(n)), int(rng.integers(1, 4)), float(rng.uniform(-pi, pi))
                )
                comp.push_clifford(circ)
                layer = comp.push_rotation(rot)
                prefix = prefix + circ
                want = forward_tableau(prefix)
                assert layer == conjugate_rotation(want, rot)
                assert comp.result().residual == want
                assert CliffordTableau.from_inverse(want.inverse()) == want
                names.update(g.name for g in circ.gates)
                axes.add(rot.axis)
                distant_pairs += sum(
                    len(g.qubits) == 2 and abs(g.qubits[0] - g.qubits[1]) > 1
                    for g in circ.gates
                )
    assert names == set(GATE_ARITY)
    assert axes == {1, 2, 3}
    assert distant_pairs > 0


# sha256 of the compiled text of realization 0 of the n=128, m=10, d=1,
# seed-1234 T-doped instance; the literal is REFERENCE_COMPILE in
# perfbench/checks.py.
FULL_WIDTH_COMPILE_SHA256 = "b88107dcf02ecd6c3222f368a82861c8edf5495616dd6b9c625b48464dddfb23"


def test_full_width_compile_text_is_pinned():
    blocks = sample_tdoped_blocks(128, 10, 1, realization_rng(1234, 0))
    text = compile_blocks(128, blocks).to_text()
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == FULL_WIDTH_COMPILE_SHA256


# sha256 of the compiled text of realization 0 of the n=12, epsilon=0.1,
# 15-period, seed-7 Floquet instance, whose Cliffords are elementary gates
# only (SWAP, S, Z, SDG, CZ); the pin above covers bricks.
FLOQUET_COMPILE_SHA256 = "4025925005172cdc6ec58cf939dcdf94fd2740fe8759fce1187aafb623af5fea"


def test_floquet_compile_text_is_pinned():
    blocks = sample_floquet_blocks(12, 0.1, 15, realization_rng(7, 0))
    text = compile_blocks(12, blocks).to_text()
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == FLOQUET_COMPILE_SHA256


def test_compile_rejects_mixed_sizes():
    with pytest.raises(ValueError):
        compile_blocks(3, [(CliffordCircuit(2), t_gate(0))])


# ----------------------------------------------------------------------
# apply_layer
# ----------------------------------------------------------------------
def test_layer_zero_angle_is_noop():
    rng = np.random.default_rng(53)
    m = random_mps(rng, 4)
    layer = StabMpoLayer(PauliString.from_literal("XZXI"), 0.0)
    out, err = apply_layer(m, layer, EXACT)
    assert err == pytest.approx(0.0, abs=1e-14)
    assert np.max(np.abs(out.to_dense() - m.to_dense())) < 1e-12


def test_layer_pi_angle_is_pure_pauli():
    rng = np.random.default_rng(54)
    m = random_mps(rng, 4)
    p = PauliString.from_literal("XYZX")
    layer = StabMpoLayer(p, pi)
    out, _ = apply_layer(m, layer, EXACT)
    want = -1j * apply_pauli(m.to_dense(), p, 4)
    # cos(pi/2) underflows to ~6e-17; compare up to that resolution
    assert np.max(np.abs(out.to_dense() - want)) < 1e-10
    for cut in range(1, 4):
        assert out.entanglement_entropy(cut) == pytest.approx(
            m.entanglement_entropy(cut), abs=1e-10
        )


def test_layer_identity_string_is_global_phase():
    rng = np.random.default_rng(55)
    m = random_mps(rng, 3)
    layer = StabMpoLayer(PauliString.identity(3), 0.8)
    out, err = apply_layer(m, layer, EXACT)
    assert err == 0.0
    assert out.bond_dims == m.bond_dims
    assert np.max(np.abs(out.to_dense() - np.exp(-0.4j) * m.to_dense())) < 1e-12


def test_layer_matches_dense():
    rng = np.random.default_rng(56)
    for _ in range(10):
        m = random_mps(rng, 6)
        gamma = PauliString.from_letters(
            [int(rng.integers(4)) for _ in range(6)], 2 * int(rng.integers(2))
        )
        theta = float(rng.uniform(-2 * pi, 2 * pi))
        layer = StabMpoLayer(gamma, gamma.sign * theta)
        out, _ = apply_layer(m, layer, TruncationPolicy(chi_max=2**6))
        want = layer.to_dense() @ m.to_dense()
        assert np.max(np.abs(out.to_dense() - want)) < 1e-10


def test_layer_unitarity_roundtrip():
    rng = np.random.default_rng(57)
    m = random_mps(rng, 5)
    gamma = PauliString.from_literal("XXZYI")
    fwd = StabMpoLayer(gamma, 1.3)
    bwd = StabMpoLayer(gamma, -1.3)
    mid, _ = apply_layer(m, fwd, EXACT)
    back, _ = apply_layer(mid, bwd, EXACT)
    f = abs(inner(back, m)) ** 2 / (norm(back) ** 2 * norm(m) ** 2)
    assert f > 1.0 - 1e-10
    assert norm(mid) == pytest.approx(1.0, abs=1e-10)
    c, s = fwd.phi0, fwd.phi1
    assert abs(c) ** 2 + abs(s) ** 2 == pytest.approx(1.0, abs=1e-14)


# ----------------------------------------------------------------------
# expectation
# ----------------------------------------------------------------------
def test_expectation_matches_dense_small_instances():
    rng = np.random.default_rng(58)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        m_blocks = int(rng.integers(1, 6))
        blocks = sample_tdoped_blocks(n, m_blocks, 1, rng)
        compiled = compile_blocks(n, blocks)
        obs = PauliString.single(n, int(rng.integers(n)), int(rng.integers(1, 4)))
        bits = [int(b) for b in rng.integers(2, size=n)]
        got = expectation(
            Mps.product_state(bits), compiled, obs, TruncationPolicy(chi_max=2**n)
        )
        ref = dense_oracle_run(n, blocks, bits, obs)
        assert got.value == pytest.approx(ref, abs=1e-8)


def test_expectation_n6_m4():
    rng = np.random.default_rng(59)
    n = 6
    blocks = sample_tdoped_blocks(n, 4, 1, rng)
    compiled = compile_blocks(n, blocks)
    obs = PauliString.single(n, 3, 3)
    got = expectation(
        Mps.product_state([0] * n), compiled, obs, TruncationPolicy(chi_max=2**3)
    )
    ref = dense_oracle_run(n, blocks, [0] * n, obs)
    assert got.value == pytest.approx(ref, abs=1e-8)
    assert len(got.entropy_bits) == 4
    assert len(got.truncation) == 4


def test_expectation_zero_angles_reduce_to_clifford():
    rng = np.random.default_rng(60)
    n = 4
    blocks = [
        (random_clifford_circuit(rng, n, 8), RotationGate(int(rng.integers(n)), 3, 0.0))
        for _ in range(3)
    ]
    compiled = compile_blocks(n, blocks)
    obs = PauliString.single(n, 1, 3)
    got = expectation(Mps.product_state([0] * n), compiled, obs, EXACT)
    clifford_only = compile_blocks(n, [(c, None) for c, _r in blocks])
    want = expectation(Mps.product_state([0] * n), clifford_only, obs, EXACT)
    assert got.value == pytest.approx(want.value, abs=1e-12)


def test_transform_observable_roundtrip():
    rng = np.random.default_rng(61)
    circ = random_clifford_circuit(rng, 4, 12)
    tab = CliffordTableau.from_circuit(circ)
    p = PauliString.from_literal("XZIY")
    nu = transform_observable(tab, p)
    assert tab.conjugate(nu, "forward") == p


def test_identity_layers_skipped_in_expectation():
    n = 3
    layers = [StabMpoLayer(PauliString.identity(n), 0.9)]
    compiled = StabMpoCircuit(n, layers, CliffordTableau.identity(n))
    res = expectation(
        Mps.product_state([0] * n), compiled, PauliString.single(n, 1, 3), EXACT
    )
    assert res.value == pytest.approx(1.0, abs=1e-12)
    assert res.max_bond == 1


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------
def test_circuit_serialization_roundtrip():
    rng = np.random.default_rng(62)
    blocks = sample_tdoped_blocks(4, 3, 2, rng)
    compiled = compile_blocks(4, blocks)
    text = compiled.to_text()
    again = StabMpoCircuit.from_text(text)
    assert again.n == compiled.n and again.m == compiled.m
    for a, b in zip(again.layers, compiled.layers):
        assert a.gamma == b.gamma
        assert a.theta_eff == pytest.approx(b.theta_eff, abs=0.0)
    assert again.residual == compiled.residual
    assert again.to_text() == text


_GOOD_TEXT = (
    "stabmpo-circuit qubits 1 layers 1\nLAYER 1 + 0.5 Z\n"
    "residual-tableau\nqubits 1\nX0 -> +X\nZ0 -> +Z\n"
)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "stabmpo-circuit qubits 2\n",
        _GOOD_TEXT.replace("0.5", "nan"),
        _GOOD_TEXT.replace("+ 0.5 Z", "+ 0.5 ZZ"),
        _GOOD_TEXT.replace("LAYER 1 +", "LAYER 1 *"),
        _GOOD_TEXT.replace("LAYER 1", "LAYER 7"),
        _GOOD_TEXT.replace("circuit qubits 1 layers", "circuit foo 1 bar"),
    ],
    ids=[
        "empty", "short-header", "nan-angle", "size-mismatch", "bad-sign",
        "bad-index", "bad-header-words",
    ],
)
def test_circuit_from_text_rejects_bad_text(text):
    StabMpoCircuit.from_text(_GOOD_TEXT)
    with pytest.raises(ValueError):
        StabMpoCircuit.from_text(text)


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("qubits 1", "qubits x", "bad header 'stabmpo-circuit qubits x layers 1'"),
        ("+ 0.5 Z", "+ 0.5", "bad layer line 'LAYER 1 + 0.5'"),
        ("0.5", "abc", "bad layer line 'LAYER 1 + abc Z'"),
        ("LAYER 1 + 0.5 Z", "LAYER 1 + 0.5 Q", "bad layer line 'LAYER 1 + 0.5 Q'"),
        ("X0 -> +X", "X0 -> +Q", "bad tableau row 'X0 -> +Q'"),
    ],
    ids=["header-count", "short-layer", "angle-word", "bad-letter", "tableau-row"],
)
def test_circuit_text_errors_name_the_offending_line(old, new, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        StabMpoCircuit.from_text(_GOOD_TEXT.replace(old, new))


@pytest.mark.parametrize(
    "theta",
    [float("nan"), float("inf"), -float("inf"), True,
     pytest.param(np.True_, id="numpy-bool"), pytest.param("0.5", id="string"),
     pytest.param(1 + 0j, id="complex"), pytest.param(None, id="none"),
     pytest.param(10**400, id="huge-int")],
)
def test_rotation_gate_rejects_non_finite_angle(theta):
    # every angle (a rotation's, a layer's, the Floquet epsilon) is a finite
    # real: True used to act as 1, the others to leak TypeError or
    # OverflowError from math.isfinite
    with pytest.raises(ValueError, match="rotation angle"):
        RotationGate(0, 3, theta)
    with pytest.raises(ValueError, match="layer angle"):
        StabMpoLayer(PauliString.from_literal("Z"), theta)
    with pytest.raises(ValueError, match="epsilon"):
        FloquetConfig(epsilon=theta).validate()
    for ok in (1, np.float32(0.5), np.int64(1)):
        assert type(RotationGate(0, 3, ok).theta) is float
        assert type(StabMpoLayer(PauliString.from_literal("Z"), ok).theta_eff) is float


@pytest.mark.parametrize("site", [1.5, True, -1])
def test_rotation_site_is_a_nonnegative_int(site):
    # 1.5 used to pass and then leak TypeError from compile_blocks, True to
    # act as site 1, -1 to wait for the compiler
    with pytest.raises(ValueError, match="rotation site"):
        RotationGate(site, 3, 0.5)
    assert RotationGate(np.int64(1), 3, 0.5).site == 1


@pytest.mark.parametrize("axis", [True, 3.0])
def test_rotation_axis_is_an_int(axis):
    with pytest.raises(ValueError, match="rotation axis"):
        RotationGate(0, axis, 0.5)


def test_rotation_gate_validation():
    with pytest.raises(ValueError):
        RotationGate(0, 0, 1.0)
    with pytest.raises(ValueError):
        conjugate_rotation(CliffordTableau.identity(2), RotationGate(5, 3, 1.0))
