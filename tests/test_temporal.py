"""Folded transfer tensors and both contraction directions of the network."""

from math import ceil, cos, pi, sin

import numpy as np
import pytest

from stabmpo.circuit import (
    _LAYER_SITES,
    Contraction,
    RotationGate,
    StabMpoCircuit,
    StabMpoLayer,
    compile_blocks,
    expectation,
    t_gate,
    transform_observable,
)
from stabmpo.clifford import CliffordCircuit, CliffordTableau, Gate
from stabmpo.harness import dense_oracle_run, realization_rng, sample_tdoped_blocks
from stabmpo.mps import Mps, TruncationPolicy, cap_mpo, inner, window_mpo
from stabmpo.pauli import SIGMA, PauliString, pauli_coefficient
from stabmpo import mps as mps_module, temporal
from stabmpo.temporal import (
    _FOLDED_COLUMNS,
    _FOLDED_ROWS,
    computational_pauli_vector,
    folded_coefficients,
    horizontal_contract,
    vertical_fold_evolve,
)

EXACT = TruncationPolicy(chi_max=2**8)


# ----------------------------------------------------------------------
# the folded rows that production applies, block by block
# ----------------------------------------------------------------------
def row_blocks(g: int) -> np.ndarray:
    """(a, mu, nu) diagonal blocks of the uncapped folded row of letter g.

    Read from the module at call time: the rows ``window_mpo`` caps.  Block
    a = 1 holds Gamma[mu, nu] = Tr(sigma^mu sigma^nu sigma^g)/2, a = 2 its
    transpose, and a = 3 the diagonal S[mu] = Tr(sigma^mu sigma^g sigma^mu
    sigma^g)/2.
    """
    return np.einsum("amna->amn", temporal._FOLDED_ROWS[g])


def test_gamma_exhaustive_dense_oracle():
    for g in range(4):
        for mu in range(4):
            for nu in range(4):
                dense = 0.5 * np.trace(SIGMA[mu] @ SIGMA[nu] @ SIGMA[g])
                assert row_blocks(g)[1, mu, nu] == dense
                assert row_blocks(g)[2, nu, mu] == dense


def test_gamma_examples():
    assert np.array_equal(row_blocks(0)[1], np.eye(4))
    assert row_blocks(3)[1, 1, 2] == 1j  # Tr(XYZ)/2
    for mu in range(1, 4):
        for g in range(1, 4):
            assert row_blocks(g)[1, mu, mu] == 0.0


def test_gamma_hermiticity():
    for g in range(4):
        gamma = row_blocks(g)[1]
        assert np.array_equal(gamma, gamma.conj().T)


def test_s_factor_exhaustive_dense_oracle():
    for g in range(4):
        s = row_blocks(g)[3]
        assert np.array_equal(s, np.diag(np.diag(s)))
        for mu in range(4):
            dense = 0.5 * np.trace(SIGMA[mu] @ SIGMA[g] @ SIGMA[mu] @ SIGMA[g])
            assert s[mu, mu] == dense
            assert s[mu, mu] in (1.0, -1.0)


def test_s_factor_examples():
    assert all(row_blocks(g)[3, 0, 0] == 1.0 for g in range(4))
    assert np.array_equal(row_blocks(0)[3], np.eye(4))
    assert row_blocks(3)[3, 3, 3] == 1.0
    assert row_blocks(3)[3, 1, 1] == -1.0  # ZXZ = -X


# ----------------------------------------------------------------------
# folded site tensors: the rows weighted by a layer's folded coefficients
# ----------------------------------------------------------------------
def folded_site(g: int, phi0: complex, phi1: complex) -> np.ndarray:
    """w[a, mu, nu]: block a of the row of letter g times its coefficient."""
    return np.array(folded_coefficients(phi0, phi1))[:, None, None] * row_blocks(g)


def dense_folded_reference(g: int, phi0: complex, phi1: complex) -> np.ndarray:
    ops = (phi0 * SIGMA[0], phi1 * SIGMA[g])
    w = np.zeros((4, 4, 4), dtype=complex)
    for a_ket in range(2):
        for a_bra in range(2):
            a = 2 * a_ket + a_bra
            for mu in range(4):
                for nu in range(4):
                    w[a, mu, nu] = 0.5 * np.trace(
                        SIGMA[mu] @ ops[a_ket] @ SIGMA[nu] @ ops[a_bra].conj().T
                    )
    return w


def test_folded_site_disconnected_when_trivial():
    t = folded_site(0, cos(0.4), -1j * sin(0.4))
    for a in range(4):
        block = t[a]
        assert np.allclose(block, block[0, 0] * np.eye(4))


def test_folded_site_t_gate_block():
    phi0, phi1 = cos(pi / 8), -1j * sin(pi / 8)
    t = folded_site(3, phi0, phi1)
    want = sin(pi / 8) ** 2 * np.diag([1.0, -1.0, -1.0, 1.0])
    assert np.allclose(t[3], want, atol=1e-14)


def test_folded_site_pure_identity_channel():
    t = folded_site(2, 1.0, 0.0)
    assert np.allclose(t[0], np.eye(4))
    for a in (1, 2, 3):
        assert np.allclose(t[a], 0.0)


def test_folded_site_random_vs_dense_trace():
    rng = np.random.default_rng(70)
    for _ in range(100):
        g = int(rng.integers(4))
        theta = float(rng.uniform(0, 2 * pi))
        sign = 1.0 if rng.integers(2) else -1.0
        phi0, phi1 = cos(theta / 2), sign * -1j * sin(theta / 2)
        t = folded_site(g, phi0, phi1)
        assert np.max(np.abs(t - dense_folded_reference(g, phi0, phi1))) < 1e-12


def test_computational_pauli_vector_roundtrip():
    for s in (0, 1):
        v = computational_pauli_vector(s)
        proj = sum(v[mu] * SIGMA[mu] for mu in range(4))
        want = np.zeros((2, 2), dtype=complex)
        want[s, s] = 1.0
        assert np.allclose(proj, want)
        for mu in range(4):
            assert pauli_coefficient(want, PauliString.from_letters([mu])) == (
                pytest.approx(complex(v[mu]))
            )


# ----------------------------------------------------------------------
# vertical contraction
# ----------------------------------------------------------------------
def trivial_circuit(n: int, layers) -> StabMpoCircuit:
    return StabMpoCircuit(n, list(layers), CliffordTableau.identity(n))


def test_vertical_no_layers_reads_off_projector():
    n = 4
    circ = trivial_circuit(n, [])
    bits = [0, 1, 0, 1]
    for j in range(n):
        res = vertical_fold_evolve(circ, PauliString.single(n, j, 3), bits, EXACT)
        assert res.value == pytest.approx((-1.0) ** bits[j], abs=1e-12)
        res = vertical_fold_evolve(circ, PauliString.single(n, j, 1), bits, EXACT)
        assert res.value == pytest.approx(0.0, abs=1e-12)
    ident = PauliString.identity(n)
    assert vertical_fold_evolve(circ, ident, bits, EXACT).value == pytest.approx(1.0)


def test_vertical_matches_layer_evolution():
    rng = np.random.default_rng(71)
    for _ in range(8):
        n = 4
        blocks = sample_tdoped_blocks(n, 3, 1, rng)
        compiled = compile_blocks(n, blocks)
        obs = PauliString.single(n, int(rng.integers(n)), int(rng.integers(1, 4)))
        bits = [int(b) for b in rng.integers(2, size=n)]
        ref = expectation(Mps.product_state(bits), compiled, obs, EXACT).value
        got = vertical_fold_evolve(compiled, obs, bits, EXACT)
        assert got.value == pytest.approx(ref, abs=1e-8)


def test_folded_chains_certify_every_split_at_their_own_cutoff(monkeypatch):
    # the chains are cut at svd_cutoff**2 = 1e-24, below the full-size floor
    # of 1e-15, so no split of either fold is certified at a raised cutoff
    cutoffs = []

    def counted(rho, policy, keeps=mps_module._keeps_every_weight):
        cutoffs.append(policy.svd_cutoff)
        return keeps(rho, policy)

    monkeypatch.setattr(mps_module, "_keeps_every_weight", counted)
    rng = np.random.default_rng(79)
    n = 6
    compiled = compile_blocks(n, sample_tdoped_blocks(n, 6, 1, rng))
    obs = compiled.residual.conjugate(PauliString.single(n, 2, 3), "forward")
    for fold in (vertical_fold_evolve, horizontal_contract):
        cutoffs.clear()
        fold(compiled, obs, [0] * n, EXACT)
        assert cutoffs and set(cutoffs) == {temporal._chain_policy(EXACT).svd_cutoff}


def test_vertical_zero_angles_leave_coefficients_fixed():
    n = 3
    layers = [StabMpoLayer(PauliString.from_literal("XZY"), 0.0)]
    circ = trivial_circuit(n, layers)
    res = vertical_fold_evolve(circ, PauliString.single(n, 0, 3), [0] * n, EXACT)
    assert res.value == pytest.approx(1.0, abs=1e-12)
    assert res.max_bond == 1


# ----------------------------------------------------------------------
# horizontal contraction
# ----------------------------------------------------------------------
def test_horizontal_trivial_layers_have_zero_temporal_entropy():
    n = 5
    layers = [StabMpoLayer(PauliString.identity(n), 0.9) for _ in range(3)]
    circ = trivial_circuit(n, layers)
    res = horizontal_contract(circ, PauliString.single(n, 2, 3), [0] * n, EXACT)
    assert res.value == pytest.approx(1.0, abs=1e-10)
    assert np.allclose(res.entropy_bits, 0.0, atol=1e-12)


def test_horizontal_identity_observable_gives_norm_one():
    rng = np.random.default_rng(72)
    for _ in range(5):
        n = 4
        blocks = sample_tdoped_blocks(n, 3, 1, rng)
        compiled = compile_blocks(n, blocks)
        res = horizontal_contract(compiled, PauliString.identity(n), [0] * n, EXACT)
        assert res.value == pytest.approx(1.0, abs=1e-8)


def test_horizontal_matches_vertical_and_layers():
    rng = np.random.default_rng(73)
    for _ in range(8):
        n = 4
        blocks = sample_tdoped_blocks(n, 3, 1, rng)
        compiled = compile_blocks(n, blocks)
        obs = PauliString.single(n, int(rng.integers(n)), int(rng.integers(1, 4)))
        bits = [int(b) for b in rng.integers(2, size=n)]
        ref = expectation(Mps.product_state(bits), compiled, obs, EXACT).value
        vert = vertical_fold_evolve(compiled, obs, bits, EXACT).value
        folded = horizontal_contract(compiled, obs, bits, EXACT)
        assert vert == pytest.approx(ref, abs=1e-8)
        assert folded.value == pytest.approx(ref, abs=1e-8)


def test_horizontal_m0_direct_value():
    n = 3
    circ = trivial_circuit(n, [])
    res = horizontal_contract(circ, PauliString.single(n, 1, 3), [0, 1, 0], EXACT)
    assert res.value == pytest.approx(-1.0)
    assert np.allclose(res.entropy_bits, 0.0)

    # every letter at a random site among I/Z letters, both signs, random bits
    rng = np.random.default_rng(75)
    for n in range(1, 6):
        for letter in range(4):
            for phase_exp in (0, 2):
                letters = [3 * int(rng.integers(2)) for _ in range(n)]
                letters[int(rng.integers(n))] = letter
                obs = PauliString.from_letters(letters, phase_exp)
                bits = [int(b) for b in rng.integers(2, size=n)]
                res = horizontal_contract(trivial_circuit(n, []), obs, bits, EXACT)
                ref = dense_oracle_run(n, [], bits, obs)
                assert res.value == pytest.approx(ref, abs=1e-12)
                assert res.entropy_bits == [0.0] * n


def test_horizontal_entropy_profile_shape():
    rng = np.random.default_rng(74)
    n, m = 5, 4
    blocks = sample_tdoped_blocks(n, m, 1, rng)
    compiled = compile_blocks(n, blocks)
    obs = PauliString.single(n, 2, 3)
    res = horizontal_contract(compiled, obs, [0] * n, EXACT)
    assert np.shape(res.entropy_bits) == (n,)


def test_contractions_record_one_entry_per_step():
    # layers for the two layer-by-layer methods (identity layers included),
    # columns for the horizontal sweep; the vertical fold records no entropy
    n = 5
    layers = [
        StabMpoLayer(PauliString.from_literal("XZIYI"), 0.7),
        StabMpoLayer(PauliString.identity(n), 0.9),
        StabMpoLayer(PauliString.from_literal("-IIZXX"), 1.3),
    ]
    m = len(layers)
    circ = trivial_circuit(n, layers)
    obs = PauliString.single(n, 2, 3)
    bits = [0, 1, 0, 0, 1]
    lay = expectation(Mps.product_state(bits), circ, obs, EXACT)
    vert = vertical_fold_evolve(circ, obs, bits, EXACT)
    horiz = horizontal_contract(circ, obs, bits, EXACT)
    assert [len(r.truncation) for r in (lay, vert, horiz)] == [m, m, n]
    assert [len(r.entropy_bits) for r in (lay, vert, horiz)] == [m, 0, n]
    assert lay.truncation[1] == vert.truncation[1] == 0.0
    assert vert.value == pytest.approx(lay.value, abs=1e-10)
    assert horiz.value == pytest.approx(lay.value, abs=1e-10)
    # a chain that collapses at column 0 still gives n entropies
    x_pi = trivial_circuit(2, [StabMpoLayer(PauliString.from_literal("XX"), pi)])
    gone = horizontal_contract(x_pi, PauliString.single(2, 0, 1), [0, 0], EXACT)
    assert gone.zero_state and gone.entropy_bits == [0.0, 0.0]


def test_zeroed_chain_bonds_do_not_count_towards_max_bond():
    # a hand-built column that scales the chain below the zero threshold: the
    # zero state keeps the merged bonds of its window, which no nonzero step
    # reached, so the record leaves max_bond at the last nonzero chain's
    rng = np.random.default_rng(78)
    m = 6
    work = TruncationPolicy(chi_max=4**m)
    chain = Mps.from_site_vectors(rng.normal(size=(m, 4)) + 1j * rng.normal(size=(m, 4)))
    res = Contraction()
    for scale in (1.0, 1.0, 1e-15):
        letters = rng.integers(1, 4, size=m)
        caps = scale * computational_pauli_vector(0), 2.0 * np.eye(4)[3]
        before = chain.max_bond
        chain, err = chain.apply_mpo(window_mpo(letters, _FOLDED_COLUMNS, *caps), work)
        assert res.record(chain, err, 0.0) == chain.is_zero == (scale < 1.0)
    assert chain.max_bond > before > 1
    assert res.max_bond == before and res.zero_state


def test_horizontal_pi_layer_with_x_observable_collapses_chain():
    # theta = pi layers make the identity branch weight ~1e-33; a column whose
    # observable letter anticommutes with the string then annihilates the chain
    n = 2
    layer = StabMpoLayer(PauliString.from_literal("XX"), pi)
    circ = trivial_circuit(n, [layer])
    obs = PauliString.single(n, 0, 1)  # X on qubit 0
    res = horizontal_contract(circ, obs, [0, 0], EXACT)
    assert res.zero_state
    assert res.value == 0.0
    # the exact value is indeed zero
    ref = expectation(Mps.product_state([0, 0]), circ, obs, EXACT).value
    assert ref == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("bad", [2, -1, 0.5])
@pytest.mark.parametrize("entry", ["horizontal", "vertical", "product_state", "dense"])
def test_initial_bits_other_than_zero_one_rejected(entry, bad):
    # int() would read 2 and -1 as 1 and truncate 0.5 to 0
    n = 3
    blocks = sample_tdoped_blocks(n, 2, 1, np.random.default_rng(75))
    circ = compile_blocks(n, blocks)
    obs = PauliString.single(n, 0, 3)
    bits = [bad, 0, 0]
    with pytest.raises(ValueError, match="not 0 or 1"):
        if entry == "horizontal":
            horizontal_contract(circ, obs, bits, EXACT)
        elif entry == "vertical":
            vertical_fold_evolve(circ, obs, bits, EXACT)
        elif entry == "dense":
            dense_oracle_run(n, blocks, bits, obs)
        else:
            Mps.product_state(bits)


@pytest.mark.parametrize(
    "entry, case",
    [("layer", "non-hermitian"), ("layer", "length"),
     ("vertical", "non-hermitian"), ("vertical", "length"), ("vertical", "bits"),
     ("horizontal", "non-hermitian"), ("horizontal", "length"), ("horizontal", "bits")],
)
def test_contractions_check_their_input_before_any_layer(entry, case, monkeypatch):
    # the vertical fold used to evolve the whole train, and layer evolution
    # every layer, before a bad observable raised
    n = 3
    circ = compile_blocks(n, sample_tdoped_blocks(n, 2, 1, np.random.default_rng(75)))
    obs, bits = PauliString.single(n, 0, 3), [0] * n
    if case == "non-hermitian":
        obs, message = PauliString.from_literal("iZII"), "Hermitian"
    elif case == "length":
        obs, message = PauliString.single(n + 1, 0, 3), "length mismatch"
    else:
        bits, message = [0] * (n + 1), "initial"
    psi0 = Mps.product_state([0] * n)

    def no_layer(*args):
        raise AssertionError("a layer was applied before the input was checked")

    monkeypatch.setattr(Mps, "apply_mpo", no_layer)
    contract = {"layer": lambda: expectation(psi0, circ, obs, EXACT),
                "vertical": lambda: vertical_fold_evolve(circ, obs, bits, EXACT),
                "horizontal": lambda: horizontal_contract(circ, obs, bits, EXACT)}
    with pytest.raises(ValueError, match=message):
        contract[entry]()


@pytest.mark.parametrize("bit", [0, 1])
def test_single_qubit_three_ways_match_dense(bit):
    h = CliffordCircuit(1, (Gate("H", (0,)),))
    s = CliffordCircuit(1, (Gate("S", (0,)),))
    blocks = [
        (None, RotationGate(0, 1, 0.7)),
        (None, RotationGate(0, 3, -1.1)),
        (s, RotationGate(0, 1, 0.4)),
        (h, t_gate(0)),
    ]
    compiled = compile_blocks(1, blocks)
    assert {layer.gamma.letter(0) for layer in compiled.layers} == {1, 2, 3}
    for mu in (1, 2, 3):
        obs = PauliString.single(1, 0, mu)
        ref = dense_oracle_run(1, blocks, [bit], obs)
        layered = expectation(Mps.product_state([bit]), compiled, obs, EXACT)
        assert layered.value == pytest.approx(ref, abs=1e-12)
        vert = vertical_fold_evolve(compiled, obs, [bit], EXACT)
        assert vert.value == pytest.approx(ref, abs=1e-12)
        horiz = horizontal_contract(compiled, obs, [bit], EXACT)
        assert horiz.value == pytest.approx(ref, abs=1e-12)


@pytest.mark.parametrize("n", [80, 128])
def test_three_methods_agree_where_the_coefficient_train_is_tiny(n):
    # the Pauli-coefficient train of |0...0><0...0| has norm 2**(-n/2), below
    # the zero threshold from n = 80 on: the fold must not read it as zero.
    # C Z_j C^dag pulls back to Z_j, whose value is nonzero on these states.
    bits = [0] * n
    for seed in range(3):
        circ = compile_blocks(n, sample_tdoped_blocks(n, 6, 1, realization_rng(seed, 0)))
        for j in (0, n // 2, n - 1):
            obs = circ.residual.conjugate(PauliString.single(n, j, 3), "forward")
            runs = [
                expectation(Mps.product_state(bits), circ, obs, EXACT),
                vertical_fold_evolve(circ, obs, bits, EXACT),
                horizontal_contract(circ, obs, bits, EXACT),
            ]
            values = [r.value for r in runs]
            assert not any(r.zero_state for r in runs), (seed, j)
            assert max(values) - min(values) <= 1e-12, (seed, j, values)


@pytest.mark.parametrize("n", [1030, 2100])
def test_vertical_fold_reads_its_value_beyond_float_range(n):
    # 2**n no longer converts to a float from n = 1024 on, and the coefficient
    # train's element leaves the float range on the way: the fold must read
    # the value that layer evolution and the horizontal sweep read
    bits = [0] * n
    circ = compile_blocks(n, sample_tdoped_blocks(n, 4, 1, realization_rng(n, 0)))
    for j in (0, n // 2, n - 1):
        obs = circ.residual.conjugate(PauliString.single(n, j, 3), "forward")
        fold = vertical_fold_evolve(circ, obs, bits, EXACT).value
        for other in (
            expectation(Mps.product_state(bits), circ, obs, EXACT),
            horizontal_contract(circ, obs, bits, EXACT),
        ):
            assert fold == pytest.approx(other.value, abs=1e-12), (j, fold, other.value)


def test_three_methods_agree_on_more_than_1024_layers():
    # the horizontal sweep's all-ones closure has log_norm m ln 2, which exp()
    # overflows from m = 1024 on: the overlap must read the value that layer
    # evolution and the vertical fold read
    n, m = 2, 1030
    bits = [0] * n
    circ = compile_blocks(n, sample_tdoped_blocks(n, m, 1, realization_rng(m, 0)))
    assert circ.m == m
    for j in range(n):
        obs = circ.residual.conjugate(PauliString.single(n, j, 3), "forward")
        values = [
            expectation(Mps.product_state(bits), circ, obs, EXACT).value,
            vertical_fold_evolve(circ, obs, bits, EXACT).value,
            horizontal_contract(circ, obs, bits, EXACT).value,
        ]
        assert max(values) - min(values) <= 1e-12, (j, values)
        assert abs(values[0]) > 0.1, "the observable reads zero"


def test_horizontal_rejects_length_mismatch():
    circ = trivial_circuit(3, [])
    with pytest.raises(ValueError):
        horizontal_contract(circ, PauliString.identity(3), [0, 0], EXACT)


def test_horizontal_truncated_sweep_has_no_imaginary_residual():
    # `stabmpo temporal --n 12 --m 16 --d 1 --chi 4 --realizations 15 --seed 1`
    # exited 2 on realization 14, step 12, when a chi=4 cut split a degenerate
    # multiplet and the kept subspace broke the folded network's conjugation
    # symmetry; this is that step as one call
    n = 12
    blocks = sample_tdoped_blocks(n, 12, 1, realization_rng(1, 14))
    circ = compile_blocks(n, blocks)
    obs = PauliString.single(n, n // 2, 3)
    value = horizontal_contract(circ, obs, [0] * n, TruncationPolicy(chi_max=4)).value
    assert abs(value) <= 1.0 + 1e-9


# ----------------------------------------------------------------------
# support windows: the three contractions against full-length operators
# ----------------------------------------------------------------------
@pytest.mark.parametrize("table", ["layer", "row", "column"])
def test_identity_letter_is_bond_and_physical_delta(table):
    # the premise of the support window: both caps pass through letter 0
    # unchanged, so the sites outside the window may be left out
    op, bond, phys = {
        "layer": (_LAYER_SITES[0], 2, 2),
        "row": (_FOLDED_ROWS[0], 4, 4),
        "column": (_FOLDED_COLUMNS[0], 4, 4),
    }[table]
    delta = np.einsum("ab,oi->aoib", np.eye(bond), np.eye(phys))
    assert op.shape == delta.shape
    assert np.array_equal(op, delta)


def full_length(letters, table, left, right) -> list:
    """The capped operator over every site, identity letters included."""
    return cap_mpo([table[g] for g in letters], left, right)


def layers_reference(circ, obs, bits, policy):
    state = Mps.product_state(bits)
    entropies = []
    for layer in circ.layers:
        ops = full_length(
            layer.gamma.letters(), _LAYER_SITES, [layer.phi0, layer.phi1], np.ones(2)
        )
        state, _ = state.apply_mpo(ops, policy)
        entropies.append(state.entanglement_entropy(circ.n // 2))
    value = state.expect_pauli(transform_observable(circ.residual, obs))
    return value, entropies, state.is_zero


def vertical_reference(circ, obs, bits, policy):
    y = Mps.from_site_vectors([computational_pauli_vector(b) for b in bits])
    for layer in circ.layers:
        coeffs = folded_coefficients(layer.phi0, layer.phi1)
        y, _ = y.apply_mpo(
            full_length(layer.gamma.letters(), _FOLDED_ROWS, coeffs, np.ones(4)), policy
        )
        if y.is_zero:
            return 0.0, True
    nu = transform_observable(circ.residual, obs)
    raw = inner(Mps.from_site_vectors(np.eye(4)[list(nu.letters())]), y) * 2**circ.n
    return nu.sign * raw.real, False


def horizontal_reference(circ, obs, bits, policy):
    nu = transform_observable(circ.residual, obs)
    chain = Mps.from_site_vectors(
        folded_coefficients(layer.phi0, layer.phi1) for layer in circ.layers
    )
    entropies = []
    for j in range(circ.n):
        letters = [layer.gamma.letter(j) for layer in circ.layers]
        top = 2.0 * np.eye(4)[nu.letter(j)]
        bottom = computational_pauli_vector(bits[j])
        chain, _ = chain.apply_mpo(
            full_length(letters, _FOLDED_COLUMNS, bottom, top), policy
        )
        entropies.append(chain.entanglement_entropy(ceil(circ.m / 2)))
        if chain.is_zero:
            return 0.0, entropies + [0.0] * (circ.n - j - 1), True
    closure = Mps.from_site_vectors(np.ones(4) for _ in range(circ.m))
    return nu.sign * inner(closure, chain).real, entropies, False


def assert_windows_match_full_length(circ, obs, bits) -> tuple:
    """The three contractions against their references; returns the horizontal."""
    lay = expectation(Mps.product_state(bits), circ, obs, EXACT)
    value, entropies, zero = layers_reference(circ, obs, bits, EXACT)
    assert lay.value == pytest.approx(value, abs=1e-12)
    assert lay.entropy_bits == pytest.approx(entropies, abs=1e-12)
    assert lay.zero_state == zero
    vert = vertical_fold_evolve(circ, obs, bits, EXACT)
    value, zero = vertical_reference(circ, obs, bits, EXACT)
    assert vert.value == pytest.approx(value, abs=1e-12)
    assert vert.zero_state == zero
    horiz = horizontal_contract(circ, obs, bits, EXACT)
    value, entropies, zero = horizontal_reference(circ, obs, bits, EXACT)
    assert horiz.value == pytest.approx(value, abs=1e-12)
    assert horiz.entropy_bits == pytest.approx(entropies, abs=1e-12)
    assert horiz.zero_state == zero
    return horiz


def test_windows_match_full_length_on_tdoped_circuits():
    # untruncated prefixes of seeded T-doped circuits, random observables and
    # bits; early prefixes have columns whose layer letters are all I
    rng = np.random.default_rng(76)
    scalar_columns = 0
    for n, m in ((4, 3), (6, 5), (8, 6)):
        for _ in range(3):
            blocks = sample_tdoped_blocks(n, m, 1, rng)
            for k in range(1, m + 1):
                circ = compile_blocks(n, blocks[:k])
                obs = PauliString.from_letters(rng.integers(4, size=n))
                bits = [int(b) for b in rng.integers(2, size=n)]
                assert_windows_match_full_length(circ, obs, bits)
                support = set().union(*(layer.gamma.support for layer in circ.layers))
                scalar_columns += n - len(support)
    assert scalar_columns > 0


@pytest.mark.parametrize("first", "IZXY")
@pytest.mark.parametrize("fourth", "IZXY")
def test_all_identity_columns_are_scalars(first, fourth):
    # columns 0 and 3 carry only I letters, and one layer is the identity
    # string: each such column multiplies the chain by 2 v_bit[nu_j]
    n = 5
    layers = [
        StabMpoLayer(PauliString.from_literal(text), theta)
        for text, theta in (("IXZIY", 0.7), ("-IZYIX", 1.3), ("IIIII", 0.9), ("IYXIZ", -0.4))
    ]
    circ = trivial_circuit(n, layers)
    obs = PauliString.from_literal(first + "YY" + fourth + "Z")
    zero_at = [j for j, mu in ((0, first), (3, fourth)) if mu in "XY"]
    values = {}
    for b0 in (0, 1):
        for b3 in (0, 1):
            horiz = assert_windows_match_full_length(circ, obs, [b0, 0, 0, b3, 0])
            values[b0, b3] = horiz.value
            assert horiz.zero_state == bool(zero_at)
            if zero_at:  # the chain is zero at that column, and stays padded
                assert horiz.value == 0.0
                assert horiz.entropy_bits[zero_at[0] :] == [0.0] * (n - zero_at[0])
    if not zero_at:  # each Z over bit 1 flips the sign
        assert abs(values[0, 0]) > 0.05
        for (b0, b3), value in values.items():
            sign = (-1) ** ((first == "Z") * b0 + (fourth == "Z") * b3)
            assert value == pytest.approx(sign * values[0, 0], abs=1e-12)


def test_write_temporal_csv(tmp_path):
    from stabmpo.harness import RunResult, TDopedConfig, _write_files

    mat = np.array([[0.0, 0.5], [1.0, 0.25]])  # (m, n)
    _write_files(RunResult(TDopedConfig(), temporal_mean=mat), tmp_path)
    lines = (tmp_path / "temporal.csv").read_text().splitlines()
    assert lines[0] == "n,m,entropy_bits"
    assert lines[1] == "1,1,0.0"
    assert lines[2] == "2,1,0.5"
    assert lines[4] == "2,2,0.25"
