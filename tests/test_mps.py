"""Tensor-train engine against the dense statevector oracle."""

from itertools import product
from math import pi

import numpy as np
import pytest

from conftest import (
    LAYER_SITES,
    compress,
    dense_entropy_bits,
    expand_bricks,
    fidelity,
    norm,
    random_mps,
    random_pauli,
    random_state_vector,
    random_unitary,
    raw_norm,
)
from stabmpo.circuit import (
    RotationGate,
    StabMpoLayer,
    apply_layer,
    compile_blocks,
    letter_table,
)
from stabmpo.clifford import CliffordCircuit, Gate, sample_brickwall
from stabmpo.dense import (
    GATE_1Q,
    GATE_2Q,
    apply_circuit,
    apply_pauli,
    basis_state,
    brick_unitary,
)
from stabmpo.harness import apply_gates, sample_floquet_blocks, sample_tdoped_blocks
from stabmpo.mps import (
    Mps,
    TruncationPolicy,
    _truncate_spectrum,
    cap_mpo,
    diagonal_mpo,
    inner,
    split_two_site,
    window_mpo,
)
from stabmpo import mps as mps_module
from stabmpo.pauli import SIGMA, PauliString
from stabmpo.temporal import (
    _FOLDED_COLUMNS,
    _FOLDED_ROWS,
    computational_pauli_vector,
    folded_coefficients,
)

EXACT8 = TruncationPolicy(chi_max=2**8)


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


@pytest.mark.parametrize("site", [-1, 3])
def test_1q_gate_rejects_site_out_of_range(site):
    m = Mps.product_state([0, 0, 0])
    with pytest.raises(ValueError, match="out of range"):
        m.apply_1q_gate(GATE_1Q["H"], site)


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


def contract_sites(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The 4x4 matrix of a (1, 2, 2, k) and a (k, 2, 2, 1) operator site."""
    return np.einsum("xoia,apjy->opij", left, right).reshape(4, 4)


def test_split_two_site_rebuilds_each_gate():
    rng = np.random.default_rng(34)
    gates = [random_unitary(rng, 4) for _ in range(4)]
    gates += [brick_unitary(int(i)) for i in rng.integers(11520, size=4)]
    for u, (left, right) in zip(gates, split_two_site(gates)):
        assert left.shape[:3] == (1, 2, 2) and right.shape[1:] == (2, 2, 1)
        assert np.max(np.abs(contract_sites(left, right) - u)) < 1e-14


@pytest.mark.parametrize(
    "u, k",
    [
        (GATE_2Q["CNOT"], 2),
        (GATE_2Q["SWAP"], 4),
        (np.kron(GATE_1Q["H"], GATE_1Q["S"]), 1),
    ],
)
def test_split_two_site_operator_schmidt_rank(u, k):
    ((left, right),) = split_two_site([u])
    assert left.shape == (1, 2, 2, k) and right.shape == (k, 2, 2, 1)


@pytest.mark.parametrize("us", [[np.eye(2)], [np.diag([1.0, 1.0, 1.0, 2.0])], np.eye(4)])
def test_split_two_site_rejects_bad_gates(us):
    with pytest.raises(ValueError):
        split_two_site(us)


def test_2q_gate_renormalize_moves_the_scale_into_log_norm():
    rng = np.random.default_rng(35)
    m = random_mps(rng, 6)
    policy = TruncationPolicy(chi_max=2)
    out, err = m.apply_2q_gate(random_unitary(rng, 4), 2, policy)
    assert err > 1e-3
    assert raw_norm(out) == pytest.approx(1.0, abs=1e-12)
    assert norm(out) ** 2 == pytest.approx(1.0 - err, abs=1e-12)


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
    assert raw_norm(out) < 1e-12  # not silently renormalized


def test_compress_product_state_noop():
    m = Mps.product_state([0, 1, 0])
    out, err = compress(m, TruncationPolicy(chi_max=4))
    assert err == 0.0
    assert np.allclose(out.to_dense(), m.to_dense())


def test_compress_bell_to_chi1_discards_half():
    c = 1 / np.sqrt(2)
    bell, _ = two_branch(Mps.product_state([0, 0]), c, c, [1, 1])
    out, err = compress(bell, TruncationPolicy(chi_max=1))
    assert err == pytest.approx(0.5)
    assert out.max_bond == 1


def test_compress_fidelity_bound():
    rng = np.random.default_rng(38)
    m = random_mps(rng, 10, layers=5)  # bonds reach 32 at the middle
    assert m.max_bond == 32
    out, err = compress(m, TruncationPolicy(chi_max=16))
    assert out.max_bond <= 16
    f = fidelity(out.to_dense(), m.to_dense())
    assert err > 0.0
    assert f >= 1.0 - err - 1e-12


def test_compress_idempotent():
    rng = np.random.default_rng(39)
    m = random_mps(rng, 6)
    policy = TruncationPolicy(chi_max=3)
    once, _ = compress(m, policy)
    twice, err2 = compress(once, policy)
    assert err2 < 1e-12
    assert once.bond_dims == twice.bond_dims
    assert fidelity(once.to_dense(), twice.to_dense()) > 1.0 - 1e-12


def test_compress_renormalize_tracks_log_norm():
    rng = np.random.default_rng(40)
    m = random_mps(rng, 6)
    out, err = compress(m, TruncationPolicy(chi_max=2))
    assert raw_norm(out) == pytest.approx(1.0, abs=1e-10)
    assert norm(out) == pytest.approx(np.sqrt(max(1.0 - err, 0.0)), abs=0.05)


# ----------------------------------------------------------------------
# canonical center and window-local layers
# ----------------------------------------------------------------------
def assert_canonical(m: Mps) -> None:
    """Every site left of the center is left-, every site right of it right-isometric,
    and every square one is exactly δ (``assert_identity_gauge``)."""
    assert_identity_gauge(m)
    for i, t in enumerate(m.tensors):
        dl, d, dr = t.shape
        if i < m.center:
            mat = t.reshape(dl * d, dr)
            assert np.max(np.abs(mat.conj().T @ mat - np.eye(dr))) < 1e-12, i
        elif i > m.center:
            mat = t.reshape(dl, d * dr)
            assert np.max(np.abs(mat @ mat.conj().T - np.eye(dl))) < 1e-12, i


def narrow_layer(rng, n: int, lo: int, hi: int) -> StabMpoLayer:
    """Random layer whose first and last non-identity letters sit at lo and hi."""
    letters = [0] * n
    for j in range(lo, hi + 1):
        letters[j] = int(rng.integers(1 if j in (lo, hi) else 0, 4))
    gamma = PauliString.from_letters(letters, 2 * int(rng.integers(2)))
    return StabMpoLayer(gamma, float(rng.uniform(0, 2 * pi)))


def full_cut(state: Mps, cut: int, chi_max: int, side: str) -> bool:
    """Bond at ``cut`` at most chi_max and the dimension of all sites on ``side``."""
    dims = state.phys_dims[:cut] if side == "left" else state.phys_dims[cut:]
    return state.bond_dims[cut] == int(np.prod(dims)) <= chi_max


def documented_core(state: Mps, lo: int, hi: int, chi_max: int) -> tuple[int, int]:
    """The core [i_l, i_r - 1] that ``apply_mpo`` sweeps on window [lo, hi].

    i_r is the first right-full cut in (lo, hi], else hi + 1; the center moves
    to min(max(center, lo), i_r - 1); i_l is the last left-full cut in
    (lo, center], else lo.  The result's center is i_r - 1.
    """
    right = [i for i in range(lo + 1, hi + 1) if full_cut(state, i, chi_max, "right")]
    i_r = min(right, default=hi + 1)
    center = min(max(state.center, lo), i_r - 1)
    left = [i for i in range(lo + 1, center + 1) if full_cut(state, i, chi_max, "left")]
    return max(left, default=lo), i_r - 1


def pauli_layers_state(chi_max: int, n: int = 8) -> Mps:
    """Eight random Pauli layers on |0...0>; uncapped, every cut is full."""
    rng = np.random.default_rng(88)
    state = Mps.product_state([0] * n)
    for _ in range(8):
        gamma = PauliString.from_letters([int(rng.integers(4)) for _ in range(n)])
        state, _ = apply_layer(state, StabMpoLayer(gamma, 0.35), TruncationPolicy(chi_max))
    return state


def network_dense(tensors) -> np.ndarray:
    """Dense vector of a raw tensor list, contracted left to right."""
    v = np.ones((1, 1), dtype=np.complex128)
    for t in tensors:
        v = np.tensordot(v, t, axes=(1, 0)).reshape(-1, t.shape[2])
    return v[:, 0]


def test_network_without_center_is_canonicalized_to_center_0():
    # oversized and undersized inner bonds alike; the gauge changes, the state not
    rng = np.random.default_rng(66)
    for d in (2, 4):
        for n in (1, 2, 5, 7):
            bonds = [1] + [int(b) for b in rng.integers(1, 7, size=n - 1)] + [1]
            shapes = [(bl, d, br) for bl, br in zip(bonds, bonds[1:])]
            tensors = [rng.normal(size=s) + 1j * rng.normal(size=s) for s in shapes]
            m = Mps(tensors, log_norm=0.3)
            assert m.center == 0
            assert_canonical(m)
            want = network_dense(tensors)
            ref = np.linalg.norm(want)
            assert np.linalg.norm(m.to_dense(14) - np.exp(0.3) * want) <= 1e-12 * ref
            assert abs(raw_norm(m) - ref) <= 1e-12 * ref


def test_product_states_are_canonical_at_center_0():
    rng = np.random.default_rng(67)
    vectors = [rng.normal(size=d) + 1j * rng.normal(size=d) for d in (2, 4, 3, 4)]
    for zero_at in (None, 0, 2, 3):
        vecs = list(vectors)
        if zero_at is not None:
            vecs[zero_at] = np.zeros(len(vecs[zero_at]))
        m = Mps.from_site_vectors(vecs)
        assert m.center == 0 and m.is_zero == (zero_at is not None)
        assert_canonical(m)
        if m.is_zero:
            assert not np.any(m.to_dense())
    bits = [0, 1, 1, 0, 1]
    m = Mps.product_state(bits)
    assert m.center == 0 and m.log_norm == 0.0
    assert_canonical(m)
    for t, b in zip(m.tensors, bits):
        assert t.dtype == np.complex128
        assert np.array_equal(t, np.eye(2)[b].reshape(1, 2, 1))


PAST_END = object()  # one past the entry point's last valid index
INDEX_ENTRIES = {  # name: (call with index i, last valid index on 3 sites)
    "move_center": (lambda m, i: m.move_center(i), 2),
    "apply_1q_gate": (lambda m, i: m.apply_1q_gate(np.eye(2), i), 2),
    "apply_2q_gate": (lambda m, i: m.apply_2q_gate(np.eye(4), i, EXACT8), 1),
    "entanglement_entropy": (lambda m, i: m.entanglement_entropy(i), 3),
}


@pytest.mark.parametrize("entry", INDEX_ENTRIES)
@pytest.mark.parametrize(
    "value", [1.5, True, -1, pytest.param(PAST_END, id="past-end"), "1"]
)
def test_every_index_is_an_int_in_range(entry, value):
    # centers, gate sites and cuts share one rule: a bool, a non-integer or an
    # out-of-range value raises ValueError; np.integer is an int
    call, last = INDEX_ENTRIES[entry]
    m = Mps.product_state([0, 1, 0])
    with pytest.raises(ValueError, match="out of range"):
        call(m, last + 1 if value is PAST_END else value)
    call(m, np.int64(last))


def test_center_invariant_after_every_operation():
    rng = np.random.default_rng(60)
    n = 8
    m = Mps.product_state([0, 1] * 4)
    assert_canonical(m)
    m = m.apply_1q_gate(random_unitary(rng, 2), 5)
    assert_canonical(m)
    for site in (2, 6, 0, 4):
        m, _ = m.apply_2q_gate(random_unitary(rng, 4), site, EXACT8)
        assert_canonical(m)
    m = random_mps(rng, n)
    errs = []
    for policy in (EXACT8, TruncationPolicy(chi_max=3)):
        for lo, hi in ((1, 3), (4, 7), (0, 2), (5, 5), (2, 6)):
            core = documented_core(m, lo, hi, policy.chi_max)
            m, err = apply_layer(m, narrow_layer(rng, n, lo, hi), policy)
            assert_canonical(m)
            assert m.center == core[1]
            errs.append(err)
    assert max(errs[:5]) < 1e-14 < max(errs[5:]), "truncated layers cut nothing"
    m, _ = apply_layer(m, StabMpoLayer(PauliString.from_letters([0] * n), 0.7), EXACT8)
    assert_canonical(m)
    out, _ = compress(m, TruncationPolicy(chi_max=2))
    assert_canonical(out)
    assert out.center == n - 1


@pytest.mark.parametrize("where", ["front", "inside", "behind"])
def test_window_layer_matches_full_chain_and_dense(where):
    rng = np.random.default_rng({"front": 61, "inside": 62, "behind": 63}[where])
    for n in (4, 7, 10):
        policy = TruncationPolicy(chi_max=2**n, svd_cutoff=0.0)
        for _ in range(4):
            lo = int(rng.integers(1, n - 1))
            hi = int(rng.integers(lo, min(lo + 3, n - 1)))
            center = {
                "front": int(rng.integers(0, lo)),
                "inside": int(rng.integers(lo, hi + 1)),
                "behind": int(rng.integers(hi + 1, n)),
            }[where]
            state = random_mps(rng, n).move_center(center)
            layer = narrow_layer(rng, n, lo, hi)
            window, err = apply_layer(state, layer, policy)
            # the same operator padded with identity sites: its window is the chain
            letters = letter_table([layer.gamma], n)[0]
            ops = window_mpo(letters, LAYER_SITES, [layer.phi0, layer.phi1], np.ones(2))
            eye = np.eye(2)[None, :, :, None]
            full, err_full = state.apply_mpo([eye if op is None else op for op in ops], policy)
            want = layer.to_dense() @ state.to_dense()
            centers = [documented_core(state, a, b, 2**n)[1] for a, b in ((lo, hi), (0, n - 1))]
            assert [window.center, full.center] == centers
            assert err == err_full == 0.0
            assert np.max(np.abs(window.to_dense() - full.to_dense())) < 1e-12
            assert np.max(np.abs(window.to_dense() - want)) < 1e-12


def test_local_expect_pauli_matches_dense_at_every_center():
    rng = np.random.default_rng(64)
    for n in (3, 6, 9):
        m = random_mps(rng, n)
        vec = m.to_dense()
        strings = [random_pauli(rng, n) for _ in range(4)]
        strings += [PauliString.single(n, int(rng.integers(n)), 2), PauliString(n, 0, 0)]
        norm = np.vdot(vec, vec).real
        want = [np.vdot(vec, apply_pauli(vec, p, n)).real / norm for p in strings]
        for center in range(n):
            state = m.move_center(center)
            for p, ref in zip(strings, want):
                assert abs(state.expect_pauli(p) - ref) < 1e-12, (n, center, p)


def test_expect_local_matches_expect_pauli_at_every_center():
    rng = np.random.default_rng(65)
    for n in (3, 6, 9):
        m = random_mps(rng, n)
        for center in range(n):
            # unnormalized: the center tensor scaled
            tensors = list(m.move_center(center).tensors)
            tensors[center] = tensors[center] * rng.uniform(0.3, 3.0)
            state = Mps._canonical(tensors, 0.0, center, False)
            letters = rng.integers(4, size=n)
            got = state.expect_local(letters)
            assert got.dtype == np.float64 and got.shape == (n,)
            for j, mu in enumerate(letters):
                want = state.expect_pauli(PauliString.single(n, j, mu))
                assert abs(got[j] - want) < 1e-12, (n, center, j)
    with pytest.raises(ValueError, match="length"):
        m.expect_local([3] * (m.n - 1))
    zero, _ = two_branch(random_mps(rng, 4), 1.0, -1.0, [0] * 4)
    assert zero.is_zero and list(zero.expect_local([3, 1, 2, 0])) == [0.0] * 4


def test_lossy_window_layer_reports_dense_fidelity_loss():
    # the reported discarded weight of one window-local layer is the dense 1 - F;
    # the uncapped state is full at every cut, so the layer drops nothing there,
    # and the state capped at 6 has non-full cuts in the window [2, 5]
    layer = StabMpoLayer(PauliString.from_letters([0, 0, 1, 3, 2, 1, 0, 0]), 0.35)
    policy = TruncationPolicy(chi_max=2**8, svd_cutoff=3e-4)
    for chi, center_after in ((2**8, 3), (6, 5)):
        state = pauli_layers_state(chi)
        for center in (0, 4, 7):
            before = state.move_center(center)
            out, reported = apply_layer(before, layer, policy)
            assert out.center == center_after
            want = layer.to_dense() @ before.to_dense()
            if chi == 2**8:
                assert reported == 0.0
                assert np.max(np.abs(out.to_dense() - want)) < 1e-12
                continue
            f = fidelity(out.to_dense(), want)
            assert reported > 1e-9, "test layer was not actually truncated"
            assert abs((1.0 - f) - reported) <= 1e-8


def test_layer_leaves_the_full_flanks_of_its_window_in_place():
    # every cut is full: a layer on [2, 5] sweeps a core of one or two sites
    # and folds its other sites into bond matrices, so they keep their arrays
    state = pauli_layers_state(2**8)
    assert state.bond_dims == (1, 2, 4, 8, 16, 8, 4, 2, 1)
    layer = StabMpoLayer(PauliString.from_letters([0, 0, 1, 3, 2, 1, 0, 0]), 0.35)
    for center, core in ((2, (2, 3)), (3, (3, 3))):
        before = state.move_center(center)
        assert documented_core(before, 2, 5, 2**8) == core
        out, reported = apply_layer(before, layer, TruncationPolicy(2**8, svd_cutoff=3e-4))
        assert reported == 0.0 and out.center == 3
        assert out.bond_dims == before.bond_dims
        for j in set(range(8)) - set(range(core[0], core[1] + 1)):
            assert out.tensors[j] is before.tensors[j], (center, j)
        want = layer.to_dense() @ before.to_dense()
        assert np.max(np.abs(out.to_dense() - want)) < 1e-12


def test_full_size_cut_above_chi_max_is_still_cut():
    # cut 4 carries 16 = 2^4 > chi_max, so it is not full: it is swept and cut,
    # and the reported weight is the dense 1 - F
    state = pauli_layers_state(2**8)
    layer = StabMpoLayer(PauliString.from_letters([0, 1, 3, 2, 1, 3, 2, 0]), 0.35)
    for center in (0, 4, 7):
        before = state.move_center(center)
        out, reported = apply_layer(before, layer, TruncationPolicy(chi_max=8))
        assert out.center == 4 and out.bond_dims[4] <= 8
        f = fidelity(out.to_dense(), layer.to_dense() @ before.to_dense())
        assert reported > 1e-6, "test layer was not actually truncated"
        assert abs((1.0 - f) - reported) <= 1e-12


# ----------------------------------------------------------------------
# the compression sweep on the three operator kinds of apply_mpo
# ----------------------------------------------------------------------
def full_network(rng, n: int, d: int, chi: int | None = None) -> list:
    """Random raw tensors with bonds min(chi, d^i, d^(n-i)); full at every cut
    when chi is None."""
    bonds = [min(chi or d**n, d**i, d ** (n - i)) for i in range(n + 1)]
    shapes = [(bl, d, br) for bl, br in zip(bonds, bonds[1:])]
    return [rng.normal(size=s) + 1j * rng.normal(size=s) for s in shapes]


def random_chain(rng, n: int, d: int, chi: int) -> Mps:
    """Generic unnormalized state, physical dimension d, bonds min(chi, d^k)."""
    return Mps(full_network(rng, n, d, chi))


def window_operator(rng, kind: str, n: int, lo: int, hi: int) -> list:
    """A capped operator on sites [lo, hi] as the library's callers build it.

    "layer": phi0 I + phi1 P, bond 2 on qubits; "row": a folded layer row,
    bond 4 on the Pauli-coefficient train; "column": a horizontal column,
    bond 4 on the folded auxiliary chain; "brick": a brick-wall sublayer on
    qubits, split two-qubit gates with an idle site between them and a
    one-qubit gate at hi when no pair ends there.
    """
    if kind == "brick":
        ops = [None] * n
        for a in range(lo, hi, 3):
            ops[a], ops[a + 1] = split_two_site([random_unitary(rng, 4)])[0]
        if ops[hi] is None:
            ops[hi] = random_unitary(rng, 2)[None, :, :, None]
        return ops
    letters = rng.integers(4, size=hi - lo + 1)
    phis = random_unitary(rng, 2)[0]
    if kind == "layer":
        sites = [LAYER_SITES[g] for g in letters]
        caps = (phis, np.ones(2))
    elif kind == "row":
        sites = [_FOLDED_ROWS[g] for g in letters]
        caps = (folded_coefficients(*phis), np.ones(4))
    else:
        sites = [_FOLDED_COLUMNS[g] for g in letters]
        top = 2.0 * np.eye(4)[int(rng.integers(4))]
        caps = (computational_pauli_vector(int(rng.integers(2))), top)
    return [None] * lo + cap_mpo(sites, *caps) + [None] * (n - 1 - hi)


def dense_apply(ops, state: Mps) -> np.ndarray:
    """The operator chain applied to the dense vector, one site at a time."""
    x = state.to_dense(cap=16).reshape(1, *state.phys_dims)  # (bond, sites...)
    for op, d in zip(ops, state.phys_dims):
        op = np.eye(d)[None, :, :, None] if op is None else op
        x = np.moveaxis(np.tensordot(op, x, axes=([0, 2], [0, 1])), 0, -1)
    return x.reshape(-1)


def dense_ranks(vec: np.ndarray, d: int, n: int) -> list[int]:
    """Rank of each matricization at 1e-12 relative weight; entry b is bond b."""
    ranks = [1]
    for cut in range(1, n):
        w = np.linalg.svd(vec.reshape(d**cut, -1), compute_uv=False) ** 2
        ranks.append(int(np.count_nonzero(w >= 1e-12 * np.sum(w))))
    return ranks + [1]


@pytest.mark.parametrize("kind", ["layer", "row", "column", "brick"])
def test_sweep_matches_dense_at_every_window_and_center(kind):
    # every window [lo, hi] from every center:
    # absorbed tails (unit sites), Gram-environment regions, unit sites inside
    # them and tall splits all occur; full cuts at both ends (every cut for
    # d = 2, cuts 1 and n - 1 for d = 4) leave flanks outside the swept core,
    # and the operator padded with identity sites gives the same state
    rng = np.random.default_rng({"layer": 91, "row": 92, "column": 93, "brick": 94}[kind])
    n, d = 7, 2 if kind in ("layer", "brick") else 4
    base = random_chain(rng, n, d, chi=8 if d == 2 else 6)
    exact = TruncationPolicy(chi_max=d**n)
    free = TruncationPolicy(chi_max=d**n, svd_cutoff=0.0)
    ref = np.linalg.norm(base.to_dense(14))
    for lo in range(n):
        for hi in range(lo, n):
            want = np.zeros(1)
            while np.linalg.norm(want) < 1e-9 * ref:  # a column can annihilate it
                ops = window_operator(rng, kind, n, lo, hi)
                want = dense_apply(ops, base)
            scale = np.linalg.norm(want)
            ranks = dense_ranks(want, d, n)
            op_bonds = [1] + [1 if op is None else op.shape[0] for op in ops[1:]] + [1]
            swept = range(lo + 1, hi + 1)
            for center in range(n):
                state = base.move_center(center)
                merged = [a * b for a, b in zip(state.bond_dims, op_bonds)]
                out, err = state.apply_mpo(ops, exact)
                assert err < 1e-12
                assert np.linalg.norm(out.to_dense(14) - want) <= 1e-12 * scale
                assert [out.bond_dims[b] for b in swept] == [ranks[b] for b in swept]
                out, err = state.apply_mpo(ops, free)
                assert np.linalg.norm(out.to_dense(14) - want) <= 1e-12 * scale
                eye = np.eye(d)[None, :, :, None]
                padded, _ = state.apply_mpo([eye if op is None else op for op in ops], free)
                assert np.linalg.norm(padded.to_dense(14) - out.to_dense(14)) <= 1e-12 * scale
                for b in swept:
                    assert out.bond_dims[b] <= min(out.bond_dims[b - 1] * d, merged[b])
                for chi in (2, 3):
                    out, err = state.apply_mpo(ops, TruncationPolicy(chi_max=chi))
                    assert all(out.bond_dims[b] <= chi for b in swept)
                    assert err >= 1.0 - fidelity(out.to_dense(14), want) - 1e-12


# ----------------------------------------------------------------------
# the identity gauge of full regions and the operator-only flank fold
# ----------------------------------------------------------------------
def is_delta(t: np.ndarray, side: str) -> bool:
    """t is exactly the identity gauge: δ(l·d + s, r) left, δ(l, r·d + s) right."""
    dl, d, dr = t.shape
    if side == "left":
        return dl * d == dr and np.array_equal(t.reshape(dr, dr), np.eye(dr))
    return d * dr == dl and np.array_equal(t.transpose(0, 2, 1).reshape(dl, dl), np.eye(dl))


def assert_identity_gauge(m: Mps) -> None:
    """Every square site on the isometric side of the center is exactly δ."""
    for j, (dl, d, dr) in enumerate(t.shape for t in m.tensors):
        if j < m.center and dl * d == dr:
            assert is_delta(m.tensors[j], "left"), j
        if j > m.center and d * dr == dl:
            assert is_delta(m.tensors[j], "right"), j


def hand_canonical(tensors: list, center: int) -> list:
    """The network canonical at ``center`` by numpy QR alone, so its square
    isometric sites are random unitaries, not the identity gauge."""
    ts, n = list(tensors), len(tensors)
    for i in range(center):
        q, r = np.linalg.qr(ts[i].reshape(-1, ts[i].shape[2]))
        ts[i], ts[i + 1] = q.reshape(ts[i].shape), np.tensordot(r, ts[i + 1], axes=(1, 0))
    for i in range(n - 1, center, -1):
        q, r = np.linalg.qr(ts[i].reshape(ts[i].shape[0], -1).T)
        ts[i], ts[i - 1] = q.T.reshape(ts[i].shape), np.tensordot(ts[i - 1], r.T, axes=(2, 0))
    return ts


@pytest.mark.parametrize("kind", ["layer", "row", "column", "brick"])
def test_hand_canonical_networks_enter_in_the_identity_gauge(kind):
    # a network made canonical at any center by numpy QR alone has random
    # unitaries for its square sites; Mps(tensors) re-gauges them to δ without
    # moving the state, and windows from every center then match dense
    rng = np.random.default_rng({"layer": 101, "row": 102, "column": 103, "brick": 104}[kind])
    n, d = 8, 2 if kind in ("layer", "brick") else 4
    tensors = full_network(rng, n, d)
    want = network_dense(tensors)
    ref = np.linalg.norm(want)
    for center in range(n):
        hand = hand_canonical(tensors, center)
        sides = {j: "left" if j < center else "right" for j in range(n) if j != center}
        assert not any(is_delta(hand[j], side) for j, side in sides.items())
        m = Mps(hand)
        assert m.center == 0
        assert_canonical(m)
        assert np.linalg.norm(m.to_dense(16) - want) <= 1e-13 * ref
    exact = TruncationPolicy(chi_max=d**n)
    for lo, hi in ((0, n - 1), (1, 6), (2, 2), (5, 7), (0, 3), (3, 4)):
        want = np.zeros(1)
        while np.linalg.norm(want) < 1e-9 * ref:  # a column can annihilate it
            ops = window_operator(rng, kind, n, lo, hi)
            want = dense_apply(ops, m)
        for center in range(n):
            out, err = m.move_center(center).apply_mpo(ops, exact)
            assert err < 1e-12
            assert_canonical(out)
            assert np.linalg.norm(out.to_dense(16) - want) <= 1e-12 * np.linalg.norm(want)


def square_isometric(state: Mps, site: int) -> bool:
    """``site`` is an isometric site (not the center) with a square matrix."""
    dl, d, dr = state.tensors[site].shape
    if site == state.center:
        return False
    return dl * d == dr if site < state.center else dl == d * dr


def test_one_qubit_gates_keep_the_identity_gauge():
    # a one-qubit gate on a square isometric (δ) site is a bond-1 window: the
    # center ends at the site; on the center or a non-square site it is
    # applied in place and the center stays.  From every center, at every
    # site of a state full at every cut, the identity gauge holds and the
    # state is the dense gate applied
    rng = np.random.default_rng(110)
    n = 8
    state = Mps(full_network(rng, n, 2))
    for center in range(n):
        before = state.move_center(center)
        for site in range(n):
            ops = [None] * n
            ops[site] = random_unitary(rng, 2)[None, :, :, None]
            out = before.apply_1q_gate(ops[site][0, :, :, 0], site)
            assert out.center == (site if square_isometric(before, site) else center)
            assert_canonical(out)
            want = dense_apply(ops, before)
            assert np.linalg.norm(out.to_dense(16) - want) <= 1e-12 * np.linalg.norm(want)


def test_one_qubit_gate_on_a_non_square_site_stays_in_place():
    # bonds capped at 4: sites 2-5 are non-square wherever the center is, so a
    # gate there leaves the center and every other tensor (the same arrays)
    # where they were, and the site stays isometric
    rng = np.random.default_rng(111)
    n = 8
    state = Mps(full_network(rng, n, 2, chi=4))
    for center in range(n):
        before = state.move_center(center)
        for site in range(n):
            u = random_unitary(rng, 2)
            ops = [None] * n
            ops[site] = u[None, :, :, None]
            out = before.apply_1q_gate(u, site)
            assert_canonical(out)
            want = dense_apply(ops, before)
            assert np.linalg.norm(out.to_dense(16) - want) <= 1e-12 * np.linalg.norm(want)
            if square_isometric(before, site):
                assert out.center == site and site in (0, 1, 6, 7)
                continue
            assert out.center == center and out.log_norm == before.log_norm
            assert all(out.tensors[j] is before.tensors[j] for j in range(n) if j != site)


@pytest.mark.parametrize("kind", ["layer", "row", "column"])
def test_identity_gauge_is_an_invariant(kind):
    # every square isometric site is exactly δ after Mps(tensors), center moves
    # both ways and apply_mpo, and no gauge step moves the state
    rng = np.random.default_rng({"layer": 105, "row": 106, "column": 107}[kind])
    n, d = 8, 2 if kind == "layer" else 4
    tensors = full_network(rng, n, d)
    m = Mps(tensors)
    want = network_dense(tensors)
    ref = np.linalg.norm(want)
    assert m.center == 0
    assert_identity_gauge(m)
    assert np.linalg.norm(m.to_dense(16) - want) <= 1e-13 * ref
    for target in (n - 1, 2, 5, 0, 3):
        m = m.move_center(target)
        assert m.center == target
        assert_identity_gauge(m)
        assert np.linalg.norm(m.to_dense(16) - want) <= 1e-13 * ref
    exact = TruncationPolicy(chi_max=d**n)
    for lo, hi in ((0, n - 1), (1, 6), (2, 2), (5, 7), (0, 3)):
        ops = window_operator(rng, kind, n, lo, hi)
        want = dense_apply(ops, m)
        m, _ = m.apply_mpo(ops, exact)
        assert_identity_gauge(m)
        assert np.linalg.norm(m.to_dense(16) - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("kind", ["layer", "brick"])
def test_one_site_core_and_idle_boundary_core_site_match_dense(kind):
    # full at every cut, the window [1, 6] sweeps the one-site core [3, 3]
    # with both flanks; with bonds capped at 8 (full cuts 1-3 and 5-7), the
    # window [1, 7] from a center >= 3 sweeps [3, 4]; a brick window puts its
    # idle sites at 3 and 6, so site 3 is an idle boundary site of both cores
    rng = np.random.default_rng({"layer": 108, "brick": 109}[kind])
    exact = TruncationPolicy(chi_max=2**8)
    for chi, (lo, hi), core in ((None, (1, 6), (3, 3)), (8, (1, 7), (3, 4))):
        state = Mps(full_network(rng, 8, 2, chi))
        ops = window_operator(rng, kind, 8, lo, hi)
        if kind == "brick":
            assert ops[3] is None
        want = dense_apply(ops, state)
        for center in range(3, 8):
            before = state.move_center(center)
            assert documented_core(before, lo, hi, exact.chi_max) == core
            out, err = before.apply_mpo(ops, exact)
            assert err < 1e-12 and out.center == core[1]
            assert_identity_gauge(out)
            assert np.linalg.norm(out.to_dense(16) - want) <= 1e-12 * np.linalg.norm(want)


# ----------------------------------------------------------------------
# the Pauli fold: a layer's full-cut flanks as signed permutations
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bond", [1, 2, 4])
def test_pauli_flank_gather_is_the_dense_flank_fold(bond):
    # every letter string of up to three flank sites, on an outer bond of 1, 2
    # or 4 above the flank's digits, then the core site (X): apply_rotation's
    # gather against apply_mpo's fold of the dense window, for a left flank
    # and, on the mirrored chain, a right flank
    rng = np.random.default_rng(120 + bond)
    outer = bond.bit_length() - 1  # full sites beyond the flank
    for k in (1, 2, 3):
        n, chi = 2 * (outer + k) + 2, 2 ** (outer + k)
        state = Mps(full_network(rng, n, 2, chi))  # center 0, then unit norm, so
        head = state.tensors[0] / np.linalg.norm(state.tensors[0])  # log_norm's ulp is small
        state = Mps([head] + state.tensors[1:])
        for flank in product(range(4), repeat=k):
            phis = random_unitary(rng, 2)[0]
            left = np.array([0] * outer + list(flank) + [1] + [0] * (n - outer - k - 1))
            sides = (left, n - 1, outer + k), (left[::-1], 0, n - 1 - outer - k)
            for letters, center, core in sides:
                before = state.move_center(center)
                got, err = before.apply_rotation(letters, phis, EXACT8)
                ops = window_mpo(letters, LAYER_SITES, phis, np.ones(2))
                dense, _ = before.apply_mpo(ops, EXACT8)
                assert err == 0.0 and got.center == dense.center == core
                want = dense.to_dense()
                assert np.linalg.norm(got.to_dense() - want) <= 1e-15 * np.linalg.norm(want), letters


def test_apply_rotation_rejects_bad_letters():
    # a letter outside 0-3 would read the bit tables at a wrong or negative
    # index and apply some other string
    state, phis = Mps.product_state([0, 1, 0]), (0.6, -0.8j)
    for letters in ([1, 2], [1, 2, 3, 0], [0, -1, 0], [0, 4, 0], [0.0, 1.0, 0.0], [[1, 2, 3]]):
        with pytest.raises(ValueError, match="letter"):
            state.apply_rotation(letters, phis, EXACT8)


# (bond cap of the state, window, centers, core): every core shape that a
# rotation meets on n = 10, with the bonds at lo and hi + 1 above 1
PAULI_FOLDS = {
    "both-one-site": (None, (2, 7), range(4, 10), (4, 4)),
    "both-two-site": (16, (2, 7), range(5, 10), (4, 5)),
    "left-one-site": (16, (2, 4), range(4, 10), (4, 4)),
    "left-two-site": (16, (2, 5), range(5, 10), (4, 5)),
    "right-one-site": (16, (5, 7), range(0, 6), (5, 5)),
    "right-two-site": (16, (4, 7), range(0, 5), (4, 5)),
    "no-flank-one-site": (16, (4, 4), range(0, 10), (4, 4)),
    "no-flank-three-site": (8, (3, 5), range(0, 10), (3, 5)),
    "both-four-site": (8, (2, 7), range(6, 10), (3, 6)),
}


@pytest.mark.parametrize("case", PAULI_FOLDS)
def test_pauli_layer_fold_matches_the_dense_fold(case):
    # a layer places each core site by gathers (apply_layer); the same window
    # as a plain operator is merged and folds its flanks through F
    # (apply_mpo).  Every
    # window has X, Y and Z at every site and random strings; the two states
    # agree to rounding and match the dense layer
    rng = np.random.default_rng(list(PAULI_FOLDS).index(case) + 130)
    chi, (lo, hi), centers, core = PAULI_FOLDS[case]
    n, exact = 10, TruncationPolicy(chi_max=2**10)
    state = Mps(full_network(rng, n, 2, chi))
    assert state.bond_dims[lo] > 1 and state.bond_dims[hi + 1] > 1
    pad = [0] * lo, [0] * (n - 1 - hi)
    layers = [
        StabMpoLayer(PauliString.from_letters(pad[0] + [g] * (hi - lo + 1) + pad[1]), 0.7)
        for g in (1, 2, 3)
    ]
    layers += [narrow_layer(rng, n, lo, hi) for _ in range(6)]
    wants = [layer.to_dense(16) @ state.to_dense(16) for layer in layers]
    for center in centers:
        before = state.move_center(center)
        assert documented_core(before, lo, hi, exact.chi_max) == core
        for layer, exact_vec in zip(layers, wants):
            letters = letter_table([layer.gamma], n)[0]
            ops = window_mpo(letters, LAYER_SITES, [layer.phi0, layer.phi1], np.ones(2))
            dense, _ = before.apply_mpo(ops, exact)
            got, err = apply_layer(before, layer, exact)
            assert err == 0.0 and got.center == dense.center == core[1]
            assert_identity_gauge(got)
            want = dense.to_dense(16)
            scale = np.linalg.norm(want)
            assert np.linalg.norm(got.to_dense(16) - want) <= 1e-15 * scale, (center, layer)
            assert np.linalg.norm(got.to_dense(16) - exact_vec) <= 1e-12 * scale


def test_from_site_vectors_moves_the_scale_into_log_norm():
    rng = np.random.default_rng(95)
    vectors = [rng.normal(size=d) + 1j * rng.normal(size=d) for d in (2, 4, 3, 4)]
    m = Mps.from_site_vectors(vectors)
    want = np.ones(1)
    for v in vectors:
        want = np.kron(want, v)
    assert np.linalg.norm(m.to_dense() - want) <= 1e-14 * np.linalg.norm(want)
    assert raw_norm(m) == pytest.approx(1.0, abs=1e-14)
    assert not m.is_zero
    vectors[2] = np.zeros(3)
    assert Mps.from_site_vectors(vectors).is_zero


def test_tiny_state_survives_a_window_and_scalar_steps():
    # 40 sites of norm 0.25: norm 2**-80, far below the zero threshold, which
    # applies to the unit-norm network and so is relative to the state's norm
    rng = np.random.default_rng(96)
    vectors = rng.normal(size=(40, 2)) + 1j * rng.normal(size=(40, 2))
    state = Mps.from_site_vectors(0.25 * v / np.linalg.norm(v) for v in vectors)
    out, err = state.apply_mpo(window_operator(rng, "layer", 40, 10, 14), EXACT8)
    assert not out.is_zero and err < 1e-14
    assert raw_norm(out) == pytest.approx(1.0, abs=1e-12)
    assert norm(out) == pytest.approx(2.0**-80, rel=1e-12)
    scaled, err = out.apply_mpo(0.5j, EXACT8)
    assert err == 0.0 and not scaled.is_zero
    assert raw_norm(scaled) == pytest.approx(1.0, abs=1e-12)
    zeros = Mps.product_state([0] * 40)
    assert inner(zeros, scaled) == pytest.approx(0.5j * inner(zeros, out), rel=1e-12)
    gone, _ = out.apply_mpo(1e-13, EXACT8)
    assert gone.is_zero and norm(gone) < 1e-12 * norm(out)  # flagged, not rescaled


def test_sweep_zero_and_renormalized_states():
    rng = np.random.default_rng(94)
    n = 7
    state = random_chain(rng, n, 2, chi=8).move_center(3)
    # I - I on sites 2..4: the zero vector, flagged and not rescaled
    cancel = cap_mpo([diagonal_mpo((SIGMA[0], SIGMA[0]))] * 3, [1.0, -1.0], np.ones(2))
    zero, err = state.apply_mpo([None] * 2 + cancel + [None] * 2, EXACT8)
    assert zero.is_zero and err == 0.0
    assert raw_norm(zero) < 1e-12
    assert all(np.all(np.isfinite(t)) for t in zero.tensors)
    ops = window_operator(rng, "layer", n, 1, 5)
    want = dense_apply(ops, state)
    norm2 = np.vdot(want, want).real
    for chi in (2**n, 2):
        out, err = state.apply_mpo(ops, TruncationPolicy(chi))
        got = out.to_dense()
        assert raw_norm(out) == pytest.approx(1.0, abs=1e-12)
        assert norm2 * (1.0 - err - 1e-12) <= norm(out) ** 2 <= norm2 * (1.0 + 1e-12)
        assert err >= 1.0 - fidelity(got, want) - 1e-12
        if chi == 2**n:
            assert np.linalg.norm(got - want) <= 1e-12 * np.sqrt(norm2)
        else:
            assert err > 1e-6, "the chi=2 sweep cut nothing"


def test_summed_amplitude_bounds_final_fidelity_loss():
    # each layer's summed weight eps_k bounds that layer's 1 - F, and unitary
    # layers keep angles, so the final 1 - F <= (sum_k sqrt(eps_k))^2; the
    # plain sum of eps_k need not bound it
    n, worst = 10, 0.0
    for chi in (2, 4):
        for seed in range(40):
            rng = np.random.default_rng([seed, n, chi])
            layers = compile_blocks(n, sample_tdoped_blocks(n, 12, 1, rng)).layers
            exact = lossy = Mps.product_state([0] * n)
            amplitude = 0.0
            for layer in layers:
                exact, _ = apply_layer(exact, layer, TruncationPolicy(2 ** (n // 2)))
                lossy, err = apply_layer(lossy, layer, TruncationPolicy(chi))
                amplitude += np.sqrt(err)
            overlap = abs(inner(lossy, exact)) ** 2
            loss = 1.0 - overlap / (inner(lossy, lossy).real * inner(exact, exact).real)
            assert loss <= amplitude**2 + 1e-12, (chi, seed)
            worst = max(worst, loss / max(amplitude**2, 1e-300))
    assert worst > 0.5, "no run came near the bound"


def test_truncated_floquet_run_obeys_the_amplitude_bound():
    # at n=10, chi=8 the outer cuts are full flanks that no layer sweeps and the
    # middle cuts are cut at the cap; the swept cuts' weights still bound 1 - F
    n = 10
    layers = compile_blocks(n, sample_floquet_blocks(n, 0.1, 4, np.random.default_rng(7))).layers
    state, vec, amplitude = Mps.product_state([0] * n), basis_state([0] * n), 0.0
    for layer in layers:
        state, err = apply_layer(state, layer, TruncationPolicy(chi_max=8))
        vec = layer.phi0 * vec + layer.phi1 * apply_pauli(vec, layer.letters, n)
        amplitude += np.sqrt(err)
    assert amplitude > 1e-3, "the run was not truncated"
    assert 1.0 - fidelity(state.to_dense(), vec) <= amplitude**2 + 1e-12


# ----------------------------------------------------------------------
# the truncation rule: a multiplet is kept or dropped whole
# ----------------------------------------------------------------------
def test_truncation_keeps_or_drops_a_multiplet_whole():
    w = np.array([0.4, 0.2, 0.2, 0.1 + 1e-13, 0.1])
    assert _truncate_spectrum(w, TruncationPolicy(chi_max=4)) == (3, pytest.approx(0.2))
    assert _truncate_spectrum(w, TruncationPolicy(chi_max=2))[0] == 1
    assert _truncate_spectrum(w, TruncationPolicy(chi_max=3))[0] == 3


def test_flat_spectrum_wider_than_chi_is_cut_at_chi_with_exact_weight():
    k, err = _truncate_spectrum(np.full(10, 0.1), TruncationPolicy(chi_max=4))
    assert k == 4 and abs(err - 0.6) < 1e-15
    rng = np.random.default_rng(36)
    u, v = random_unitary(rng, 8), random_unitary(rng, 8)
    vec = (u @ v.T).reshape(-1) / np.sqrt(8)  # eight Schmidt weights 1/8 at cut 3
    out, err = compress(dense_to_mps(vec, 6), TruncationPolicy(chi_max=4))
    assert out.bond_dims[3] == 4 and abs(err - 0.5) < 1e-14
    assert abs(1.0 - fidelity(out.to_dense(), vec) - err) < 1e-14


def final_layer_entropy(blocks, scale: float, chi: int) -> float:
    """Half-cut entropy after layer evolution of ``blocks``, every angle scaled."""
    n = blocks[0][0].n
    blocks = [(c, RotationGate(r.site, r.axis, r.theta * scale)) for c, r in blocks]
    state = Mps.product_state([0] * n)
    for layer in compile_blocks(n, blocks).layers:
        state, _ = apply_layer(state, layer, TruncationPolicy(chi_max=chi))
    return state.entanglement_entropy(n // 2)


@pytest.mark.parametrize("seed", range(3))
def test_truncated_run_is_insensitive_to_angle_rounding(seed):
    # a cut inside a degenerate multiplet would let rounding pick the kept
    # vectors; whole multiplets make a 1e-14 change of every angle invisible
    blocks = sample_tdoped_blocks(48, 30, 1, np.random.default_rng([51, seed]))
    ref = final_layer_entropy(blocks, 1.0, 8)
    assert ref > 1.0, "the run is not entangled"
    assert abs(final_layer_entropy(blocks, 1.0 + 1e-14, 8) - ref) <= 1e-10


# ----------------------------------------------------------------------
# the certified split: eigh only where the policy cuts
# ----------------------------------------------------------------------
def dense_to_mps(vec: np.ndarray, n: int) -> Mps:
    """Qubit chain of a dense vector by exact SVDs (every bond min(2^i, 2^(n-i)))."""
    tensors, rest = [], vec.reshape(1, -1)
    for _ in range(n - 1):
        bl = rest.shape[0]
        u, s, vh = np.linalg.svd(rest.reshape(bl * 2, -1), full_matrices=False)
        tensors.append(u.reshape(bl, 2, -1))
        rest = s[:, None] * vh
    return Mps(tensors + [rest.reshape(-1, 2, 1)])


def schmidt_state(rng, tail) -> tuple[Mps, np.ndarray]:
    """Six qubits whose eight Schmidt weights at cut 3 end in ``tail`` (relative)."""
    head = np.array([0.3, 0.25, 0.2, 0.1, 0.08, 0.05, 0.02, 1e-3][: 8 - len(tail)])
    w = np.concatenate([head * (1.0 - sum(tail)) / head.sum(), tail])
    u = random_unitary(rng, 8)
    v = random_unitary(rng, 8)
    vec = (u * np.sqrt(w)) @ v.T
    return dense_to_mps(vec.reshape(-1), 6), w


def dense_cut_weights(vec: np.ndarray, cut: int) -> np.ndarray:
    s = np.linalg.svd(vec.reshape(2**cut, -1), compute_uv=False)
    return s**2


@pytest.fixture
def eigh_sizes(monkeypatch):
    """The size of every matrix handed to np.linalg.eigh."""
    sizes, eigh = [], np.linalg.eigh

    def counted(a, *args, **kwargs):
        sizes.append(len(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return sizes


def test_certified_split_cuts_exactly_where_the_eigen_split_cuts(eigh_sizes):
    rng = np.random.default_rng(95)
    policy = TruncationPolicy(chi_max=64)
    for tail, cut_eighs in (((3e-12, 5e-13), [8]), ((3e-12, 2e-12), [])):
        state, w = schmidt_state(rng, np.array(tail))
        vec = state.to_dense()
        eigh_sizes.clear()
        out, err = compress(state, policy)
        assert eigh_sizes == cut_eighs, tail
        assert out.bond_dims[3] == _truncate_spectrum(w, policy)[0]
        for cut in (1, 2, 4, 5):  # generic spectra, nothing below the cutoff
            k, _ = _truncate_spectrum(dense_cut_weights(vec, cut), policy)
            assert out.bond_dims[cut] == k == min(2**cut, 2 ** (6 - cut))
        if cut_eighs:
            assert out.bond_dims[3] == 7
            assert abs(err - w[-1]) < 1e-15
            assert 1.0 - fidelity(out.to_dense(), vec) <= err + 1e-15
        else:
            assert out.bond_dims[3] == 8 and err == 0.0
            assert np.linalg.norm(out.to_dense() - vec) < 1e-12
            assert_canonical(out)
            # the kept sites are the identity (wide or square T) and Q (tall T)
            for i in range(3):
                size = 2 ** (i + 1)
                assert np.array_equal(out.tensors[i].reshape(size, -1), np.eye(size))


def test_split_that_eigh_keeps_whole_is_the_gauge_step(eigh_sizes, monkeypatch):
    # the certificate only saves the eigh: where it fails but eigh keeps every
    # weight (a weight within rounding of svd_cutoff), the split writes the same
    # shared identity (Q) and carry, so the state is bit for bit the certified one
    rng = np.random.default_rng(99)
    n = 7
    state = random_chain(rng, n, 2, chi=6).move_center(3)
    ops = window_operator(rng, "layer", n, 1, 5)
    eigh_sizes.clear()
    certified = [compress(state, EXACT8), state.apply_mpo(ops, EXACT8)]
    assert eigh_sizes == []  # every split keeps every weight
    monkeypatch.setattr(mps_module, "_keeps_every_weight", lambda rho, policy: False)
    eigh_sizes.clear()
    for (want, want_err), (out, err) in zip(
        certified, [compress(state, EXACT8), state.apply_mpo(ops, EXACT8)]
    ):
        assert err == want_err == 0.0
        assert out.bond_dims == want.bond_dims and out.log_norm == want.log_norm
        assert all(np.array_equal(a, b) for a, b in zip(out.tensors, want.tensors))
        assert_canonical(out)
    assert len(eigh_sizes) == 8  # 6 splits in the compression, 2 in the core [2, 4]


def test_split_above_chi_max_always_goes_to_eigh(eigh_sizes):
    # the spectrum at every cut is far above the cutoff, so only chi_max cuts
    rng = np.random.default_rng(96)
    state, _ = schmidt_state(rng, np.array([]))
    for chi, cuts in ((8, []), (4, [8]), (2, [4, 4, 4])):
        eigh_sizes.clear()
        out, err = compress(state, TruncationPolicy(chi_max=chi))
        assert eigh_sizes == cuts, chi
        assert out.max_bond == chi and (err > 1e-3) == bool(cuts)
        assert_canonical(out)


def test_zero_cutoff_keeps_zero_weights_without_eigh(eigh_sizes):
    rng = np.random.default_rng(97)
    state, _ = schmidt_state(rng, np.array([0.0] * 6))  # Schmidt rank 2 at cut 3
    assert state.bond_dims == (1, 2, 4, 8, 4, 2, 1)
    out, err = compress(state, TruncationPolicy(chi_max=64, svd_cutoff=0.0))
    assert eigh_sizes == [] and err == 0.0
    assert out.bond_dims == state.bond_dims
    assert np.linalg.norm(out.to_dense() - state.to_dense()) < 1e-12
    assert_canonical(out)
    out, err = compress(state, TruncationPolicy(chi_max=64))
    assert out.bond_dims[3] == 2 and eigh_sizes
    assert np.linalg.norm(out.to_dense() - state.to_dense()) < 1e-12


# ----------------------------------------------------------------------
# the full-size rule: a cut that a step leaves full keeps every weight above
# the floor min(FULL_CUT_FLOOR, svd_cutoff)
# ----------------------------------------------------------------------
def tiny_step(rng) -> tuple[Mps, StabMpoLayer, float]:
    """Six qubits of Schmidt rank 7 at cut 3 (bond 7, below its full size 8),
    a layer of angle 1e-6 that makes the cut full, and the eighth weight that
    the layer adds there (relative, from the dense SVD)."""
    state, _ = schmidt_state(rng, np.array([0.0]))
    state, _ = compress(state, TruncationPolicy(chi_max=64))
    assert state.bond_dims == (1, 2, 4, 7, 4, 2, 1)
    layer = StabMpoLayer(PauliString.from_literal("XYZXYZ"), 1e-6)
    w = dense_cut_weights(layer.to_dense() @ state.to_dense(), 3)
    return state, layer, w[-1] / np.sum(w)


def test_step_that_fills_a_cut_keeps_its_tail_above_the_floor(eigh_sizes):
    rng = np.random.default_rng(101)
    state, layer, tail = tiny_step(rng)
    assert 1e-15 < tail < 1e-13  # below svd_cutoff, above the floor
    for center in range(6):
        before = state.move_center(center)
        eigh_sizes.clear()
        out, reported = apply_layer(before, layer, TruncationPolicy(chi_max=64))
        assert out.bond_dims == (1, 2, 4, 8, 4, 2, 1) and reported == 0.0, center
        assert 8 not in eigh_sizes  # certified at the floor
        want = layer.to_dense() @ before.to_dense()
        assert np.max(np.abs(out.to_dense() - want)) < 1e-12
        assert_canonical(out)


def test_full_size_cut_gets_one_bond_whether_full_before_or_during_a_step():
    # the same state tiny^2 |psi>: from a network full at cut 3, whose step
    # folds that cut, and from the rank-7 state, where the first step fills it
    rng = np.random.default_rng(102)
    state, layer, _ = tiny_step(rng)
    policy = TruncationPolicy(chi_max=64)
    full = dense_to_mps(layer.to_dense() @ state.to_dense(), 6)
    assert full.bond_dims == (1, 2, 4, 8, 4, 2, 1)
    folded, folded_err = apply_layer(full, layer, policy)
    filled, errs = state, []
    for _ in range(2):
        filled, err = apply_layer(filled, layer, policy)
        errs.append(err)
    assert filled.bond_dims == folded.bond_dims == full.bond_dims
    assert errs == [0.0, 0.0] and folded_err == 0.0
    assert np.max(np.abs(filled.to_dense() - folded.to_dense())) < 1e-12


def test_step_bonds_equal_the_dense_schmidt_rank(monkeypatch):
    # generic Pauli layers leave exact zeros at cuts of full-size rho: the
    # floor's certificate fails there and the cutoff cuts them
    floor_checks = []

    def counted(rho, policy, keeps=mps_module._keeps_every_weight):
        kept = keeps(rho, policy)
        if policy.svd_cutoff == mps_module.FULL_CUT_FLOOR:
            floor_checks.append(kept)
        return kept

    monkeypatch.setattr(mps_module, "_keeps_every_weight", counted)
    rng = np.random.default_rng(104)
    n = 6
    for _ in range(4):
        state = Mps.product_state([0] * n)
        for _ in range(4):
            gamma = PauliString.from_letters([int(rng.integers(4)) for _ in range(n)])
            before = state.move_center(int(rng.integers(n)))
            state, _ = apply_layer(before, StabMpoLayer(gamma, 0.35), TruncationPolicy(64))
            assert list(state.bond_dims) == dense_ranks(state.to_dense(), 2, n)
    assert False in floor_checks, "no full-size split held an exact zero"


def test_compress_cuts_a_full_size_cut_at_svd_cutoff():
    # criterion 8's sweep takes no floor: the tail that a step keeps is cut
    rng = np.random.default_rng(102)
    state, layer, tail = tiny_step(rng)
    full = dense_to_mps(layer.to_dense() @ state.to_dense(), 6)
    out, err = compress(full, TruncationPolicy(chi_max=64))
    assert out.bond_dims == (1, 2, 4, 7, 4, 2, 1)
    assert abs(err - tail) < 1e-16


class ReadSites(list):
    """A site list that records each index read."""

    def __init__(self, sites):
        super().__init__(sites)
        self.read = []

    def __getitem__(self, j):
        self.read.append(j)
        return super().__getitem__(j)


@pytest.mark.parametrize("n", [1, 2, 5, 9, 1024])
def test_full_size_is_the_smaller_side_capped_past_chi_max(n):
    rng = np.random.default_rng([106, n])
    for _ in range(3):
        dims = [int(d) for d in rng.choice([2, 4], size=n)]
        left = [1]
        for d in dims:
            left.append(left[-1] * d)  # exact: Python ints
        for chi_max in (1, 3, 4, 16, 63, 64, 1000):
            sites = ReadSites(np.zeros((1, d, 1)) for d in dims)
            for cut in range(n + 1):
                brute = min(left[cut], left[n] // left[cut], chi_max + 1)
                assert mps_module._full_size(sites, cut, chi_max) == brute, (dims, cut)
            # each product stops past chi_max: at most log2(chi_max) + 1 sites a side
            assert len(sites.read) <= (n + 1) * 2 * (chi_max.bit_length() + 1)


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


def test_schmidt_spectrum_rejects_cut_outside_chain():
    m = random_mps(np.random.default_rng(49), 5)
    for cut in (-1, 6, 10):
        with pytest.raises(ValueError, match="cut"):
            m.schmidt_spectrum(cut)
        with pytest.raises(ValueError, match="cut"):
            m.entanglement_entropy(cut)
    for cut in (0, 5):  # the trivial ends
        assert m.schmidt_spectrum(cut) is None
        assert m.entanglement_entropy(cut) == 0.0


def svd_spectrum(m: Mps, cut: int) -> np.ndarray:
    """Normalized squared singular values of the bond matrix at the moved center."""
    t = m.move_center(cut - 1).tensors[cut - 1]
    s = np.linalg.svd(t.reshape(-1, t.shape[2]), compute_uv=False)
    return s**2 / np.sum(s**2)


def test_gram_spectrum_matches_svd_at_every_center_and_cut():
    rng = np.random.default_rng(50)
    n = 7
    exact = random_mps(rng, n)
    lossy, err = compress(exact, TruncationPolicy(chi_max=3))
    assert err > 1e-6 and norm(lossy) < 1.0 - 1e-6, "state was not truncated"
    assert lossy.log_norm != 0.0 and raw_norm(lossy) == pytest.approx(1.0, abs=1e-12)
    scaled = Mps([2.0 * t for t in lossy.tensors], lossy.log_norm)  # a network of norm 2**n
    for state in (exact, lossy, scaled):
        vec = state.to_dense()
        for center in range(n):
            m = state.move_center(center)
            for cut in range(1, n):
                got, want = m.schmidt_spectrum(cut), svd_spectrum(m, cut)
                size = max(len(got), len(want))
                got, want = (np.pad(v, (0, size - len(v))) for v in (got, want))
                assert np.max(np.abs(got - want)) < 1e-12, (center, cut)
                assert abs(np.sum(got) - 1.0) < 1e-12
                assert abs(
                    m.entanglement_entropy(cut) - dense_entropy_bits(vec, cut, n)
                ) < 1e-10


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


def test_numerator_only_expect_pauli_on_unnormalized_state():
    rng = np.random.default_rng(51)
    n = 8
    lossy = TruncationPolicy(chi_max=4, svd_cutoff=1e-3)
    state = Mps.product_state([0] * n)
    for _ in range(8):
        gamma = PauliString.from_letters([int(rng.integers(4)) for _ in range(n)])
        state, _ = apply_layer(state, StabMpoLayer(gamma, 0.35), lossy)
    assert norm(state) < 1.0 - 1e-6, "state was not truncated"
    vec = state.to_dense()
    strings = [random_pauli(rng, n) for _ in range(6)] + [PauliString(n, 0, 0)]
    free = Mps(state.tensors)
    for center in (0, 4, 7):
        m = state.move_center(center)
        for p in strings:
            ref = np.vdot(vec, apply_pauli(vec, p, n)).real / np.vdot(vec, vec).real
            assert abs(m.expect_pauli(p) - ref) < 1e-12
            assert abs(free.expect_pauli(p) - m.expect_pauli(p)) < 1e-12
    zero, _ = two_branch(random_mps(rng, 4), 1.0, -1.0, [0] * 4)
    assert zero.is_zero
    assert zero.expect_pauli(PauliString.single(4, 1, 3)) == 0.0


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
    assert abs(inner(a, b)) <= norm(a) * norm(b) + 1e-12


def test_inner_reads_overlaps_whose_scale_leaves_the_float_range():
    # <+...+|0...0> = 1 at 2100 sites: the raw overlap is 2**-1050 and the
    # scale exp(1050 ln 2); neither is a float
    n = 2100
    ones = Mps.from_site_vectors(np.ones((n, 2)))
    assert inner(ones, Mps.product_state([0] * n)) == pytest.approx(1.0, abs=1e-12)


def test_unitary_gates_preserve_norm():
    rng = np.random.default_rng(45)
    m = random_mps(rng, 7)
    for _ in range(5):
        site = int(rng.integers(6))
        m, err = m.apply_2q_gate(random_unitary(rng, 4), site, EXACT8)
        assert err == pytest.approx(0.0, abs=1e-14)
    assert norm(m) == pytest.approx(1.0, abs=1e-10)


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


def sublayer_count(circ) -> int:
    """Runs of gates on disjoint qubits, as ``apply_gates`` groups them."""
    count, busy = 0, set()
    for g in circ.gates:
        if not count or busy & set(g.qubits):
            count, busy = count + 1, set()
        busy |= set(g.qubits)
    return count


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
        assert len(errs) == sublayer_count(circ)
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
    assert len(errs) == sublayer_count(circ) == 6
    assert min(errs) >= 0.0 and sum(errs) > 0.0
    assert cut.max_bond == 2


def test_apply_gates_bricks_match_expanded_sequences():
    # one operator-site pair per brick against one per CNOT: equal up to rounding
    rng = np.random.default_rng(49)
    n = 8
    exact = TruncationPolicy(chi_max=2 ** (n // 2))
    circ = sample_brickwall(n, 6, rng)
    bits = [int(b) for b in rng.integers(2, size=n)]
    m, errs = apply_gates(Mps.product_state(bits), circ, exact)
    ref, _ = apply_gates(Mps.product_state(bits), expand_bricks(circ), exact)
    assert len(errs) == sublayer_count(circ) == 6
    assert abs(abs(inner(ref, m)) - 1.0) < 1e-12
    for _ in range(5):
        p = random_pauli(rng, n)
        assert m.expect_pauli(p) == pytest.approx(ref.expect_pauli(p), abs=1e-12)


@pytest.mark.parametrize("n", [6, 9])
@pytest.mark.parametrize("chi", [2, 4])
def test_truncated_brick_wall_sublayer_losses_bound_dense_infidelity(n, chi):
    rng = np.random.default_rng([50, n, chi])
    policy = TruncationPolicy(chi_max=chi)
    m, total = random_mps(rng, n), 0.0
    for k in range(8):
        sub = sample_brickwall(n, 1, rng, start_parity=k % 2)
        vec = apply_circuit(m.to_dense(), sub)
        m, errs = apply_gates(m, sub, policy)
        assert len(errs) == 1 and m.max_bond <= chi
        assert 1.0 - fidelity(m.to_dense(), vec) <= errs[0] + 1e-12, k
        total += errs[0]
    assert total > 1e-2, "no sublayer cut anything"


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


@pytest.mark.parametrize("chi", [2.5, 4.0, True, False, "4", None])
def test_policy_rejects_chi_max_that_is_not_an_int(chi):
    # 2.5 used to pass and then fail as a slice bound inside the sweep
    with pytest.raises(ValueError, match="chi_max"):
        TruncationPolicy(chi_max=chi)
    assert TruncationPolicy(chi_max=np.int64(3)).chi_max == 3
