"""Acceptance criteria, one test per criterion, each printing PASS or FAIL.

Run with `pytest tests/test_acceptance.py -v -s`.  Criteria 1 and 7 do the
statistical disorder-averaged runs and dominate the runtime (minutes).
"""

from contextlib import contextmanager
from functools import reduce
from itertools import product
from math import cos, pi, sin

import numpy as np
import pytest

from conftest import compress, norm, random_clifford_circuit, random_mps
from stabmpo import mps, selftest, temporal
from stabmpo.circuit import (
    StabMpoLayer,
    compile_blocks,
    expectation,
)
from stabmpo.clifford import (
    CliffordCircuit,
    CliffordTableau,
    Gate,
    sample_u1_clifford,
)
from stabmpo.dense import circuit_unitary
from stabmpo.harness import (
    FloquetConfig,
    TDopedConfig,
    analytic_magnetization,
    dense_oracle_run,
    kick_channel,
    realization_rng,
    run_floquet,
    run_tdoped,
    s_twirl_matrix,
    sample_tdoped_blocks,
    twirl_s_channel_check,
)
from stabmpo.mps import Mps, TruncationPolicy, cap_mpo
from stabmpo.pauli import SIGMA, PauliString, pauli_coefficient
from stabmpo.temporal import folded_coefficients, horizontal_contract, vertical_fold_evolve


@contextmanager
def report(num: int, name: str):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num} [{name}]: FAIL")
        raise
    print(f"ACCEPTANCE {num} [{name}]: PASS")


# ----------------------------------------------------------------------
# 1. Floquet magnetization law
# ----------------------------------------------------------------------
def test_criterion_1_floquet_magnetization_law():
    with report(1, "floquet-magnetization-law"):
        for eps in (0.05, 0.1):
            cfg = FloquetConfig(
                n=12, epsilon=eps, periods=15, chi=128, realizations=50, seed=424242
            )
            res = run_floquet(cfg)
            for row in res.aggregate_rows:
                _track, m, _e, _ee, mag_mean, mag_err, analytic = row
                assert analytic == pytest.approx(analytic_magnetization(eps, m))
                tol = max(3.0 * mag_err, 0.02)
                assert abs(mag_mean - analytic) <= tol, (
                    f"eps={eps} m={m}: |{mag_mean} - {analytic}| > {tol}"
                )


# ----------------------------------------------------------------------
# 2. eps = 0 exactness
# ----------------------------------------------------------------------
def test_criterion_2_perfect_kick_exactness():
    with report(2, "perfect-kick-exactness"):
        for n in (7, 14, 20):
            cfg = FloquetConfig(
                n=n, epsilon=0.0, periods=15, chi=8, realizations=1, seed=5150
            )
            res = run_floquet(cfg)
            assert len(res.rows) == cfg.periods
            for row in res.rows:
                m = row[1]
                assert abs(row[4] - (-1.0) ** m) <= 1e-12  # magnetization
                assert abs(row[3]) <= 1e-12  # half-chain entropy


# ----------------------------------------------------------------------
# 3. cross-method equivalence
# ----------------------------------------------------------------------
def test_criterion_3_cross_method_equivalence():
    with report(3, "cross-method-equivalence"):
        rng = np.random.default_rng(31337)
        # j of each second observable comes from its own generator, so that
        # rng alone fixes the instances and their first observables
        z_rng = np.random.default_rng(31338)
        for k in range(50):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(1, 5))
            if k % 2 == 0:
                blocks = sample_tdoped_blocks(n, m, int(rng.integers(1, 3)), rng)
            else:
                from stabmpo.circuit import RotationGate

                blocks = [
                    (
                        random_clifford_circuit(rng, n, 6),
                        RotationGate(
                            int(rng.integers(n)),
                            int(rng.integers(1, 4)),
                            float(rng.uniform(0, 2 * pi)),
                        ),
                    )
                    for _ in range(m)
                ]
            compiled = compile_blocks(n, blocks)
            obs = PauliString.single(n, int(rng.integers(n)), int(rng.integers(1, 4)))
            bits = [int(b) for b in rng.integers(2, size=n)]
            policy = TruncationPolicy(chi_max=2**n)
            # C Z_j C^dag, C the compiled residual, pulls back to Z_j: no
            # x-part, so its value is nonzero in general and a wrong sign in
            # the Clifford part shows
            z_j = PauliString.single(n, int(z_rng.integers(n)), 3)
            for o in (obs, compiled.residual.conjugate(z_j, "forward")):
                values = [
                    expectation(Mps.product_state(bits), compiled, o, policy).value,
                    vertical_fold_evolve(compiled, o, bits, policy).value,
                    horizontal_contract(compiled, o, bits, policy).value,
                    dense_oracle_run(n, blocks, bits, o),
                ]
                for i in range(4):
                    for j in range(i + 1, 4):
                        assert abs(values[i] - values[j]) < 1e-8, (
                            f"instance {k} {o.to_literal()}: methods {i},{j} "
                            f"differ: {values}"
                        )


# ----------------------------------------------------------------------
# 4. tableau correctness
# ----------------------------------------------------------------------
def _assert_conjugation_exact(circ: CliffordCircuit, p: PauliString) -> None:
    tab = CliffordTableau.from_circuit(circ)
    img = tab.conjugate(p, "forward")
    u = circuit_unitary(circ)
    ref = u @ p.to_dense() @ u.conj().T
    coeff = pauli_coefficient(ref, img.unsigned())
    assert abs(coeff.imag) < 1e-9
    assert round(coeff.real) == img.sign
    assert np.max(np.abs(ref - img.sign * img.unsigned().to_dense())) < 1e-9


def test_criterion_4_tableau_correctness():
    with report(4, "tableau-correctness"):
        # exhaustive one-gate table on every generator input
        for name in ("H", "S"):
            circ = CliffordCircuit(1, (Gate(name, (0,)),))
            for mu in (1, 2, 3):
                _assert_conjugation_exact(circ, PauliString.from_letters([mu]))
        for name in ("CNOT", "CZ"):
            circ = CliffordCircuit(2, (Gate(name, (0, 1)),))
            for mu in range(4):
                for nu in range(4):
                    if mu == nu == 0:
                        continue
                    _assert_conjugation_exact(
                        circ, PauliString.from_letters([mu, nu])
                    )
        # 200 random circuits at n = 4, random signed inputs
        rng = np.random.default_rng(44)
        for _ in range(200):
            circ = random_clifford_circuit(rng, 4, 14)
            letters = [int(rng.integers(4)) for _ in range(4)]
            p = PauliString.from_letters(letters, 2 * int(rng.integers(2)))
            _assert_conjugation_exact(circ, p)


# ----------------------------------------------------------------------
# 5. replica twirl suite
# ----------------------------------------------------------------------
def test_criterion_5_twirl_suite():
    with report(5, "replica-twirl-suite"):
        assert np.allclose(
            s_twirl_matrix(), np.diag([1.0, 0.0, 0.0, 1.0]), atol=1e-15
        )
        plus = np.array([1, 0, 0, 1], dtype=complex)
        minus = np.array([1, 0, 0, -1], dtype=complex)
        for eps in (0.0, 0.05, 0.1, 0.3):
            k = kick_channel(eps)
            assert np.max(np.abs(k @ plus - plus)) <= 1e-12
            assert np.max(np.abs(k @ minus + cos(2 * eps) * minus)) <= 1e-12
        assert twirl_s_channel_check()
        # every sampled U(1) Clifford moves each Z_j to a single +Z
        rng = np.random.default_rng(55)
        for _ in range(300):
            n = int(rng.integers(1, 9))
            tab = CliffordTableau.from_circuit(sample_u1_clifford(n, rng))
            targets = set()
            for j in range(n):
                img = tab.conjugate(PauliString.single(n, j, 3), "inverse")
                assert img.sign == 1
                assert img.weight == 1
                assert img.letter(img.support[0]) == 3
                targets.add(img.support[0])
            assert targets == set(range(n))


# ----------------------------------------------------------------------
# 6. transfer-tensor algebra
# ----------------------------------------------------------------------
def test_criterion_6_transfer_tensor_algebra():
    # the rules that layers and folds apply, read from their modules at call
    # time.  A layer is phi0 I + phi1 P, and apply_rotation adds phi0 A to
    # P's gather with coefficient phi1: on the basis that must be exactly
    # phi0 I + phi1 P, and P's column gather exactly P^T, for every string of
    # one to three letters (two and three Ys reach every power of -i).  Every
    # entry of the folded rows' blocks a = 2k + b, 1/2 Tr(sigma^mu W_k
    # sigma^nu W_b^dag) with W_0 = I and W_1 = sigma^g, exactly; Gamma sits at
    # a = 1, its transpose at a = 2, diag S at 3
    with report(6, "transfer-tensor-algebra"):
        rng = np.random.default_rng(66)
        strings = 0
        for k in (1, 2, 3):
            basis = np.eye(2**k, dtype=np.complex128).reshape(1, 2**k, 2**k)
            for letters in product(range(4), repeat=k):
                theta = float(rng.uniform(0, 2 * pi))
                phi0, phi1 = cos(theta / 2), -1j * sin(theta / 2)
                string = reduce(np.kron, SIGMA[list(letters)])
                bits = mps._pauli_bits(letters)
                got = phi0 * basis + mps._pauli_image(basis, bits, (0, 0), phi1)
                assert np.array_equal(got[0], phi0 * np.eye(2**k) + phi1 * string), letters
                got = mps._pauli_image(basis, (0, 0), bits, 1.0)
                assert np.array_equal(got[0], string.T), letters
                strings += 1
        assert strings == 84

        checked = 0
        for g in range(4):
            row = temporal._FOLDED_ROWS[g]
            w = (SIGMA[0], SIGMA[g])
            for a in range(4):
                assert not np.any(np.delete(row[a], a, axis=2))  # diagonal in a
                for mu in range(4):
                    for nu in range(4):
                        ref = 0.5 * np.trace(
                            SIGMA[mu] @ w[a // 2] @ SIGMA[nu] @ w[a % 2].conj().T
                        )
                        assert row[a, mu, nu, a] == ref
                        checked += 1
            column = row.transpose(2, 0, 3, 1)
            assert np.array_equal(temporal._FOLDED_COLUMNS[g], column)
        assert checked == 256

        # the rows capped with a layer's coefficients, as window_mpo caps them
        for _ in range(100):
            g = int(rng.integers(4))
            theta = float(rng.uniform(0, 2 * pi))
            phi0, phi1 = cos(theta / 2), -1j * sin(theta / 2)
            layer = phi0 * SIGMA[0] + phi1 * SIGMA[g]
            coeffs = folded_coefficients(phi0, phi1)
            (row,) = cap_mpo([temporal._FOLDED_ROWS[g]], coeffs, np.ones(4))
            for mu in range(4):
                for nu in range(4):
                    ref = 0.5 * np.trace(SIGMA[mu] @ layer @ SIGMA[nu] @ layer.conj().T)
                    assert abs(row[0, mu, nu, 0] - ref) <= 1e-12


@pytest.mark.parametrize("g", range(4))
@pytest.mark.parametrize("table", ["layer", "row"])
def test_table_checks_read_the_production_tables(monkeypatch, table, g):
    # one flipped entry of a rule that layers or folds read must fail both
    # criterion 6 and selftest's table check: letter g's x bit or the power
    # (-i)^g of a layer's gather, or one sign of folded row g
    if table == "layer":
        x_bits, powers = list(mps._X_BIT), list(mps._MINUS_I_POWERS)
        x_bits[g], powers[g] = 1 - x_bits[g], -powers[g]
        flips = [(mps, "_X_BIT", tuple(x_bits)), (mps, "_MINUS_I_POWERS", tuple(powers))]
    else:
        rows = list(temporal._FOLDED_ROWS)
        rows[g] = rows[g].copy()
        rows[g].flat[np.flatnonzero(rows[g])[-1]] *= -1
        flips = [(temporal, "_FOLDED_ROWS", tuple(rows))]
    for module, name, value in flips:
        with monkeypatch.context() as patch:
            patch.setattr(module, name, value)
            with pytest.raises(AssertionError):
                test_criterion_6_transfer_tensor_algebra()
            with pytest.raises(RuntimeError):
                selftest._check_transfer_tables(np.random.default_rng(0))


# ----------------------------------------------------------------------
# 7. entanglement reduction (statistical)
# ----------------------------------------------------------------------
def test_criterion_7_entanglement_reduction():
    with report(7, "entanglement-reduction"):
        cfg = TDopedConfig(
            n=16, m_layers=10, depth_d=1, chi=64, realizations=24, seed=20240801,
            run_baseline=True,
        )
        res = run_tdoped(cfg)
        hybrid = {}
        baseline = {}
        for row in res.aggregate_rows:
            track, m, e_mean = row[0], row[1], row[2]
            (hybrid if track == "stabmpo" else baseline)[m] = e_mean
        for m in range(1, cfg.m_layers + 1):
            assert hybrid[m] <= baseline[m] + 1e-12, (
                f"m={m}: layer-evolved entropy {hybrid[m]} above baseline "
                f"{baseline[m]}"
            )
        final = cfg.m_layers
        assert hybrid[final] < baseline[final], "no strict reduction at final block"


# ----------------------------------------------------------------------
# 8. unitarity / normalization and truncation accounting
# ----------------------------------------------------------------------
def test_criterion_8_normalization_and_truncation():
    with report(8, "normalization-and-truncation"):
        rng = np.random.default_rng(88)
        # lossless layer application preserves the norm to 1e-10
        from stabmpo.circuit import apply_layer

        for _ in range(10):
            n = 6
            state = random_mps(rng, n)
            gamma = PauliString.from_letters(
                [int(rng.integers(4)) for _ in range(n)], 2 * int(rng.integers(2))
            )
            layer = StabMpoLayer(gamma, float(rng.uniform(0, 2 * pi)))
            out, err = apply_layer(state, layer, TruncationPolicy(chi_max=2**n))
            assert err <= 1e-14
            assert abs(norm(out) - 1.0) <= 1e-10

        # reported discarded weight matches the dense fidelity loss
        n = 8
        state = Mps.product_state([0] * n)
        exact = TruncationPolicy(chi_max=2**n)
        for _ in range(8):
            gamma = PauliString.from_letters(
                [int(rng.integers(4)) for _ in range(n)], 0
            )
            state, _ = apply_layer(state, StabMpoLayer(gamma, 0.35), exact)
        before = state.to_dense()
        compressed, reported = compress(
            state, TruncationPolicy(chi_max=2**n, svd_cutoff=3e-4)
        )
        after = compressed.to_dense()
        f = abs(np.vdot(after, before)) ** 2 / (
            np.vdot(after, after).real * np.vdot(before, before).real
        )
        assert reported > 1e-9, "test state was not actually truncated"
        assert abs((1.0 - f) - reported) <= 1e-8

        # strong truncation still respects the fidelity bound
        heavy, err_heavy = compress(state, TruncationPolicy(chi_max=2))
        f_heavy = abs(np.vdot(heavy.to_dense(), before)) ** 2 / (
            np.vdot(heavy.to_dense(), heavy.to_dense()).real
            * np.vdot(before, before).real
        )
        assert f_heavy >= 1.0 - err_heavy - 1e-10


# ----------------------------------------------------------------------
# 9. determinism
# ----------------------------------------------------------------------
def test_criterion_9_determinism(tmp_path):
    with report(9, "byte-identical-reruns"):
        td = TDopedConfig(
            n=6, m_layers=3, depth_d=1, chi=16, realizations=2, seed=99,
            run_baseline=True, run_temporal=True,
        )
        run_tdoped(td, tmp_path / "td_a")
        run_tdoped(td, tmp_path / "td_b")
        for name in ("trajectory.csv", "aggregate.csv", "temporal.csv", "meta.txt"):
            assert (tmp_path / "td_a" / name).read_bytes() == (
                tmp_path / "td_b" / name
            ).read_bytes()

        fl = FloquetConfig(n=5, epsilon=0.15, periods=4, chi=8, realizations=3, seed=7)
        run_floquet(fl, tmp_path / "fl_a")
        run_floquet(fl, tmp_path / "fl_b")
        for name in ("trajectory.csv", "aggregate.csv", "meta.txt"):
            assert (tmp_path / "fl_a" / name).read_bytes() == (
                tmp_path / "fl_b" / name
            ).read_bytes()
