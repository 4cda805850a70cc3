"""Experiment drivers: analytic reference, twirl identities, reproducibility."""

import re
from math import cos, pi, sqrt

import numpy as np
import pytest

from conftest import random_mps
from stabmpo.circuit import (
    StabMpoCompiler,
    compile_blocks,
    expectation,
    t_gate,
    transform_observable,
)
from stabmpo.clifford import CliffordCircuit, Gate, sample_u1_clifford
from stabmpo.harness import (
    FloquetConfig,
    RunResult,
    TDopedConfig,
    _write_files,
    analytic_magnetization,
    config_from_sources,
    dense_oracle_run,
    kick_channel,
    mean_stderr,
    parse_config_file,
    realization_rng,
    run_floquet,
    run_tdoped,
    s_twirl_matrix,
    sample_floquet_blocks,
    sample_tdoped_blocks,
    twirl_s_channel_check,
)
from stabmpo.dense import run_blocks
from stabmpo.mps import Mps, TruncationPolicy
from stabmpo.pauli import OracleCapError, PauliString


# ----------------------------------------------------------------------
# analytic formula
# ----------------------------------------------------------------------
def test_analytic_magnetization_examples():
    assert analytic_magnetization(0.0, 3) == -1.0
    assert analytic_magnetization(pi / 4, 1) == pytest.approx(0.0, abs=1e-12)
    assert analytic_magnetization(0.1, 5) == pytest.approx(-cos(0.2) ** 5)
    assert analytic_magnetization(0.1, 5) == pytest.approx(-0.9042278849268092)
    with pytest.raises(ValueError):
        analytic_magnetization(0.1, -1)


# ----------------------------------------------------------------------
# replica twirl
# ----------------------------------------------------------------------
def test_s_twirl_is_projector():
    assert np.allclose(s_twirl_matrix(), np.diag([1.0, 0.0, 0.0, 1.0]), atol=1e-15)


def test_kick_channel_eigenpairs():
    plus = np.array([1, 0, 0, 1], dtype=complex)
    minus = np.array([1, 0, 0, -1], dtype=complex)
    for eps in (0.0, 0.05, 0.1, 0.3, 1.2):
        k = kick_channel(eps)
        assert np.allclose(k @ plus, plus, atol=1e-12)
        assert np.allclose(k @ minus, -cos(2 * eps) * minus, atol=1e-12)
    # eps = 0: the second eigenvalue is exactly -1
    k0 = kick_channel(0.0)
    assert np.allclose(k0 @ minus, -minus, atol=1e-12)


def test_twirl_suite_passes():
    assert twirl_s_channel_check()


# ----------------------------------------------------------------------
# dense oracle runner
# ----------------------------------------------------------------------
def test_dense_oracle_bell_circuit():
    circ = CliffordCircuit(2, (Gate("H", (0,)), Gate("CNOT", (0, 1))))
    state = dense_oracle_run(2, [(circ, None)], [0, 0])
    assert np.allclose(state, np.array([1, 0, 0, 1]) / sqrt(2))


def test_dense_oracle_t_on_plus():
    circ = CliffordCircuit(1, (Gate("H", (0,)),))
    val = dense_oracle_run(1, [(circ, t_gate(0))], [0], PauliString.from_literal("X"))
    assert val == pytest.approx(cos(pi / 4))


def test_dense_oracle_cap():
    with pytest.raises(OracleCapError):
        dense_oracle_run(13, [], [0] * 13)


def test_dense_oracle_rejects_bit_count_other_than_n():
    blocks = sample_tdoped_blocks(3, 2, 1, np.random.default_rng(1))
    z0 = PauliString.single(3, 0, 3)
    for n in (2, 4):
        with pytest.raises(ValueError, match="initial bits"):
            dense_oracle_run(n, blocks, [0, 0, 0], z0)


def test_dense_oracle_accepts_bits_as_an_iterator():
    blocks = sample_tdoped_blocks(3, 2, 1, np.random.default_rng(1))
    z0 = PauliString.single(3, 0, 3)
    want = dense_oracle_run(3, blocks, [0, 0, 0], z0)
    assert dense_oracle_run(3, blocks, iter([0, 0, 0]), z0) == want
    assert np.array_equal(run_blocks(blocks, iter([1, 0, 1])), run_blocks(blocks, [1, 0, 1]))


def test_dense_oracle_cross_checked_by_compiled_path():
    rng = np.random.default_rng(80)
    n = 6
    blocks = sample_tdoped_blocks(n, 4, 2, rng)
    obs = PauliString.single(n, 3, 3)
    ref = dense_oracle_run(n, blocks, [0] * n, obs)
    got = expectation(
        Mps.product_state([0] * n),
        compile_blocks(n, blocks),
        obs,
        TruncationPolicy(chi_max=2**3),
    )
    assert got.value == pytest.approx(ref, abs=1e-8)


# ----------------------------------------------------------------------
# T-doped driver
# ----------------------------------------------------------------------
def test_tdoped_small_run_matches_dense_per_realization(tmp_path):
    cfg = TDopedConfig(
        n=6, m_layers=4, depth_d=1, chi=8, realizations=3, seed=77, run_baseline=True
    )
    res = run_tdoped(cfg, tmp_path / "run")
    obs = cfg.observable_pauli()
    for r in range(cfg.realizations):
        blocks = sample_tdoped_blocks(
            cfg.n, cfg.m_layers, cfg.depth_d, realization_rng(cfg.seed, r)
        )
        want = dense_oracle_run(cfg.n, blocks, [0] * cfg.n, obs)
        rows = [
            row for row in res.rows if row[0] == r and row[2] == "stabmpo"
        ]
        base_rows = [
            row for row in res.rows if row[0] == r and row[2] == "baseline"
        ]
        assert rows[-1][1] == cfg.m_layers
        assert rows[-1][4] == pytest.approx(want, abs=1e-8)
        # hybrid and baseline observables agree per block at exact chi
        for h, b in zip(rows, base_rows):
            assert h[4] == pytest.approx(b[4], abs=1e-8)
    assert (tmp_path / "run" / "trajectory.csv").exists()
    assert (tmp_path / "run" / "aggregate.csv").exists()
    assert (tmp_path / "run" / "meta.txt").exists()


def test_tdoped_temporal_output(tmp_path):
    cfg = TDopedConfig(
        n=4, m_layers=3, depth_d=1, chi=16, realizations=2, seed=5, run_temporal=True
    )
    res = run_tdoped(cfg, tmp_path / "run")
    assert res.temporal_mean is not None
    assert res.temporal_mean.shape == (3, 4)
    text = (tmp_path / "run" / "temporal.csv").read_text().splitlines()
    assert text[0] == "n,m,entropy_bits"
    assert len(text) == 1 + 3 * 4


def test_tdoped_zero_blocks_is_pure_clifford(tmp_path):
    cfg = TDopedConfig(n=4, m_layers=0, depth_d=1, chi=8, realizations=2, seed=3)
    res = run_tdoped(cfg, tmp_path / "run")
    assert res.rows == []
    assert res.aggregate_rows == []


def test_tdoped_observable_parsing():
    cfg = TDopedConfig(n=4, observable="XIZY")
    assert cfg.observable_pauli().to_literal() == "+XIZY"
    cfg = TDopedConfig(n=4)
    assert cfg.observable_pauli().to_literal() == "+IIZI"
    with pytest.raises(ValueError):
        TDopedConfig(n=4, observable="XX").validate()
    with pytest.raises(ValueError):
        TDopedConfig(n=0).validate()


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize(
    "literal, message",
    [("XQZI", "observable: bad Pauli literal: 'XQZI'"), ("XZI", "observable 'XZI' has 3 letters, n is 4")],
)
def test_observable_errors_name_the_key(source, literal, message):
    # a flag arrives as a typed override, a config-file value as text
    if source == "flag":
        cfg = config_from_sources(TDopedConfig, {}, {"n": 4, "observable": literal})
    else:
        cfg = config_from_sources(TDopedConfig, {"n": "4", "observable": literal}, {})
    with pytest.raises(ValueError, match=re.escape(message)):
        cfg.validate()


# ----------------------------------------------------------------------
# Floquet driver
# ----------------------------------------------------------------------
def test_floquet_perfect_kicks_exact(tmp_path):
    cfg = FloquetConfig(n=8, epsilon=0.0, periods=8, chi=16, realizations=1, seed=11)
    res = run_floquet(cfg, tmp_path / "run")
    for row in res.rows:
        m = row[1]
        assert abs(row[4] - (-1.0) ** m) < 1e-12  # magnetization
        assert abs(row[3]) < 1e-12  # entropy
        assert row[5] == 1  # bond stays 1


def test_floquet_single_realization_matches_dense():
    cfg = FloquetConfig(n=6, epsilon=0.3, periods=4, chi=64, realizations=1, seed=21)
    res = run_floquet(cfg)
    blocks = sample_floquet_blocks(
        cfg.n, cfg.epsilon, cfg.periods, realization_rng(cfg.seed, 0)
    )
    per_period = cfg.n
    for m in range(1, cfg.periods + 1):
        prefix = blocks[: m * per_period]
        state = dense_oracle_run(cfg.n, prefix, [0] * cfg.n)
        from stabmpo.dense import apply_pauli

        mz = np.mean(
            [
                np.vdot(state, apply_pauli(state, PauliString.single(cfg.n, j, 3), cfg.n)).real
                for j in range(cfg.n)
            ]
        )
        got = [row for row in res.rows if row[1] == m][0][4]
        assert got == pytest.approx(mz, abs=1e-8)


def test_floquet_mean_tracks_analytic_small():
    cfg = FloquetConfig(n=6, epsilon=0.1, periods=6, chi=16, realizations=12, seed=31)
    res = run_floquet(cfg)
    for row in res.aggregate_rows:
        _track, m, _e, _ee, mag_mean, mag_err, analytic = row
        assert abs(mag_mean - analytic) <= max(4 * mag_err, 0.05)


def test_floquet_measure_matches_expect_pauli_for_every_pullback():
    # U(1) Cliffords pull each Z_j back to +Z at a permuted site, so the
    # study reads <Z> on every site in one local pass
    rng = np.random.default_rng(32)
    for n in (3, 6, 9):
        cfg = FloquetConfig(n=n)
        state = random_mps(rng, n).move_center(int(rng.integers(n)))
        comp = StabMpoCompiler(n)
        comp.push_clifford(sample_u1_clifford(n, rng))
        pulled = [
            transform_observable(comp.tableau, PauliString.single(n, j, 3))
            for j in range(n)
        ]
        want = np.mean([state.expect_pauli(nu) for nu in pulled])
        assert abs(cfg.measure(state, comp.tableau) - want) < 1e-12


def test_floquet_cliffords_pull_every_z_back_to_a_permuted_plus_z():
    # the premise of FloquetConfig.measure, for the product of every period
    # so far, not only a single sampled Clifford
    for n, seed in ((3, 1), (6, 2), (9, 3)):
        blocks = sample_floquet_blocks(n, 0.1, 5, np.random.default_rng(seed))
        comp = StabMpoCompiler(n)
        for k, (circ, rot) in enumerate(blocks, start=1):
            comp.push_clifford(circ)
            comp.push_rotation(rot)
            if k % n:
                continue
            sites = []
            for j in range(n):
                nu = transform_observable(comp.tableau, PauliString.single(n, j, 3))
                assert nu.weight == 1 and nu.sign == 1, (k, j, nu)
                sites.append(nu.support[0])
                assert nu.letter(sites[-1]) == 3, (k, j, nu)
            assert sorted(sites) == list(range(n))


def test_meta_writes_numpy_scalars_as_plain_values(tmp_path):
    # numpy 2 spells repr(np.float64(0.25)) "np.float64(0.25)"
    cfg = FloquetConfig(epsilon=np.float64(0.25), chi=np.int64(8))
    _write_files(RunResult(cfg), tmp_path)
    meta = (tmp_path / "meta.txt").read_text().splitlines()
    assert "epsilon=0.25" in meta and "chi=8" in meta


_BAD_FIELDS = [
    (TDopedConfig, "n", 4.0),
    (TDopedConfig, "m_layers", 2.5),
    (TDopedConfig, "depth_d", True),
    (TDopedConfig, "chi", 2.5),
    (TDopedConfig, "realizations", 2.5),
    (TDopedConfig, "realizations", True),
    (TDopedConfig, "seed", 1.5),
    (TDopedConfig, "observable", 5),
    (TDopedConfig, "run_baseline", 1),
    (TDopedConfig, "run_temporal", "yes"),
    (FloquetConfig, "n", 2.5),
    (FloquetConfig, "periods", 1.5),
    (FloquetConfig, "chi", True),
    (FloquetConfig, "realizations", 2.5),
    (FloquetConfig, "seed", 1.5),
]


@pytest.mark.parametrize("cls, key, value", _BAD_FIELDS)
def test_every_config_field_follows_the_rule_of_its_type(cls, key, value):
    # min(...) < 1 let these through to range() or numpy, into a message
    # about a site, or ran a bool as 1; epsilon's angle rule is checked with
    # the rotation angles
    with pytest.raises(ValueError, match=rf"^{key}\b"):
        cls(**{key: value}).validate()
    if cls is TDopedConfig and key in ("n", "m_layers", "depth_d", "seed"):
        with pytest.raises(ValueError, match=rf"^{key}\b"):
            cls(**{key: value}).validate_circuit()
    default = getattr(cls(), key)
    if type(default) is int:  # numpy ints stay accepted
        cls(**{key: np.int64(default)}).validate()


def test_floquet_config_validation():
    FloquetConfig(epsilon=np.float64(0.25), n=np.int64(4)).validate()
    with pytest.raises(ValueError):
        FloquetConfig(epsilon=2.0).validate()
    with pytest.raises(ValueError):
        FloquetConfig(periods=0).validate()


# ----------------------------------------------------------------------
# determinism, stability, aggregation
# ----------------------------------------------------------------------
def test_runs_are_byte_identical(tmp_path):
    cfg = FloquetConfig(n=4, epsilon=0.2, periods=3, chi=8, realizations=2, seed=9)
    run_floquet(cfg, tmp_path / "a")
    run_floquet(cfg, tmp_path / "b")
    for name in ("trajectory.csv", "aggregate.csv", "meta.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()


def test_realization_subsets_stable(tmp_path):
    small = TDopedConfig(n=4, m_layers=2, depth_d=1, chi=8, realizations=2, seed=13)
    large = TDopedConfig(n=4, m_layers=2, depth_d=1, chi=8, realizations=4, seed=13)
    rows_small = run_tdoped(small).rows
    rows_large = [r for r in run_tdoped(large).rows if r[0] < 2]
    assert rows_small == rows_large


def test_mean_stderr_scaling():
    values = [1.0, -1.0] * 8
    m1, e1 = mean_stderr(values)
    m2, e2 = mean_stderr(values * 4)  # same spread, 4x the samples
    assert m1 == m2 == 0.0
    assert e1 == pytest.approx(2 * e2, rel=0.05)  # ddof=1 skews the ratio slightly
    assert mean_stderr([0.7]) == (0.7, 0.0)
    # direct formula check
    arr = np.array([0.1, 0.5, 0.9, 0.3])
    m, e = mean_stderr(arr)
    assert m == pytest.approx(arr.mean())
    assert e == pytest.approx(arr.std(ddof=1) / sqrt(4))


def test_worker_pool_matches_serial(tmp_path, monkeypatch):
    cfg = FloquetConfig(n=4, epsilon=0.2, periods=3, chi=8, realizations=3, seed=17)
    serial = run_floquet(cfg, tmp_path / "serial")
    monkeypatch.setenv("STABMPO_WORKERS", "2")
    parallel = run_floquet(cfg, tmp_path / "parallel")
    assert (tmp_path / "serial" / "trajectory.csv").read_bytes() == (
        tmp_path / "parallel" / "trajectory.csv"
    ).read_bytes()
    assert serial.rows == parallel.rows


@pytest.mark.parametrize("value", ["0", "-3", "abc", "2.5"])
def test_worker_count_must_be_positive_integer(tmp_path, monkeypatch, value):
    cfg = FloquetConfig(n=2, epsilon=0.2, periods=1, chi=4, realizations=1, seed=17)
    monkeypatch.setenv("STABMPO_WORKERS", value)
    with pytest.raises(ValueError, match="STABMPO_WORKERS"):
        run_floquet(cfg, tmp_path / "out")
    assert not (tmp_path / "out").exists()


# ----------------------------------------------------------------------
# config files
# ----------------------------------------------------------------------
def test_config_file_and_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("n = 6\nepsilon = 0.25  # kick\nperiods=4\n\nchi=32\n")
    values = parse_config_file(path)
    cfg = config_from_sources(FloquetConfig, values, {"chi": 64, "seed": None})
    assert cfg.n == 6
    assert cfg.epsilon == 0.25
    assert cfg.periods == 4
    assert cfg.chi == 64  # override wins
    assert cfg.seed == 1234  # default kept


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("bogus=1\n")
    with pytest.raises(ValueError):
        config_from_sources(FloquetConfig, parse_config_file(path), {})


@pytest.mark.parametrize(
    "cls, key, value, message",
    [
        (TDopedConfig, "n", "abc", "config key 'n' needs an int, got 'abc'"),
        (TDopedConfig, "chi", "2.5", "config key 'chi' needs an int, got '2.5'"),
        (FloquetConfig, "epsilon", "x", "config key 'epsilon' needs a float, got 'x'"),
    ],
)
def test_config_errors_name_the_key(cls, key, value, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        config_from_sources(cls, {key: value}, {})


def test_config_bool_parsing():
    cfg = config_from_sources(
        TDopedConfig, {"run_baseline": "true", "run_temporal": "0"}, {}
    )
    assert cfg.run_baseline is True
    assert cfg.run_temporal is False
    cfg = config_from_sources(TDopedConfig, {"run_baseline": "OFF"}, {})
    assert cfg.run_baseline is False
    with pytest.raises(ValueError):
        config_from_sources(TDopedConfig, {"run_baseline": "ture"}, {})
