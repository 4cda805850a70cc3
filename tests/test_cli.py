"""Command-line interface: subcommands, config plumbing, exit codes."""

import os
import subprocess
import sys

import pytest

from stabmpo.circuit import StabMpoCircuit
from stabmpo.cli import main


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "stabmpo.cli", *args],
        capture_output=True,
        text=True,
    )


def test_selftest_exit_zero():
    proc = run_cli("selftest")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "FAIL" not in proc.stdout


def test_usage_error_exit_two():
    proc = run_cli("nonsense")
    assert proc.returncode == 2


def test_bad_value_exit_two(tmp_path):
    code = main(
        ["floquet", "--n", "4", "--epsilon", "9.0", "--periods", "2",
         "--realizations", "1", "--chi", "4", "--out", str(tmp_path / "x")]
    )
    assert code == 2


def test_bad_boolean_in_config_exit_two(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("run_baseline=ture\n")
    code = main(["tdoped", "--config", str(cfg), "--n", "4", "--m", "1",
                 "--realizations", "1", "--out", str(tmp_path / "x")])
    assert code == 2
    assert not (tmp_path / "x").exists()


def test_selftest_fails_under_optimize():
    # python -O strips assert statements; a broken reference must still fail
    script = (
        "import stabmpo.selftest as s\n"
        "s.TWO_QUBIT_CLIFFORD_COUNT = 0\n"
        "raise SystemExit(s.run_selftest(verbose=False))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("3", "3")])
def test_import_pins_blas_threads_unless_set(preset, expected):
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    script = "import stabmpo, os; print(os.environ['OPENBLAS_NUM_THREADS'])"
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == expected


def test_import_loads_no_process_pool():
    # the pool is imported only when STABMPO_WORKERS > 1 starts one
    script = (
        "import sys, numpy\n"
        "before = set(sys.modules)\n"
        "import stabmpo\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    added = proc.stdout.split()
    assert "stabmpo" in added
    for name in ("concurrent.futures", "multiprocessing"):
        assert name not in added


def test_floquet_deterministic_csv(tmp_path):
    args = [
        "floquet", "--n", "4", "--epsilon", "0.1", "--periods", "3",
        "--realizations", "2", "--chi", "8", "--seed", "7",
    ]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    for name in ("trajectory.csv", "aggregate.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()


def test_tdoped_baseline_two_tracks(tmp_path):
    code = main(
        ["tdoped", "--n", "4", "--m", "3", "--d", "1", "--chi", "8",
         "--realizations", "2", "--seed", "3", "--baseline",
         "--out", str(tmp_path / "run")]
    )
    assert code == 0
    body = (tmp_path / "run" / "trajectory.csv").read_text().splitlines()
    tracks = {line.split(",")[2] for line in body[1:]}
    assert tracks == {"stabmpo", "baseline"}


def test_temporal_subcommand_emits_csv(tmp_path):
    code = main(
        ["temporal", "--n", "4", "--m", "2", "--d", "1", "--chi", "8",
         "--realizations", "1", "--seed", "3", "--out", str(tmp_path / "run")]
    )
    assert code == 0
    assert (tmp_path / "run" / "temporal.csv").exists()


def test_compile_subcommand_roundtrip(tmp_path):
    out = tmp_path / "circ.stabmpo"
    code = main(
        ["compile", "--n", "5", "--m", "4", "--d", "2", "--seed", "11",
         "--out", str(out)]
    )
    assert code == 0
    compiled = StabMpoCircuit.from_text(out.read_text())
    assert compiled.n == 5
    assert compiled.m == 4


@pytest.mark.parametrize("flag", ["--chi", "--realizations"])
def test_compile_rejects_simulation_flags(flag, tmp_path, capsys):
    # compile samples and compiles realization 0; it neither truncates nor repeats
    out = tmp_path / "circ.stabmpo"
    with pytest.raises(SystemExit) as exc:
        main(["compile", "--n", "6", "--m", "3", "--seed", "2", flag, "7",
              "--out", str(out)])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_compile_config_reads_only_circuit_fields(tmp_path):
    # chi and realizations mean nothing to compile, even when a config sets them
    cfg = tmp_path / "c.cfg"
    cfg.write_text("chi=0\nrealizations=0\n")
    plain, configured = tmp_path / "plain.stabmpo", tmp_path / "configured.stabmpo"
    args = ["--n", "6", "--m", "3", "--seed", "2"]
    assert main(["compile", *args, "--out", str(plain)]) == 0
    assert main(["compile", "--config", str(cfg), *args, "--out", str(configured)]) == 0
    assert configured.read_bytes() == plain.read_bytes()


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n=4\nepsilon=0.3\nperiods=2\nrealizations=1\nchi=8\nseed=5\n")
    out = tmp_path / "run"
    code = main(["floquet", "--config", str(cfg), "--periods", "3",
                 "--out", str(out)])
    assert code == 0
    meta = (out / "meta.txt").read_text()
    assert "periods=3" in meta  # flag override
    assert "epsilon=0.3" in meta  # file value


def test_meta_records_full_config(tmp_path):
    main(
        ["tdoped", "--n", "4", "--m", "2", "--d", "1", "--chi", "8",
         "--realizations", "1", "--seed", "3", "--out", str(tmp_path / "r")]
    )
    meta = (tmp_path / "r" / "meta.txt").read_text()
    for key in ("run=tdoped", "code_version=", "n=4", "m_layers=2", "depth_d=1",
                "chi=8", "realizations=1", "seed=3", "run_baseline=False"):
        assert key in meta


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("command", ["tdoped", "floquet", "compile"])
def test_negative_seed_exit_two_names_seed(
    command, workers, tmp_path, monkeypatch, capsys
):
    # validate() rejects it before any realization or worker starts
    monkeypatch.setenv("STABMPO_WORKERS", workers)
    out = tmp_path / "run"
    run = [] if command == "compile" else ["--realizations", "1", "--chi", "8"]
    code = main([command, "--n", "4", *run, "--seed", "-1", "--out", str(out)])
    assert code == 2
    assert "seed" in capsys.readouterr().err
    assert not out.exists()
