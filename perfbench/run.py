"""stabmpo benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload tdoped-wide|floquet|temporal \\
        --seed N --seconds T --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
Workloads, metrics and units are declared in ``BENCHMARK.json``.

With ``--trace 0`` the run measures set-up in several fresh interpreters,
then one client process runs a fixed list of studies, sized to take about
``--seconds``, in a closed loop and reports the end-to-end metrics.  With
``--trace 1`` the client also runs each study with a span around every
layer call that the harness makes and reports the per-layer metrics.  Every run checks the studies' outputs; the last stdout
line is ``{"correct", "attempted", "failed", "metrics"}`` and the exit code
is 1 when a check failed.  The environment is printed on the line before
it, and the raw samples and spans are kept under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
DEADLINE_S = 170.0
SETUP_PROBES = 3
PINNED = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "STABMPO_WORKERS": "1",
}


class BenchError(RuntimeError):
    pass


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.update(PINNED)
    env["PYTHONPATH"] = str(root / "src")
    return env


def call_client(argv: list[str], env: dict, deadline: float) -> dict:
    """Run client.py in a fresh interpreter and parse its last stdout line."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a client")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "client.py"), *argv],
            env=env, stdout=subprocess.PIPE, timeout=remaining, text=True,
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"client {argv[:3]} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"client {argv[:3]} exited with {proc.returncode}")
    return json.loads(lines[-1])


def environment(root: Path, env: dict) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        commit = proc.stdout.strip() or "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: env.get(k) for k in PINNED},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.machine(),
        "git_commit": commit,
    }


def measure(args, root: Path, workdir: Path) -> dict:
    env = child_env(root)
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload] + (["--toy"] if args.toy else [])
    probes = []
    if not args.trace:
        # the first import may write bytecode caches; the median discards it
        for _ in range(1 if args.toy else SETUP_PROBES):
            probes.append(call_client(["setup", *common], env, deadline)["setup_s"])
    res = call_client(
        ["run", *common, "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--workdir", str(workdir)],
        env, deadline,
    )
    res["setup_samples"] = probes + [res["setup_s"]]
    res["environment"] = environment(root, env)
    return res


def metrics_of(res: dict, trace: int) -> dict[str, float]:
    if trace:
        out = dict(res["per_layer"])
        out["failed_ratio"] = res["failed"] / res["attempted"]
        return out
    return {
        "wall_s": statistics.median(res["walls"]),
        "setup_s": statistics.median(res["setup_samples"]),
        "peak_rss_mb": res["peak_rss_mb"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="n=4 instances (smoke test)")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "stabmpo" / "__init__.py").is_file():
        print("run.py: no src/stabmpo here; run it from the root of a stabmpo checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    declared = spec["per_layer" if args.trace else "end_to_end"]

    workdir = root / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        res = measure(args, root, workdir)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    values = metrics_of(res, args.trace)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    (workdir / "result.json").write_text(json.dumps(res, indent=1), encoding="utf-8")

    print("environment " + json.dumps(res["environment"]))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0 if res["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
