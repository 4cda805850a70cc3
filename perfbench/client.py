"""One benchmark client: set-up, a closed loop of studies, then the checks.

``run.py`` starts this file in a fresh interpreter with BLAS threads and
``STABMPO_WORKERS`` pinned to 1:

    client.py setup --workload W [--toy]
    client.py run --workload W --seed S --seconds T --trace 0|1 --workdir D [--toy]

The client runs a fixed list of studies back to back (a closed loop with
one client).  The list depends only on the workload, ``--seed`` and
``--seconds``: enough studies to fill ``--seconds`` at the workload's
nominal study time, each with its own input seed, and a last one that
repeats the first study's input.  Every run therefore times the same
circuits however fast the host is, averages over several of them, and the
repeat must write the same bytes as the first study, which is the
determinism check.  With ``--trace 1`` half as many studies each run once
untraced and once traced, in alternating order.  The last stdout line is
one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from spans import Tracer


def set_up(name: str, tr: Tracer) -> float:
    """Import stabmpo and fill the lazy caches the workload needs."""
    start = time.perf_counter()
    with tr.span("setup.import"):
        from workloads import WORKLOADS
    if WORKLOADS[name].enumerates:
        from stabmpo.clifford import two_qubit_clifford_sequences

        with tr.span("clifford.enumerate"):
            two_qubit_clifford_sequences()
    return time.perf_counter() - start


def study_seeds(wl, seed: int, seconds: float, trace: int) -> list[int]:
    """Input seeds of a run's studies, enough to fill ``seconds``."""
    count = max(2, round(seconds / wl.nominal_s))
    if trace:
        return [seed * 1000 + k for k in range(max(1, count // 2))]
    return [seed * 1000 + k for k in range(count - 1)] + [seed * 1000]


class Client:
    def __init__(self, args) -> None:
        from workloads import WORKLOADS

        self.wl = WORKLOADS[args.workload]
        self.workdir = Path(args.workdir)
        self.attempted = 0
        self.failed = 0

    def fail(self, messages: list[str], count: int = 1) -> None:
        """Report failures; ``count`` of the attempted items failed."""
        if messages:
            self.failed += count
        for msg in messages:
            print(f"FAILED: {msg}", file=sys.stderr)

    def study(self, cfg, k: int, tr: Tracer | None = None):
        """One study, traced when ``tr`` is given.

        Returns its wall time, output bytes and layer counts (None untraced),
        or None when it raised.  Untraced outputs are checked row by row; a
        traced study must write the same bytes as its untraced twin.
        """
        from checks import row_failures, trajectory_rows
        from workloads import read_outputs, traced_study

        what = "traced study" if tr else "study"
        outdir = self.workdir / f"{what.replace(' ', '-')}{k}"
        self.attempted += cfg.realizations
        counts = None
        try:
            start = time.perf_counter()
            if tr:
                counts = traced_study(self.wl, cfg, outdir, tr)
            else:
                self.wl.run(cfg, outdir)
            wall = time.perf_counter() - start
            files = read_outputs(outdir)
        except Exception:
            self.fail([f"{what} {k} raised:\n{traceback.format_exc()}"], cfg.realizations)
            return None
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
        if not tr:
            bad = row_failures(trajectory_rows(files["trajectory.csv"]))
            self.fail(bad, len(bad))
        return wall, files, counts

    def check(self, name: str, ok: bool, message: str) -> None:
        self.attempted += 1
        self.fail([] if ok else [f"{name}: {message}"])


def layer_metrics(tr: Tracer, study: int, counts, wall_untraced: float, wall_traced: float):
    from workloads import LAYER_SPANS

    out = {f"{name}_s": tr.seconds(name, under=study) for name in LAYER_SPANS}
    out["harness.self_s"] = tr.duration(study) - sum(out.values())
    out["trace.overhead_s"] = wall_traced - wall_untraced
    out.update(counts.metrics())
    return out


def run(args) -> dict:
    tr = Tracer()
    setup_s = set_up(args.workload, tr)
    client = Client(args)
    wl = client.wl
    walls: list[float] = []
    first: dict[str, bytes] | None = None
    seeds = study_seeds(wl, args.seed, args.seconds, args.trace)
    cfg0 = wl.config(seeds[0], args.toy)
    per_study: list[dict] = []

    for k, study_seed in enumerate(seeds):
        cfg = wl.config(study_seed, args.toy)
        if not args.trace:
            res = client.study(cfg, k)
            if res is None:
                continue
            walls.append(res[0])
            if k == 0:
                first = res[1]
            elif k == len(seeds) - 1 and first is not None:
                client.check("determinism", res[1] == first,
                             f"study {k} repeats study 0 but wrote other CSV bytes")
            continue
        if k % 2 == 0:
            plain = client.study(cfg, k)
            traced = client.study(cfg, k, tr)
        else:
            traced = client.study(cfg, k, tr)
            plain = client.study(cfg, k)
        if plain is not None and traced is not None:
            walls.append(plain[0])
            if k == 0:
                first = plain[1]
            client.check("trace", traced[1] == plain[1],
                         f"traced study {k} wrote other CSV bytes than the untraced run")
            per_study.append(
                layer_metrics(tr, tr.last("study"), traced[2], plain[0], traced[0])
            )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    from checks import CHECKS, discarded_weight, trajectory_rows

    oracle_err = float("nan")
    dw = float("nan")
    if first is not None:
        rows = trajectory_rows(first["trajectory.csv"])
        dw = discarded_weight(rows)
        try:
            oracle_err, failures = CHECKS[args.workload](cfg0, rows, args.toy)
        except Exception:
            failures = [f"check raised:\n{traceback.format_exc()}"]
        client.attempted += 1
        client.fail(failures)

    result = {
        "setup_s": setup_s,
        "walls": walls,
        "peak_rss_mb": peak_rss_mb,
        "attempted": client.attempted,
        "failed": client.failed,
    }
    if args.trace:
        tr.write(Path(args.workdir) / "spans.jsonl")
        per_layer = {
            key: statistics.median(s[key] for s in per_study)
            for key in (per_study[0] if per_study else ())
        }
        per_layer["clifford.enumerate_s"] = tr.seconds("clifford.enumerate")
        per_layer["discarded_weight"] = dw
        per_layer["oracle_err"] = oracle_err
        result["per_layer"] = per_layer
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("role", choices=("setup", "run"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir")
    parser.add_argument("--toy", action="store_true")
    args = parser.parse_args(argv)
    if args.role == "setup":
        result = {"setup_s": set_up(args.workload, Tracer())}
    else:
        result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
