"""Command-line interface.

Subcommands: ``tdoped``, ``floquet``, ``temporal`` (T-doped run with the
temporal-entropy sweep), ``compile`` (sample a T-doped circuit and write
its compiled form) and ``selftest``.  Run parameters come from an optional
key=value config file overridden by flags; every run writes meta.txt plus
CSV files into the output directory.  The temporal sweep is switched on by
the ``temporal`` subcommand or by ``run_temporal`` in a config file.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .circuit import compile_blocks
from .harness import (
    FloquetConfig,
    TDopedConfig,
    config_from_sources,
    parse_config_file,
    realization_rng,
    run_floquet,
    run_tdoped,
    sample_tdoped_blocks,
)


def _add_common(parser: argparse.ArgumentParser, simulates: bool = True) -> None:
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--n", type=int, help="qubit count")
    if simulates:  # compile writes realization 0 and truncates nothing
        parser.add_argument("--chi", type=int, help="bond dimension cap")
        parser.add_argument("--realizations", type=int, help="disorder realizations")
    parser.add_argument("--seed", type=int, help="64-bit master seed")
    parser.add_argument("--out", help="output directory")


def _add_tdoped_args(parser: argparse.ArgumentParser) -> None:
    _add_common(parser)
    parser.add_argument("--m", type=int, dest="m_layers", help="number of blocks M")
    parser.add_argument("--d", type=int, dest="depth_d", help="brick-wall depth D")
    parser.add_argument("--observable", help="Pauli literal, default Z at n/2")
    parser.add_argument(
        "--baseline", action="store_true", default=None,
        help="also run the gate-by-gate reference track",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stabmpo",
        description="Clifford-dominated circuit simulation via compiled "
        "Pauli-rotation layers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_td = sub.add_parser("tdoped", help="random Clifford circuit doped with T gates")
    _add_tdoped_args(p_td)

    p_tmp = sub.add_parser("temporal", help="tdoped run with the temporal sweep on")
    _add_tdoped_args(p_tmp)

    p_fl = sub.add_parser("floquet", help="kicked U(1)-Clifford Floquet dynamics")
    _add_common(p_fl)
    p_fl.add_argument("--epsilon", type=float, help="kick deviation from pi")
    p_fl.add_argument("--periods", type=int, help="number of Floquet periods")

    p_cp = sub.add_parser("compile", help="sample blocks and write the compiled circuit")
    _add_common(p_cp, simulates=False)
    p_cp.add_argument("--m", type=int, dest="m_layers", help="number of blocks M")
    p_cp.add_argument("--d", type=int, dest="depth_d", help="brick-wall depth D")

    sub.add_parser("selftest", help="run the built-in oracle checks")
    return parser


def _collect(args, config_cls) -> dict:
    """Flag values for the fields of ``config_cls`` that the subcommand has."""
    out = {}
    for f in dataclasses.fields(config_cls):
        if hasattr(args, f.name):
            out[f.name] = getattr(args, f.name)
    if getattr(args, "baseline", None) is not None:
        out["run_baseline"] = args.baseline
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "selftest":
        from .selftest import run_selftest

        return run_selftest()

    try:
        file_values = parse_config_file(args.config) if args.config else {}
        if args.command in ("tdoped", "temporal", "floquet"):
            floquet = args.command == "floquet"
            cls = FloquetConfig if floquet else TDopedConfig
            cfg = config_from_sources(cls, file_values, _collect(args, cls))
            if args.command == "temporal":
                cfg.run_temporal = True
            outdir = Path(args.out) if args.out else Path(f"{args.command}_out")
            res = (run_floquet if floquet else run_tdoped)(cfg, outdir)
            print(f"wrote {res.outdir}")
            return 0

        if args.command == "compile":
            cfg = config_from_sources(
                TDopedConfig, file_values, _collect(args, TDopedConfig)
            )
            cfg.validate_circuit()  # compile reads no chi, realizations or observable
            rng = realization_rng(cfg.seed, 0)
            blocks = sample_tdoped_blocks(cfg.n, cfg.m_layers, cfg.depth_d, rng)
            compiled = compile_blocks(cfg.n, blocks)
            out = Path(args.out) if args.out else Path("compiled.stabmpo")
            out.write_text(compiled.to_text(), encoding="utf-8")
            print(f"wrote {out}")
            return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    return 2


if __name__ == "__main__":
    raise SystemExit(main())
