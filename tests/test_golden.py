"""Golden numerics: three studies rerun against their recorded CSV values.

Each ``tests/golden/<study>.json`` holds every cell of the study's CSV
outputs.  Integer and text cells must match exactly and float cells to
1e-10, so a change of representation that leaves the numerics alone passes
and a change of the numerics fails.  The truncated gate-by-gate baseline is
left out: a top Schmidt multiplet wider than chi is cut at the cap, and
there rounding picks the kept vectors, so its values move by O(1) under
1e-14 perturbations.

Regenerate the files (only when a numerical change is intended) with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import csv
import json
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

import pytest

from stabmpo.harness import FloquetConfig, TDopedConfig, run_floquet, run_tdoped

GOLDEN_DIR = Path(__file__).parent / "golden"
FLOAT_TOL = 1e-10
OUTPUT_FILES = ("trajectory.csv", "aggregate.csv", "temporal.csv")

# the benchmark's floquet and temporal studies, and its tdoped-wide study
# (one realization, layer track only), all at seed 5
STUDIES = {
    "floquet": (
        run_floquet,
        FloquetConfig(n=12, epsilon=0.1, periods=15, chi=128, realizations=2, seed=5),
    ),
    "temporal": (
        run_tdoped,
        TDopedConfig(n=24, m_layers=8, depth_d=1, chi=256, realizations=8, seed=5,
                     run_baseline=True, run_temporal=True),
    ),
    "tdoped": (
        run_tdoped,
        TDopedConfig(n=128, m_layers=40, depth_d=1, chi=32, realizations=1, seed=5),
    ),
}


def _cell(text: str):
    """An int or float cell as its number, any other cell as text."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def study_tables(name: str, outdir: Path) -> dict[str, list[list]]:
    """Run one study into ``outdir``; every CSV it writes as rows of cells."""
    run, cfg = STUDIES[name]
    run(cfg, outdir)
    tables = {}
    for fname in OUTPUT_FILES:
        if (outdir / fname).exists():
            with open(outdir / fname, newline="", encoding="utf-8") as fh:
                tables[fname] = [[_cell(c) for c in row] for row in csv.reader(fh)]
    return tables


def write_goldens() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, (_, cfg) in STUDIES.items():
        with tempfile.TemporaryDirectory() as tmp:
            tables = study_tables(name, Path(tmp))
        files = [  # one CSV row per line
            f"{json.dumps(fname)}: [\n"
            + ",\n".join(json.dumps(row, allow_nan=False) for row in rows)
            + "\n]"
            for fname, rows in tables.items()
        ]
        text = f'{{"config": {json.dumps(asdict(cfg))},\n"files": {{\n'
        text += ",\n".join(files) + "\n}}\n"
        (GOLDEN_DIR / f"{name}.json").write_text(text, encoding="utf-8")


@pytest.mark.parametrize("name", sorted(STUDIES))
def test_study_matches_golden(name, tmp_path):
    golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8"))
    assert golden["config"] == asdict(STUDIES[name][1]), "config differs from the golden's"
    got = study_tables(name, tmp_path)
    assert sorted(got) == sorted(golden["files"])
    for fname, want_rows in golden["files"].items():
        rows = got[fname]
        assert len(rows) == len(want_rows), fname
        for i, (row, want) in enumerate(zip(rows, want_rows)):
            assert len(row) == len(want), f"{fname} row {i}"
            for a, b in zip(row, want):
                where = f"{fname} row {i}: {a!r} vs {b!r}"
                assert type(a) is type(b), where
                if isinstance(b, float):
                    assert abs(a - b) <= FLOAT_TOL, where
                else:
                    assert a == b, where


if __name__ == "__main__":
    write_goldens()
    sys.exit(0)
