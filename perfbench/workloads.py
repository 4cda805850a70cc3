"""The benchmark's three studies and their traced run.

Each workload is one study configuration run through the public harness
entry points (``run_tdoped`` / ``run_floquet``), exactly as the CLI runs
it.  ``traced_study`` runs the same entry point with the layer functions
and methods that the harness calls replaced by wrappers that open a span
and update the per-layer counts, so the traced run is the program itself.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import stabmpo.harness as harness
from stabmpo.circuit import StabMpoCompiler
from stabmpo.harness import FloquetConfig, TDopedConfig, run_floquet, run_tdoped
from stabmpo.mps import Mps

OUTPUT_FILES = ("trajectory.csv", "aggregate.csv", "temporal.csv")

# Spans that wrap one call into a layer of stabmpo.  Everything else inside
# a study span (the realization loop, aggregation, CSV output) is harness
# self time.
LAYER_SPANS = (
    "clifford.sample",
    "clifford.tableau",
    "circuit.pullback",
    "circuit.apply_layer",
    "circuit.obs_pullback",
    "mps.expect",
    "mps.entropy",
    "mps.gate",
    "temporal.horizontal",
)


@dataclass(frozen=True)
class Workload:
    kind: str  # "tdoped" or "floquet"
    params: dict
    toy: dict
    # the lazy two-qubit Clifford enumeration is part of this workload's set-up
    enumerates: bool
    # seconds per study on a 2-core Xeon VM with one BLAS thread; sets how
    # many studies a run of a given length makes
    nominal_s: float

    def config(self, seed: int, toy: bool = False):
        params = self.toy if toy else self.params
        cls = TDopedConfig if self.kind == "tdoped" else FloquetConfig
        return cls(seed=seed, **params)

    def run(self, cfg, outdir: Path):
        """One untraced study through the public harness entry point."""
        if self.kind == "tdoped":
            return run_tdoped(cfg, outdir)
        return run_floquet(cfg, outdir)


WORKLOADS = {
    # Clifford tableau and rotation pull-back dominate (about 76%); layers
    # cover about 19% of the chain.
    "tdoped-wide": Workload(
        "tdoped",
        dict(n=128, m_layers=40, depth_d=1, chi=32, realizations=1),
        dict(n=4, m_layers=3, depth_d=1, chi=4, realizations=1),
        enumerates=True,
        nominal_s=8.5,
    ),
    # Layer application and measurement dominate; the tableau takes under 3%.
    # chi = 128 >= 2**6 is never reached, so the dense oracle checks each period.
    "floquet": Workload(
        "floquet",
        dict(n=12, epsilon=0.1, periods=15, chi=128, realizations=2),
        dict(n=4, epsilon=0.1, periods=3, chi=16, realizations=2),
        enumerates=False,
        nominal_s=3.5,
    ),
    # Baseline two-site gates and horizontal column transfers take about 60%.
    # chi = 256 = 4**(m/2) is above every bond the state, the
    # baseline and the folded auxiliary chain can reach, so nothing is cut at
    # the cap: a cut inside a degenerate Schmidt multiplet can leave the
    # horizontal value an imaginary residual, which horizontal_contract rejects.
    "temporal": Workload(
        "tdoped",
        dict(n=24, m_layers=8, depth_d=1, chi=256, realizations=8,
             run_baseline=True, run_temporal=True),
        dict(n=4, m_layers=3, depth_d=1, chi=8, realizations=2,
             run_baseline=True, run_temporal=True),
        enumerates=True,
        nominal_s=2.4,
    ),
}


def read_outputs(outdir: Path) -> dict[str, bytes]:
    return {
        name: (outdir / name).read_bytes()
        for name in OUTPUT_FILES
        if (outdir / name).exists()
    }


# ----------------------------------------------------------------------
# per-layer counts gathered at the same boundaries as the spans
# ----------------------------------------------------------------------
class LayerCounts:
    def __init__(self) -> None:
        self.clifford_gates = 0
        self.layers = 0
        self.identity_layers = 0
        self.span_fracs: list[float] = []
        self.mps_gates = 0
        self.bond_max = 0
        self.bond_means: list[float] = []
        self.step_errors: list[float] = []
        self.sweeps = 0
        self.chain_bond_max = 0

    def layer(self, layer, n: int) -> None:
        self.layers += 1
        support = layer.letters.support
        if not support:
            self.identity_layers += 1
            self.span_fracs.append(0.0)
        else:
            self.span_fracs.append((support[-1] - support[0] + 1) / n)

    def step(self, state: Mps, err: float) -> None:
        bonds = state.bond_dims[1:-1]
        self.bond_max = max(self.bond_max, state.max_bond)
        self.bond_means.append(float(np.mean(bonds)) if bonds else 1.0)
        self.step_errors.append(err)

    def metrics(self) -> dict[str, float]:
        return {
            "clifford.gates": self.clifford_gates,
            "circuit.layers": self.layers,
            "circuit.identity_layers": self.identity_layers,
            "circuit.span_frac": float(np.mean(self.span_fracs)),
            "mps.gates": self.mps_gates,
            "mps.bond_max": self.bond_max,
            "mps.bond_mean": float(np.mean(self.bond_means)),
            "mps.discarded_weight": float(np.mean(self.step_errors)),
            "temporal.sweeps": self.sweeps,
            "temporal.chain_bond_max": self.chain_bond_max,
        }


# ----------------------------------------------------------------------
# traced run: the harness itself, with spans around its layer calls
# ----------------------------------------------------------------------
def _count_clifford(counts: LayerCounts, args, out) -> None:
    circ = args[1]
    if circ is not None:
        counts.clifford_gates += len(circ.gates)


def _count_gate(counts: LayerCounts, args, out) -> None:
    counts.mps_gates += 1


def _count_sweep(counts: LayerCounts, args, out) -> None:
    counts.sweeps += 1
    counts.chain_bond_max = max(counts.chain_bond_max, out.max_bond)


# (owner, attribute, span, count hook) for every layer call the harness makes.
# The harness imports the free functions into its own namespace, so they are
# replaced there; the methods are replaced on their classes.
INSTRUMENTED = (
    (harness, "sample_tdoped_blocks", "clifford.sample", None),
    (harness, "sample_u1_clifford", "clifford.sample", None),
    (StabMpoCompiler, "push_clifford", "clifford.tableau", _count_clifford),
    (StabMpoCompiler, "push_rotation", "circuit.pullback",
     lambda c, args, out: c.layer(out, args[0].n)),
    (harness, "apply_layer", "circuit.apply_layer", lambda c, args, out: c.step(*out)),
    (harness, "transform_observable", "circuit.obs_pullback", None),
    (Mps, "expect_pauli", "mps.expect", None),
    (Mps, "entanglement_entropy", "mps.entropy", None),
    (Mps, "apply_1q_gate", "mps.gate", _count_gate),
    (Mps, "apply_2q_gate", "mps.gate", _count_gate),
    (harness, "horizontal_contract", "temporal.horizontal", _count_sweep),
)


@contextmanager
def instrumented(tr, counts: LayerCounts):
    """Replace the layer calls with wrappers that open a span and count.

    A layer call made from inside another one (``horizontal_contract``
    measures entropies with ``Mps.entanglement_entropy``) runs unwrapped, so
    its time stays in the outer span.
    """
    busy = False

    def wrap(fn, name, count):
        def wrapper(*args, **kwargs):
            nonlocal busy
            if busy:
                return fn(*args, **kwargs)
            busy = True
            try:
                with tr.span(name):
                    out = fn(*args, **kwargs)
            finally:
                busy = False
            if count is not None:
                count(counts, args, out)
            return out

        return wrapper

    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in INSTRUMENTED]
    try:
        for (owner, attr, fn), (_, _, name, count) in zip(saved, INSTRUMENTED):
            setattr(owner, attr, wrap(fn, name, count))
        yield
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)


def traced_study(wl: Workload, cfg, outdir: Path, tr) -> LayerCounts:
    """One study through the harness entry point with its layer calls traced."""
    counts = LayerCounts()
    with instrumented(tr, counts), tr.span("study"):
        wl.run(cfg, outdir)
    return counts
