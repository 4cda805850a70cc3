"""Experiment drivers, disorder averaging and file output.

Two studies are provided at configurable scale: brick-wall random Clifford
circuits doped with T gates (entanglement of the layer-evolved state vs a
gate-by-gate baseline, plus the temporal-entropy sweep) and kicked Floquet
dynamics with random magnetization-preserving Cliffords (magnetization
decay against its closed form).  Both run through one driver: each
config names its blocks, bond cap, measurement and record cadence, and
``_realization`` compiles, evolves and records them.  Every
realization draws from an RNG stream keyed by (seed, realization_id), so
subsets are stable and runs are reproducible byte for byte.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field, fields
from math import cos, inf, pi, sqrt
from pathlib import Path
from typing import ClassVar

import numpy as np

from . import __version__
from .circuit import (
    RotationGate,
    StabMpoCompiler,
    apply_layer,
    t_gate,
    transform_observable,
)
from .clifford import (
    CliffordCircuit,
    CliffordTableau,
    sample_brickwall,
    sample_u1_clifford,
)
from .dense import GATE_2Q, apply_unitary, gate_matrix, rotation_matrix, run_blocks
from .dense import expectation as dense_expectation
from .mps import Mps, TruncationPolicy, split_two_site
from .pauli import PauliString, _angle, _index, basis_bits
from .temporal import horizontal_contract

WORKERS_ENV = "STABMPO_WORKERS"


# ----------------------------------------------------------------------
# configs: each one also defines its study for the shared driver
# ----------------------------------------------------------------------
_AGG_HEADER = (
    "track,m,entropy_mean,entropy_stderr,observable_mean,observable_stderr"
)


def _check_fields(cfg, names=None) -> None:
    """The one rule of a study setting, by its field's declared type.

    An int goes through ``_index`` from ``cfg.minimum`` (1 if not listed), a
    float through ``_angle``, and a bool or a str must be exactly that type.
    """
    for f in fields(cfg):
        if names is not None and f.name not in names:
            continue
        value, kind = getattr(cfg, f.name), getattr(f.type, "__name__", f.type)
        if kind == "int":
            _index(value, cfg.minimum.get(f.name, 1), inf, f.name)
        elif kind == "float":
            _angle(value, f.name)
        elif type(value) is not {"bool": bool, "str": str}[kind]:
            raise ValueError(f"{f.name} must be a {kind}, got {value!r}")


@dataclass
class TDopedConfig:
    """T-doped circuits: a record per block; optional baseline and temporal tracks."""

    kind: ClassVar[str] = "tdoped"
    aggregate_header: ClassVar[str] = _AGG_HEADER
    record_every: ClassVar[int] = 1
    # numpy rejects a negative seed; m_layers = 0 is a pure-Clifford circuit
    minimum: ClassVar[dict] = {"n": 2, "m_layers": 0, "seed": 0}

    n: int = 16
    m_layers: int = 10
    depth_d: int = 1
    chi: int = 64
    realizations: int = 20
    seed: int = 1234
    observable: str = ""
    run_baseline: bool = False
    run_temporal: bool = False

    def validate_circuit(self) -> None:
        """Check the fields that sampling a circuit reads: n, m_layers, depth_d, seed."""
        _check_fields(self, ("n", "m_layers", "depth_d", "seed"))

    def validate(self) -> None:
        _check_fields(self)
        if not self.observable_pauli().is_hermitian:
            raise ValueError("observable must be Hermitian")

    def observable_pauli(self) -> PauliString:
        if not self.observable:
            return PauliString.single(self.n, self.n // 2, 3)
        try:
            p = PauliString.from_literal(self.observable)
        except ValueError as exc:
            raise ValueError(f"observable: {exc}") from None
        if p.n != self.n:
            raise ValueError(f"observable {self.observable!r} has {p.n} letters, n is {self.n}")
        return p

    def sample_blocks(self, rng: np.random.Generator):
        return sample_tdoped_blocks(self.n, self.m_layers, self.depth_d, rng)

    def measure(self, state: Mps, tableau: CliffordTableau) -> float:
        """The observable on the evolved state, pulled back through ``tableau``."""
        nu = transform_observable(tableau, self.observable_pauli())
        return state.expect_pauli(nu)

    def reference(self, m: int) -> tuple:
        return ()


@dataclass
class FloquetConfig:
    """Kicked Floquet dynamics: one record per period of n kicks."""

    kind: ClassVar[str] = "floquet"
    aggregate_header: ClassVar[str] = _AGG_HEADER + ",analytic"
    run_baseline: ClassVar[bool] = False
    run_temporal: ClassVar[bool] = False
    minimum: ClassVar[dict] = {"seed": 0}

    n: int = 12
    epsilon: float = 0.1
    periods: int = 15
    chi: int = 128
    realizations: int = 50
    seed: int = 1234

    def validate(self) -> None:
        _check_fields(self)
        if not 0.0 <= self.epsilon <= pi / 2:
            raise ValueError("epsilon must lie in [0, pi/2]")

    @property
    def record_every(self) -> int:
        return self.n

    def sample_blocks(self, rng: np.random.Generator):
        return sample_floquet_blocks(self.n, self.epsilon, self.periods, rng)

    def measure(self, state: Mps, tableau: CliffordTableau) -> float:
        """Magnetization: the mean of <Z_j> pulled back through ``tableau``.

        The study's Cliffords are U(1), and a product of them maps each Z_j
        to +Z at a site pi(j), so the pull-backs are Z on every site: one
        ``Mps.expect_local`` pass reads them, and the tableau is not needed.
        """
        return float(np.dot(np.ones(self.n), state.expect_local([3] * self.n))) / self.n

    def reference(self, m: int) -> tuple:
        return (analytic_magnetization(self.epsilon, m),)


# ----------------------------------------------------------------------
# sampling helpers (shared with tests and the dense oracle)
# ----------------------------------------------------------------------
def sample_tdoped_blocks(
    n: int, m_layers: int, depth_d: int, rng: np.random.Generator
) -> list[tuple[CliffordCircuit, RotationGate]]:
    """M blocks of (brick-wall Clifford, T at a uniformly random qubit).

    The brick-wall sublayer parity continues across blocks so the stacked
    circuit forms a single wall.
    """
    blocks = []
    parity = 0
    for _ in range(m_layers):
        circ = sample_brickwall(n, depth_d, rng, start_parity=parity)
        parity = (parity + depth_d) % 2
        site = int(rng.integers(n))
        blocks.append((circ, t_gate(site)))
    return blocks


def sample_floquet_blocks(
    n: int, epsilon: float, periods: int, rng: np.random.Generator
) -> list[tuple[CliffordCircuit | None, RotationGate]]:
    """Per period: one U(1) Clifford followed by N single-site X kicks."""
    blocks: list[tuple[CliffordCircuit | None, RotationGate]] = []
    for _ in range(periods):
        circ = sample_u1_clifford(n, rng)
        for j in range(n):
            blocks.append((circ if j == 0 else None, RotationGate(j, 1, pi + 2 * epsilon)))
    return blocks


def realization_rng(seed: int, realization: int) -> np.random.Generator:
    return np.random.default_rng([seed, realization])


# ----------------------------------------------------------------------
# analytic reference and replica-twirl checks
# ----------------------------------------------------------------------
def analytic_magnetization(epsilon: float, m: int) -> float:
    """Closed-form disorder-averaged magnetization (-1)^m cos(2 eps)^m."""
    if m < 0:
        raise ValueError("m must be >= 0")
    return (-1.0) ** m * cos(2 * epsilon) ** m


def s_twirl_matrix() -> np.ndarray:
    """Average of S^mu x S^mu* over mu in {0..3}: the |00>,|11> projector."""
    s = np.diag([1.0, 1j]).astype(np.complex128)
    acc = np.zeros((4, 4), dtype=np.complex128)
    power = np.eye(2, dtype=np.complex128)
    for _ in range(4):
        acc += np.kron(power, power.conj())
        power = power @ s
    return acc / 4.0


def kick_channel(epsilon: float) -> np.ndarray:
    """Projected single-site replica channel of one kicked period."""
    proj = s_twirl_matrix()
    r = rotation_matrix(1, pi + 2 * epsilon)
    return proj @ np.kron(r, r.conj()) @ proj


def twirl_s_channel_check(epsilons=(0.0, 0.1, 0.3), atol: float = 1e-12) -> bool:
    """Verify the replica-average identities behind the magnetization law.

    Checks that the phase-gate twirl equals diag(1,0,0,1), that correlated
    CZ pairs leave the projected subspace invariant, and that the kicked
    channel has eigenvalues 1 and -cos(2 eps) on |00> +- |11>.
    """
    proj = s_twirl_matrix()
    if not np.allclose(proj, np.diag([1.0, 0.0, 0.0, 1.0]), atol=atol):
        return False

    # correlated CZ on (system, replica) pairs, qubit order (c, c', t, t')
    eye16 = np.eye(16, dtype=np.complex128)
    cz_pair = apply_unitary(
        apply_unitary(eye16, GATE_2Q["CZ"], (0, 2), 4), GATE_2Q["CZ"], (1, 3), 4
    )
    p4 = np.kron(proj, proj)
    if not np.allclose(cz_pair @ p4, p4, atol=atol):
        return False

    plus = np.array([1, 0, 0, 1], dtype=np.complex128)
    minus = np.array([1, 0, 0, -1], dtype=np.complex128)
    for eps in epsilons:
        k = kick_channel(eps)
        if not np.allclose(k @ plus, plus, atol=atol):
            return False
        if not np.allclose(k @ minus, -cos(2 * eps) * minus, atol=atol):
            return False
    return True


def dense_oracle_run(n: int, blocks, bits, observable: PauliString | None = None):
    """Full statevector run of a sampled block sequence (oracle-capped).

    Returns the final vector, or the real observable expectation when one
    is given.  ``bits`` must hold one initial bit per qubit.
    """
    state = run_blocks(blocks, basis_bits(bits, n))
    if observable is None:
        return state
    val = dense_expectation(state, observable)
    return float(val.real)


# ----------------------------------------------------------------------
# the study driver: one realization loop, one run/aggregate/write path
# ----------------------------------------------------------------------
def apply_gates(state: Mps, circ, policy: TruncationPolicy) -> tuple[Mps, list[float]]:
    """Sublayer-by-sublayer evolution; returns the state and each sublayer's loss.

    A run of gates on disjoint qubits is one sublayer and one ``Mps.apply_mpo``
    window: a one-qubit gate is a bond-1 site, a two-qubit gate, which must
    act on adjacent qubits (a, a + 1), its two ``split_two_site`` sites.  All
    of the circuit's two-qubit gates are split in one call.
    """
    mats = [gate_matrix(g) for g in circ.gates if len(g.qubits) == 2]
    pairs = iter(split_two_site(mats) if mats else ())
    sublayers, busy = [], set()
    for g in circ.gates:
        if not sublayers or busy.intersection(g.qubits):
            sublayers.append([None] * circ.n)
            busy = set()
        busy.update(g.qubits)
        if len(g.qubits) == 1:
            sublayers[-1][g.qubits[0]] = gate_matrix(g)[None, :, :, None]
            continue
        a, b = g.qubits
        if b != a + 1:
            raise ValueError(f"gate {g.name} on {g.qubits} is not on adjacent qubits")
        sublayers[-1][a], sublayers[-1][b] = next(pairs)
    errs = []
    for ops in sublayers:
        state, err = state.apply_mpo(ops, policy)
        errs.append(err)
    return state, errs


def _record(state: Mps, value: float, cum: float) -> tuple:
    """One per-step record in trajectory.csv column order."""
    return (
        state.entanglement_entropy(state.n // 2),
        value,
        state.max_bond,
        cum,
        int(state.is_zero),
    )


def _realization(cfg: TDopedConfig | FloquetConfig, realization: int) -> dict:
    """Evolve one realization of a study and record it per track.

    The stabmpo track gets a record after every ``cfg.record_every`` blocks;
    the gate-by-gate baseline and the temporal sweep, when the study runs
    them, at the same steps.
    """
    rng = realization_rng(cfg.seed, realization)
    blocks = cfg.sample_blocks(rng)
    policy = TruncationPolicy(chi_max=cfg.chi)
    bits = [0] * cfg.n

    comp = StabMpoCompiler(cfg.n)
    state = Mps.product_state(bits)
    base = Mps.product_state(bits) if cfg.run_baseline else None
    obs = cfg.observable_pauli() if cfg.run_baseline or cfg.run_temporal else None

    out = dict(realization=realization, stabmpo=[], baseline=[], temporal=[])
    cum = 0.0
    cum_base = 0.0
    for k, (circ, rot) in enumerate(blocks, start=1):
        comp.push_clifford(circ)
        state, err = apply_layer(state, comp.push_rotation(rot), policy)
        cum += err
        if base is not None:
            base, gate_errs = apply_gates(base, circ, policy)
            for gerr in gate_errs:  # per sublayer: the running sum keeps its rounding
                cum_base += gerr
            base = base.apply_1q_gate(rotation_matrix(rot.axis, rot.theta), rot.site)
        if k % cfg.record_every:
            continue

        out["stabmpo"].append(_record(state, cfg.measure(state, comp.tableau), cum))
        if base is not None:
            out["baseline"].append(_record(base, base.expect_pauli(obs), cum_base))
        if cfg.run_temporal:
            hres = horizontal_contract(comp.result(), obs, bits, policy)
            out["temporal"].append(hres.entropy_bits)
    return out


def _run_realizations(cfg) -> list[dict]:
    count = cfg.realizations
    raw = os.environ.get(WORKERS_ENV, "1")
    workers = int(raw) if raw.strip().isdecimal() else 0
    if workers < 1:
        raise ValueError(f"{WORKERS_ENV} must be a positive integer, got {raw!r}")
    if workers == 1:
        results = [_realization(cfg, r) for r in range(count)]
    else:
        # imported only here, so a serial run never loads the pool's modules
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_realization, [cfg] * count, range(count)))
    return sorted(results, key=lambda d: d["realization"])


def mean_stderr(values) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    if len(arr) < 2:
        return mean, 0.0
    return mean, float(arr.std(ddof=1) / sqrt(len(arr)))


def _fmt(v) -> str:
    return repr(float(v)) if isinstance(v, float) else str(v)  # np.float64 too


def _write_lines(path: Path, lines) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass
class RunResult:
    config: object
    rows: list[tuple] = field(default_factory=list)
    aggregate_rows: list[tuple] = field(default_factory=list)
    temporal_mean: np.ndarray | None = None
    outdir: Path | None = None


_TRAJ_HEADER = (
    "realization,m,track,entropy_bits,observable,max_bond,"
    "cum_truncation_error,zero_state"
)


def _run(cfg: TDopedConfig | FloquetConfig, outdir: str | Path | None) -> RunResult:
    cfg.validate()
    results = _run_realizations(cfg)
    tracks = ["stabmpo"] + (["baseline"] if cfg.run_baseline else [])

    rows = [
        (res["realization"], m, track, *vals)
        for res in results
        for track in tracks
        for m, vals in enumerate(res[track], start=1)
    ]

    agg_rows = []
    for track in tracks:
        for m in range(1, len(results[0][track]) + 1):
            ent = [res[track][m - 1][0] for res in results]
            obs = [res[track][m - 1][1] for res in results]
            agg_rows.append(
                (track, m, *mean_stderr(ent), *mean_stderr(obs), *cfg.reference(m))
            )

    temporal_mean = None
    if results[0]["temporal"]:
        stack = np.array([res["temporal"] for res in results])  # (R, m, n)
        temporal_mean = stack.mean(axis=0)

    out = RunResult(cfg, rows, agg_rows, temporal_mean)
    if outdir is not None:
        _write_files(out, Path(outdir))
    return out


def run_tdoped(cfg: TDopedConfig, outdir: str | Path | None = None) -> RunResult:
    """Run the T-doped study; write meta/trajectory/aggregate (and temporal) CSVs."""
    return _run(cfg, outdir)


def run_floquet(cfg: FloquetConfig, outdir: str | Path | None = None) -> RunResult:
    """Run the kicked Floquet study; write meta/trajectory/aggregate CSVs."""
    return _run(cfg, outdir)


def _write_files(res: RunResult, outdir: Path) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    meta = [f"run={res.config.kind}", f"code_version={__version__}"]
    meta += [f"{k}={_fmt(v)}" for k, v in asdict(res.config).items()]
    _write_lines(outdir / "meta.txt", meta)

    traj = [_TRAJ_HEADER]
    for r, m, track, ent, obs, mb, cum, zero in res.rows:
        traj.append(
            f"{r},{m},{track},{_fmt(float(ent))},{_fmt(float(obs))},"
            f"{int(mb)},{_fmt(float(cum))},{int(zero)}"
        )
    _write_lines(outdir / "trajectory.csv", traj)

    agg = [res.config.aggregate_header]
    for track, m, *vals in res.aggregate_rows:
        agg.append(",".join([track, str(m)] + [_fmt(float(v)) for v in vals]))
    _write_lines(outdir / "aggregate.csv", agg)

    if res.temporal_mean is not None:  # the (m, n) entropy matrix, 1-based
        rows = ["n,m,entropy_bits"]
        for m, row in enumerate(res.temporal_mean, start=1):
            rows += [f"{j},{m},{_fmt(float(ent))}" for j, ent in enumerate(row, start=1)]
        _write_lines(outdir / "temporal.csv", rows)
    res.outdir = outdir


# ----------------------------------------------------------------------
# config files
# ----------------------------------------------------------------------
def parse_config_file(path: str | Path) -> dict:
    """Flat key=value file; '#' starts a comment, blank lines are skipped."""
    values: dict[str, str] = {}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line: {raw!r}")
        key, _, val = line.partition("=")
        values[key.strip()] = val.strip()
    return values


_BOOL_WORDS = {
    "1": True, "true": True, "yes": True, "on": True,
    "0": False, "false": False, "no": False, "off": False,
}
_NUMBERS = {"int": (int, "an int"), "float": (float, "a float")}


def config_from_sources(cls, file_values: dict, overrides: dict):
    """Build a config dataclass from file values plus CLI overrides."""
    types = {f.name: f.type for f in fields(cls)}
    kwargs = {}
    merged = dict(file_values)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    for key, val in merged.items():
        if key not in types:
            raise ValueError(f"unknown config key {key!r}")
        ftype = getattr(types[key], "__name__", types[key])  # a type or its name
        if isinstance(val, str):
            if ftype == "bool":
                if val.lower() not in _BOOL_WORDS:
                    raise ValueError(f"config key {key!r} needs a boolean, got {val!r}")
                val = _BOOL_WORDS[val.lower()]
            elif ftype in _NUMBERS:
                number, kind = _NUMBERS[ftype]
                try:
                    val = number(val)
                except ValueError:
                    msg = f"config key {key!r} needs {kind}, got {val!r}"
                    raise ValueError(msg) from None
        kwargs[key] = val
    return cls(**kwargs)
