"""Compilation of Clifford + rotation sequences into Pauli-rotation layers.

A unitary given as alternating Clifford circuits and single-qubit
rotations R^mu(theta) = exp(-i theta/2 sigma^mu) is rewritten as a
residual Clifford times a stack of layers, each of which is a rotation
about a full Pauli string:

    layer = cos(theta_eff/2) I  -  i sin(theta_eff/2) |Sigma^gamma|

where gamma is the (signed) pull-back of the rotation axis through the
Cliffords accumulated so far and the sign is absorbed into theta_eff.
A layer's two branches are the identity and the Pauli string, which acts
on each site alone as a bit flip and a phase, so applying one to an MPS is
phi0 |psi> + phi1 P|psi> (``Mps.apply_rotation``): one signed permutation
per site, then compression, both restricted to the support window of gamma
(its first to last non-identity letter).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import cos, inf, pi, sin

import numpy as np

from .clifford import CliffordCircuit, CliffordTableau, _naming_line, append_to_inverse
from .mps import Mps, TruncationPolicy
from .pauli import ORACLE_CAP, PauliString, _angle, _index


@dataclass(frozen=True)
class RotationGate:
    """Single-qubit rotation exp(-i theta/2 sigma^axis) at ``site``."""

    site: int
    axis: int
    theta: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "site", _index(self.site, 0, inf, "rotation site"))
        object.__setattr__(self, "axis", _index(self.axis, 1, 3, "rotation axis"))
        object.__setattr__(self, "theta", _angle(self.theta, "rotation angle"))


def t_gate(site: int) -> RotationGate:
    """The T gate up to global phase: a Z rotation by pi/4."""
    return RotationGate(site, 3, pi / 4)


@dataclass(frozen=True)
class StabMpoLayer:
    """One compiled layer: signed Pauli string plus sign-absorbed angle."""

    gamma: PauliString
    theta_eff: float

    def __post_init__(self) -> None:
        if not self.gamma.is_hermitian:
            raise ValueError("layer string must be Hermitian")
        object.__setattr__(self, "theta_eff", _angle(self.theta_eff, "layer angle"))

    @property
    def phi0(self) -> complex:
        return complex(cos(self.theta_eff / 2))

    @property
    def phi1(self) -> complex:
        return -1j * sin(self.theta_eff / 2)

    @property
    def letters(self) -> PauliString:
        """The unsigned string |Sigma^gamma| the layer rotates about."""
        return self.gamma.unsigned()

    def to_dense(self, cap: int = ORACLE_CAP) -> np.ndarray:
        dim = 2**self.gamma.n
        return self.phi0 * np.eye(dim, dtype=np.complex128) + self.phi1 * (
            self.letters.to_dense(cap)
        )


@dataclass
class StabMpoCircuit:
    """Compiled form: residual Clifford tableau plus ordered layers."""

    n: int
    layers: list[StabMpoLayer]
    residual: CliffordTableau

    @property
    def m(self) -> int:
        return len(self.layers)

    # one line per layer: "LAYER m sign theta gamma_letters"
    def to_text(self) -> str:
        lines = [f"stabmpo-circuit qubits {self.n} layers {self.m}"]
        for i, layer in enumerate(self.layers, start=1):
            sign = layer.gamma.sign
            theta = float(sign * layer.theta_eff)
            body = layer.letters.to_literal().lstrip("+")
            lines.append(f"LAYER {i} {'+' if sign > 0 else '-'} {theta!r} {body}")
        lines.append("residual-tableau")
        lines.append(self.residual.to_text().rstrip("\n"))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "StabMpoCircuit":
        lines = text.splitlines() or [""]
        head = lines[0].split()
        with _naming_line("bad header", lines[0]):
            if len(head) != 5 or (head[0], head[1], head[3]) != (
                "stabmpo-circuit", "qubits", "layers"
            ):
                raise ValueError("not a stabmpo circuit file")
            n, m = int(head[2]), int(head[4])
        layers = []
        i = 1
        while i < len(lines) and lines[i].startswith("LAYER"):
            with _naming_line("bad layer line", lines[i]):
                parts = lines[i].split()
                if len(parts) != 5:
                    raise ValueError("expected 'LAYER m sign theta letters'")
                _, idx_s, sign_s, theta_s, body = parts
                if int(idx_s) != len(layers) + 1:
                    raise ValueError(f"layer {len(layers) + 1} is numbered {idx_s}")
                if sign_s not in ("+", "-"):
                    raise ValueError(f"layer sign must be + or -, got {sign_s!r}")
                sign = 1 if sign_s == "+" else -1
                gamma = PauliString.from_literal(sign_s + body)
                layers.append(StabMpoLayer(gamma, sign * float(theta_s)))
            i += 1
        if len(layers) != m:
            raise ValueError("layer count mismatch in circuit file")
        if i >= len(lines) or lines[i] != "residual-tableau":
            raise ValueError("missing residual tableau")
        residual = CliffordTableau.from_text("\n".join(lines[i + 1 :]))
        if residual.n != n or any(layer.gamma.n != n for layer in layers):
            raise ValueError("layer or tableau size does not match the header")
        return cls(n, layers, residual)


def conjugate_rotation(accumulated: CliffordTableau, r: RotationGate) -> StabMpoLayer:
    """Pull a rotation back through the accumulated Clifford.

    Returns the layer for C^dag R C where C is the tableau's circuit; the
    sign of the conjugated axis string is absorbed into theta_eff.
    """
    if not 0 <= r.site < accumulated.n:
        raise ValueError("rotation site out of range")
    axis = PauliString.single(accumulated.n, r.site, r.axis)
    gamma = accumulated.conjugate(axis, "inverse")
    return StabMpoLayer(gamma, gamma.sign * r.theta)


class StabMpoCompiler:
    """Incremental compiler for alternating Clifford / rotation sequences.

    It keeps the packed tableau rows of C^dag, the inverse of the Clifford
    accumulated so far: a gate rewrites only the rows of its own qubits,
    and pulling back a single-site rotation axis reads one or two rows.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self._inverse_rows = list(CliffordTableau.identity(n).rows)
        self._tableau: CliffordTableau | None = None
        self.layers: list[StabMpoLayer] = []

    @property
    def tableau(self) -> CliffordTableau:
        """Tableau of the accumulated Clifford; forward rows are built on first read."""
        if self._tableau is None:
            inverse = CliffordTableau(self.n, self._inverse_rows)
            self._tableau = CliffordTableau.from_inverse(inverse)
        return self._tableau

    def push_clifford(self, circ: CliffordCircuit | None) -> None:
        if circ is None:
            return
        if circ.n != self.n:
            raise ValueError("qubit count mismatch")
        if circ.gates:
            append_to_inverse(self._inverse_rows, circ)
            self._tableau = None

    def push_rotation(self, r: RotationGate) -> StabMpoLayer:
        layer = conjugate_rotation(self.tableau, r)
        self.layers.append(layer)
        return layer

    def result(self) -> StabMpoCircuit:
        return StabMpoCircuit(self.n, list(self.layers), self.tableau)


def compile_blocks(n: int, blocks) -> StabMpoCircuit:
    """Compile an ordered list of (CliffordCircuit | None, RotationGate | None)."""
    comp = StabMpoCompiler(n)
    for circ, rot in blocks:
        comp.push_clifford(circ)
        if rot is not None:
            comp.push_rotation(rot)
    return comp.result()


def letter_table(strings, n: int) -> np.ndarray:
    """(len(strings), n) letters 0-3 of n-qubit Pauli strings, read from their bits."""
    size = n // 8 + 1
    raw = b"".join(w.to_bytes(size, "little") for s in strings for w in (s.x, s.z))
    xz = np.frombuffer(raw, dtype=np.uint8).reshape(-1, 2, size)
    xz = np.unpackbits(xz, axis=2, count=n, bitorder="little")
    return xz[:, 0] ^ 3 * xz[:, 1]  # (x, z) bits to 0 I, 1 X, 2 Y, 3 Z


def transform_observable(c: CliffordTableau, p: PauliString) -> PauliString:
    """Signed pull-back C^dag P C of an observable through the residual Clifford."""
    return c.conjugate(p, "inverse")


def pull_back(circuit: StabMpoCircuit, observable: PauliString) -> PauliString:
    """C^dag O C through ``circuit.residual``; a non-Hermitian or wrong-length O raises."""
    if not observable.is_hermitian:
        raise ValueError("observable must be Hermitian")
    return transform_observable(circuit.residual, observable)


def apply_layer(
    m: Mps, layer: StabMpoLayer, policy: TruncationPolicy
) -> tuple[Mps, float]:
    """phi0 |m> + phi1 P|m>, compressed (``Mps.apply_rotation``; an identity
    string is the global phase phi0 + phi1): the new state and discarded weight."""
    if layer.gamma.n != m.n:
        raise ValueError("length mismatch")
    letters = letter_table([layer.gamma], m.n)[0]
    return m.apply_rotation(letters, (layer.phi0, layer.phi1), policy)


@dataclass
class Contraction:
    """One contraction's value plus per-step truncation and entropy.

    A step is a layer (identity layers record 0.0) or, for the horizontal
    sweep, a column; the vertical fold records no entropy.
    """

    value: float = 0.0
    truncation: list[float] = field(default_factory=list)
    entropy_bits: list[float] = field(default_factory=list)
    max_bond: int = 1
    zero_state: bool = False

    def record(self, state: Mps, err: float, entropy: float | None = None) -> bool:
        """Record one step, with its entropy if given; True once zero.

        A state the step has zeroed keeps unswept bonds, so only a nonzero
        state's bonds count towards ``max_bond``.
        """
        self.truncation.append(err)
        if entropy is not None:
            self.entropy_bits.append(entropy)
        self.zero_state = state.is_zero
        if not self.zero_state:
            self.max_bond = max(self.max_bond, state.max_bond)
        return self.zero_state


def expectation(
    psi0: Mps,
    circuit: StabMpoCircuit,
    observable: PauliString,
    policy: TruncationPolicy,
) -> Contraction:
    """<psi| U^dag O U |psi> via layer evolution of the compiled circuit.

    Layers are applied in order (first compiled first); the observable is
    pulled back through the residual Clifford and measured on the evolved
    state.  The record holds per-layer truncation, the half-chain entropy
    trajectory and the largest bond reached.
    """
    nu = pull_back(circuit, observable)
    state = psi0
    res = Contraction(max_bond=psi0.max_bond)
    for layer in circuit.layers:
        state, err = apply_layer(state, layer, policy)
        if res.record(state, err, state.entanglement_entropy(state.n // 2)):
            return res
    res.value = state.expect_pauli(nu)
    return res
