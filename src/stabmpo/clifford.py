"""Stabilizer tableau for N-qubit Clifford unitaries.

The tableau is its packed rows: the images of the 2N generators X_j, Z_j
under forward conjugation P -> C P C^dag, each as ``(x, z, phase)`` ints
with exact signs, the layout of Aaronson & Gottesman (PRA 70, 052328
(2004)).  Every gate is a local tableau in the same layout: the packed
images of X_0 [X_1] Z_0 [Z_1] on its own qubits, read from a literal table
for the elementary gates and from the enumeration for a brick.  One rule
conjugates by any gate: gather the string's bits on the gate's qubits,
multiply the local rows of those bits, scatter the image back.  An
incremental compiler keeps the rows of C^dag instead, as Stim's
TableauSimulator does (Gidney, Quantum 5, 497 (2021)): appending a gate to C
rewrites only the rows of its qubits (``append_to_inverse``), each the image
of a local row of the inverse gate, and ``CliffordTableau.from_inverse``
builds the forward rows from them only when read.  The module also provides
the circuit container, its line-oriented serialization, and the two
samplers used by the experiment drivers: brick-wall layers of uniformly
random two-qubit Cliffords and random U(1)-symmetric Cliffords in CZ /
phase-power / permutation form.  A sampled two-qubit Clifford stays one
element, a ``Brick`` that carries its index in an exhaustive enumeration of
all 11520 elements, read from a generated table that stores each element's
packed images, its gate sequence and its inverse's index.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .pauli import PauliString

TWO_QUBIT_CLIFFORD_COUNT = 11520

# one packed tableau row: the image (x bits, z bits, phase exponent of i)
Row = tuple[int, int, int]


class Gate(NamedTuple):
    name: str
    qubits: tuple[int, ...]


class Brick(NamedTuple):
    """Element ``index`` of ``two_qubit_clifford_sequences()`` on qubits (a, b).

    Qubit a plays qubit 0 of the element's gate sequence, qubit b qubit 1.
    """

    index: int
    qubits: tuple[int, int]
    name = "C2"


# images of X_0 [X_1] Z_0 [Z_1] under each elementary gate, on its own qubits;
# letter k of a literal acts on the gate's qubit k
_GATE_IMAGES = {
    "H": ("Z", "X"),
    "S": ("Y", "Z"),
    "SDG": ("-Y", "Z"),
    "X": ("X", "-Z"),
    "Z": ("-X", "Z"),
    "CNOT": ("XX", "IX", "ZI", "ZZ"),
    "CZ": ("XZ", "ZX", "ZI", "IZ"),
    "SWAP": ("IX", "XI", "IZ", "ZI"),
}
GATE_ARITY = {name: len(images) // 2 for name, images in _GATE_IMAGES.items()}
_GATE_ROWS = {
    name: tuple((p.x, p.z, p.phase_exp) for p in map(PauliString.from_literal, images))
    for name, images in _GATE_IMAGES.items()
}

_INVERSE_NAME = {"S": "SDG", "SDG": "S"}


def _check_gate(g: Gate | Brick) -> None:
    name, qubits = g.name, g.qubits
    if isinstance(g, Brick):
        count = TWO_QUBIT_CLIFFORD_COUNT
        if type(g.index) is not int or not 0 <= g.index < count:
            raise ValueError(f"C2 index must be an int in [0, {count}), got {g.index!r}")
        arity = 2
    elif name in GATE_ARITY:
        arity = GATE_ARITY[name]
    else:
        raise ValueError(f"unsupported gate {name!r}")
    if len(qubits) != arity:
        raise ValueError(f"{name} expects {arity} qubit(s)")
    if len(set(qubits)) != arity:
        raise ValueError(f"{name} qubits must be distinct")


def gate(name: str, *qubits: int) -> Gate:
    g = Gate(name.upper(), tuple(qubits))
    _check_gate(g)
    return g


def _inverse_gate(g: Gate | Brick) -> Gate | Brick:
    if isinstance(g, Brick):
        return Brick(_enumeration().inverse[g.index], g.qubits)
    return Gate(_INVERSE_NAME.get(g.name, g.name), g.qubits)


@dataclass(frozen=True)
class CliffordCircuit:
    """Ordered gate list; gates[0] acts first."""

    n: int
    gates: tuple[Gate | Brick, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            _check_gate(g)
            if min(g.qubits) < 0 or max(g.qubits) >= self.n:
                raise ValueError(f"gate {g} out of range for n={self.n}")

    def inverse(self) -> "CliffordCircuit":
        """The inverse circuit; a brick's inverse is exact up to global phase."""
        return CliffordCircuit(self.n, tuple(map(_inverse_gate, reversed(self.gates))))

    def __add__(self, other: "CliffordCircuit") -> "CliffordCircuit":
        if self.n != other.n:
            raise ValueError("qubit count mismatch")
        return CliffordCircuit(self.n, self.gates + other.gates)

    # line-oriented text format: header "qubits N", one gate per line;
    # a brick is "C2 <index> <a> <b>"
    def to_text(self) -> str:
        lines = [f"qubits {self.n}"]
        for g in self.gates:
            args = (g.index, *g.qubits) if isinstance(g, Brick) else g.qubits
            lines.append(" ".join((g.name, *map(str, args))))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "CliffordCircuit":
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        n = _header_count(lines[0] if lines else "")
        gates = []
        for ln in lines[1:]:
            name, *args = ln.split()
            ints = tuple(map(int, args))
            if name.upper() == Brick.name:
                if len(ints) != 3:
                    raise ValueError(f"C2 expects an index and 2 qubits, got {ln!r}")
                gates.append(Brick(ints[0], ints[1:]))
            else:
                gates.append(gate(name, *ints))
        return cls(n, tuple(gates))


def _header_count(line: str) -> int:
    """N of the 'qubits N' header that starts circuit and tableau text."""
    parts = line.split()
    if len(parts) != 2 or parts[0] != "qubits":
        raise ValueError(f"text must start with 'qubits N', got {line!r}")
    n = int(parts[1])
    if n < 1:
        raise ValueError(f"qubit count must be >= 1, got {n}")
    return n


# ----------------------------------------------------------------------
# conjugation rules on packed (x, z, phase) triples
# ----------------------------------------------------------------------
def _image_bits(rows: Sequence[Row], n: int, x: int, z: int, phase: int) -> Row:
    """Image of the packed string under the tableau whose packed rows are given.

    rows[j] is the image of X_j and rows[n + j] that of Z_j; only the rows
    of the string's set bits are multiplied, with the exact group law.
    """
    ox = oz = 0
    bits = x | z
    while bits:
        low = bits & -bits
        bits ^= low
        j = low.bit_length() - 1
        if x & low:
            rx, rz, rph = rows[j]
            phase += rph + 2 * (oz & rx).bit_count()
            ox ^= rx
            oz ^= rz
        if z & low:
            rx, rz, rph = rows[n + j]
            phase += rph + 2 * (oz & rx).bit_count()
            ox ^= rx
            oz ^= rz
    return ox, oz, phase % 4


@lru_cache(maxsize=None)
def _brick_rows(index: int) -> tuple[Row, ...]:
    """Local rows of enumeration element ``index``, unpacked from its state."""
    state = _enumeration().states[index]
    images = (state >> 6 * k & 63 for k in range(4))
    return tuple((v & 3, v >> 2 & 3, v >> 4) for v in images)


def _local_rows(g: Gate | Brick) -> tuple[Row, ...]:
    """Packed rows of g on its own qubits: the images of X_0 [X_1] Z_0 [Z_1]."""
    return _brick_rows(g.index) if isinstance(g, Brick) else _GATE_ROWS[g.name]


def _conjugate_bits(x: int, z: int, phase: int, g: Gate | Brick) -> Row:
    """Forward-conjugate the packed string by one gate.

    The string's bits on the gate's qubits are gathered into a local string,
    mapped by the gate's local rows and scattered back; other bits stay.
    """
    qubits = g.qubits
    lx = lz = 0
    for q in reversed(qubits):
        lx = lx << 1 | x >> q & 1
        lz = lz << 1 | z >> q & 1
    if not lx | lz:
        return x, z, phase
    lx, lz, phase = _image_bits(_local_rows(g), len(qubits), lx, lz, phase)
    for q in qubits:
        m = 1 << q
        x = x & ~m | (lx & 1) << q
        z = z & ~m | (lz & 1) << q
        lx >>= 1
        lz >>= 1
    return x, z, phase


def append_to_inverse(rows: list[Row], circ: CliffordCircuit) -> None:
    """Update the packed rows of C^dag in place to those of (circ C)^dag.

    Appending g to C prepends g^dag to C^dag, since (g C)^dag P (g C) =
    C^dag (g^dag P g) C; gates are taken in circuit order.  Prepending h to
    a tableau T makes the row of a generator G the image T(h G h^dag), so
    only the rows X_q and Z_q of h's qubits change: each is the product of
    T's rows on those qubits that the matching local row of h selects.
    Every new row is computed from the old rows before any is written back.
    """
    n = circ.n
    if len(rows) != 2 * n:
        raise ValueError("qubit count mismatch")
    for g in circ.gates:
        g = _inverse_gate(g)
        targets = (*g.qubits, *(n + q for q in g.qubits))
        local = [rows[k] for k in targets]  # T on h's qubits, in h's local order
        new = [_image_bits(local, len(g.qubits), *row) for row in _local_rows(g)]
        for k, row in zip(targets, new):
            rows[k] = row


def _transpose_bits(vals: list[int], n: int) -> list[int]:
    """Bit-matrix transpose: bit j of out[k] is bit k of vals[j]."""
    out = [0] * n
    for j, v in enumerate(vals):
        while v:
            low = v & -v
            v ^= low
            out[low.bit_length() - 1] |= 1 << j
    return out


def _symplectic_inverse(rows: Sequence[Row], n: int) -> list[Row]:
    """Packed rows of C^dag given those of C.

    The bit part is the symplectic inverse Lambda M^T Lambda of the image
    matrix M: C^dag X_k C has x bit j where the image of Z_j has z bit k,
    and z bit j where the image of X_j has z bit k; for Z_k read the x bits
    instead.  The phase makes the forward image +X_k or +Z_k.
    """
    xx = _transpose_bits([r[0] for r in rows[:n]], n)
    xz = _transpose_bits([r[1] for r in rows[:n]], n)
    zx = _transpose_bits([r[0] for r in rows[n:]], n)
    zz = _transpose_bits([r[1] for r in rows[n:]], n)
    bits = [(zz[k], xz[k]) for k in range(n)] + [(zx[k], xx[k]) for k in range(n)]
    out = []
    for k, (x, z) in enumerate(bits):
        phase = (x & z).bit_count()
        fx, fz, fphase = _image_bits(rows, n, x, z, phase)
        if (fx, fz) != ((1 << k, 0) if k < n else (0, 1 << (k - n))) or fphase & 1:
            raise ValueError("tableau is not symplectic")
        out.append((x, z, (phase + fphase) % 4))
    return out


class CliffordTableau:
    """Packed images of X_j and Z_j; immutable by convention.

    ``rows[j]`` is the image of X_j under P -> C P C^dag and ``rows[n + j]``
    that of Z_j, each as ``(x, z, phase mod 4)``.  A tableau made by
    ``from_inverse`` holds only its inverse and builds its rows on first read.
    """

    __slots__ = ("n", "_rows", "_inv")

    def __init__(self, n: int, rows: Iterable[Row]) -> None:
        self.n = n
        self._rows: tuple[Row, ...] | None = tuple((x, z, ph % 4) for x, z, ph in rows)
        self._inv: "CliffordTableau | None" = None
        if len(self._rows) != 2 * n:
            raise ValueError("tableau needs 2n rows, the images of X0.. and Z0..")

    @classmethod
    def identity(cls, n: int) -> "CliffordTableau":
        xs = [(1 << j, 0, 0) for j in range(n)]
        return cls(n, xs + [(0, 1 << j, 0) for j in range(n)])

    @classmethod
    def from_circuit(cls, circ: CliffordCircuit) -> "CliffordTableau":
        return cls.identity(circ.n).apply_circuit(circ)

    @classmethod
    def from_inverse(cls, inv: "CliffordTableau") -> "CliffordTableau":
        """Tableau of C given that of C^dag.

        Inverse conjugation and ``inverse()`` read ``inv`` directly; the
        forward rows are built from it on their first read and cached.
        """
        tab = cls.__new__(cls)
        tab.n = inv.n
        tab._rows = None
        tab._inv = inv
        return tab

    @property
    def rows(self) -> tuple[Row, ...]:
        if self._rows is None:
            self._rows = tuple(_symplectic_inverse(self._inv.rows, self.n))
        return self._rows

    # ------------------------------------------------------------------
    def apply_gate(self, g: Gate) -> "CliffordTableau":
        """Tableau of g o C (gate applied after the current circuit)."""
        return self.apply_circuit(CliffordCircuit(self.n, (g,)))

    def apply_circuit(self, circ: CliffordCircuit) -> "CliffordTableau":
        if circ.n != self.n:
            raise ValueError("qubit count mismatch")
        rows = self.rows
        for g in circ.gates:
            rows = [_conjugate_bits(x, z, phase, g) for (x, z, phase) in rows]
        return CliffordTableau(self.n, rows)

    # ------------------------------------------------------------------
    def conjugate(self, p: PauliString, direction: str = "forward") -> PauliString:
        """Return C P C^dag (forward) or C^dag P C (inverse), sign exact.

        Only the rows of the string's support are multiplied, so a
        single-site string costs one row (two for Y).
        """
        if p.n != self.n:
            raise ValueError("length mismatch")
        if direction not in ("forward", "inverse"):
            raise ValueError(f"unknown direction {direction!r}")
        rows = self.rows if direction == "forward" else self.inverse().rows
        return PauliString(self.n, *_image_bits(rows, self.n, p.x, p.z, p.phase_exp))

    def inverse(self) -> "CliffordTableau":
        """Tableau of C^dag; cached."""
        if self._inv is None:
            inv = CliffordTableau(self.n, _symplectic_inverse(self.rows, self.n))
            inv._inv = self
            self._inv = inv
        return self._inv

    # ------------------------------------------------------------------
    def key(self) -> tuple:
        """Hashable canonical form: the packed rows."""
        return self.rows

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CliffordTableau) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def validate(self) -> None:
        """Check the symplectic pattern and Hermitian +-1 signs of all rows."""
        rows = self.rows
        for i, (ax, az, phase) in enumerate(rows):
            if (phase - (ax & az).bit_count()) % 2:
                raise ValueError(f"image {i} is not a signed Hermitian string")
            # the only anticommuting generator pairs are X_k, Z_k: rows k and n + k
            for j, (bx, bz, _) in enumerate(rows):
                anti = ((ax & bz).bit_count() ^ (az & bx).bit_count()) & 1
                if anti != (abs(i - j) == self.n):
                    raise ValueError(
                        f"symplectic pattern broken between images {i} and {j}"
                    )

    def to_text(self) -> str:
        n = self.n
        lines = [f"qubits {n}"]
        for i, (x, z, phase) in enumerate(self.rows):
            label = f"X{i}" if i < n else f"Z{i - n}"
            lines.append(f"{label} -> {PauliString(n, x, z, phase).to_literal()}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "CliffordTableau":
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        n = _header_count(lines[0] if lines else "")
        images: dict[str, PauliString] = {}
        for ln in lines[1:]:
            head, _, lit = ln.partition("->")
            images[head.strip()] = PauliString.from_literal(lit.strip())
        labels = [f"{k}{j}" for k in "XZ" for j in range(n)]
        if len(lines) != 2 * n + 1 or set(images) != set(labels):
            raise ValueError("tableau text needs one row for each of X0.. and Z0..")
        if any(p.n != n for p in images.values()):
            raise ValueError("tableau image length does not match 'qubits N'")
        tab = cls(n, [(p.x, p.z, p.phase_exp) for p in map(images.get, labels)])
        tab.validate()
        return tab


# ----------------------------------------------------------------------
# exhaustive two-qubit Clifford enumeration
# ----------------------------------------------------------------------
class _Enumeration(NamedTuple):
    sequences: tuple[tuple[Gate, ...], ...]
    states: tuple[int, ...]  # packed 6-bit images of X0, X1, Z0, Z1
    inverse: tuple[int, ...]  # index of each element's inverse


# the enumeration's generators, numbered as in its table's ``generator`` field
_GENERATORS = (
    *(Gate(name, (q,)) for name in ("H", "S") for q in (0, 1)),
    Gate("CNOT", (0, 1)),
)
_TABLE_PATH = os.path.join(os.path.dirname(__file__), "two_qubit_cliffords.npy")


@lru_cache(maxsize=1)
def _enumeration() -> _Enumeration:
    """All 11520 two-qubit Cliffords, their packed images and inverses.

    Read once from the generated table next to this module: one record per
    element, in the order of a breadth-first closure over the {H, S, CNOT}
    generators from the identity, deduplicated by the packed images (i.e.
    up to global phase).  ``state`` is the four 6-bit images of X0, X1, Z0,
    Z1, each with the x bits in bits 0-1, the z bits in bits 2-3 and the
    phase exponent of i in bits 4-5; element ``parent`` followed by
    generator ``generator`` is the element's gate sequence; ``inverse`` is
    the index of its inverse.  The order is pinned, so index i always denotes the
    same element.  ``tests/test_clifford.py`` holds the search, checks the
    table against it and regenerates the file.
    """
    table = np.load(_TABLE_PATH, allow_pickle=False)
    if len(table) != TWO_QUBIT_CLIFFORD_COUNT:
        raise AssertionError(f"two-qubit Clifford table holds {len(table)} elements")
    sequences: list[tuple[Gate, ...]] = [()]
    for parent, g in zip(table["parent"][1:].tolist(), table["generator"][1:].tolist()):
        sequences.append(sequences[parent] + (_GENERATORS[g],))
    states, inverse = table["state"].tolist(), table["inverse"].tolist()
    return _Enumeration(tuple(sequences), tuple(states), tuple(inverse))


def two_qubit_clifford_sequences() -> tuple[tuple[Gate, ...], ...]:
    """Gate realizations of all 11520 two-qubit Cliffords (on qubits 0,1).

    Index i is element i of the enumeration: ``Brick(i, (a, b))`` acts as
    sequence i with qubit 0 on a and qubit 1 on b.  The first call builds
    everything the bricks read.
    """
    return _enumeration().sequences


def sample_brickwall(
    n: int,
    depth_d: int,
    rng: np.random.Generator,
    start_parity: int = 0,
) -> CliffordCircuit:
    """Brick-wall circuit of ``depth_d`` sublayers of random 2q Cliffords.

    Sublayer k (1-based) pairs (i, i+1) at even offsets for odd k and odd
    offsets for even k, open boundaries, leftover qubit idle.  Each pair
    gets one uniformly random ``Brick``.  ``start_parity`` shifts the
    alternation so consecutive circuits can continue a single brick wall.
    """
    if n < 2:
        raise ValueError("brick wall needs n >= 2")
    if depth_d < 1:
        raise ValueError("depth must be >= 1")
    gates: list[Brick] = []
    for k in range(depth_d):
        offset = (start_parity + k) % 2
        for i in range(offset, n - 1, 2):
            index = int(rng.integers(TWO_QUBIT_CLIFFORD_COUNT))
            gates.append(Brick(index, (i, i + 1)))
    return CliffordCircuit(n, tuple(gates))


def sample_u1_clifford(n: int, rng: np.random.Generator) -> CliffordCircuit:
    """Random magnetization-preserving Clifford.

    Drawn in the parametrized form (prod CZ^nu) (prod S^mu) P with a
    uniform permutation P realized by SWAPs, uniform mu in {0..3} per
    qubit and independent nu in {0,1} per pair; the global phase is fixed
    to zero.  Every sample conjugates each Z_j to +Z_{pi(j)}.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    gates: list[Gate] = []

    perm = [int(v) for v in rng.permutation(n)]
    # realize qubit j -> position perm[j] with a selection-sort SWAP chain
    pos = list(range(n))  # pos[p] = qubit currently at position p
    target = [0] * n
    for j, p in enumerate(perm):
        target[p] = j
    for p in range(n):
        q = pos.index(target[p], p)
        if q != p:
            gates.append(Gate("SWAP", (p, q)))
            pos[p], pos[q] = pos[q], pos[p]

    s_names = (None, "S", "Z", "SDG")
    for j in range(n):
        name = s_names[int(rng.integers(4))]
        if name is not None:
            gates.append(Gate(name, (j,)))

    for i in range(n):
        for j in range(i + 1, n):
            if int(rng.integers(2)):
                gates.append(Gate("CZ", (i, j)))

    return CliffordCircuit(n, tuple(gates))
