"""Stabilizer tableau for N-qubit Clifford unitaries.

The tableau is its packed rows: the images of the 2N generators X_j, Z_j
under forward conjugation P -> C P C^dag, each as ``(x, z, phase)`` ints
with exact signs, the layout of Aaronson & Gottesman (PRA 70, 052328
(2004)).  Gate updates rewrite the rows; conjugation of arbitrary strings
multiplies the rows of their support with the exact Pauli group law.  An
incremental compiler keeps the rows of C^dag instead, as Stim's
TableauSimulator does (Gidney, Quantum 5, 497 (2021)): appending a gate to C
rewrites only the rows of its qubits (``append_to_inverse``), and
``CliffordTableau.from_inverse`` builds the forward rows from them only when
read.  The module also provides the circuit container, its line-oriented
serialization, and the two samplers used by the experiment drivers:
brick-wall layers of uniformly random two-qubit Cliffords (drawn by index
from an exhaustive canonical enumeration of all 11520 elements) and random
U(1)-symmetric Cliffords in CZ / phase-power / permutation form.
"""

from __future__ import annotations

from collections import deque
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


GATE_ARITY = {
    "H": 1,
    "S": 1,
    "SDG": 1,
    "X": 1,
    "Z": 1,
    "CNOT": 2,
    "CZ": 2,
    "SWAP": 2,
}

_INVERSE_NAME = {"S": "SDG", "SDG": "S"}


def _check_gate(name: str, qubits: tuple[int, ...]) -> None:
    if name not in GATE_ARITY:
        raise ValueError(f"unsupported gate {name!r}")
    if len(qubits) != GATE_ARITY[name]:
        raise ValueError(f"{name} expects {GATE_ARITY[name]} qubit(s)")
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"{name} qubits must be distinct")


def gate(name: str, *qubits: int) -> Gate:
    name = name.upper()
    _check_gate(name, qubits)
    return Gate(name, tuple(qubits))


@dataclass(frozen=True)
class CliffordCircuit:
    """Ordered gate list; gates[0] acts first."""

    n: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            _check_gate(g.name, g.qubits)
            if any(not 0 <= q < self.n for q in g.qubits):
                raise ValueError(f"gate {g} out of range for n={self.n}")

    def inverse(self) -> "CliffordCircuit":
        inv = tuple(
            Gate(_INVERSE_NAME.get(g.name, g.name), g.qubits)
            for g in reversed(self.gates)
        )
        return CliffordCircuit(self.n, inv)

    def __add__(self, other: "CliffordCircuit") -> "CliffordCircuit":
        if self.n != other.n:
            raise ValueError("qubit count mismatch")
        return CliffordCircuit(self.n, self.gates + other.gates)

    # line-oriented text format: header "qubits N", one gate per line
    def to_text(self) -> str:
        lines = [f"qubits {self.n}"]
        lines += [" ".join((g.name, *map(str, g.qubits))) for g in self.gates]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "CliffordCircuit":
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        n = _header_count(lines[0] if lines else "")
        gates = []
        for ln in lines[1:]:
            parts = ln.split()
            gates.append(gate(parts[0], *map(int, parts[1:])))
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
# elementary conjugation rules on packed (x, z, phase) triples
# ----------------------------------------------------------------------
def _conjugate_bits(x: int, z: int, phase: int, g: Gate) -> Row:
    """Forward-conjugate the packed string by one elementary gate."""
    name = g.name
    if name == "H":
        q = g.qubits[0]
        m = 1 << q
        xb, zb = x & m, z & m
        if xb and zb:
            phase += 2
        x = (x & ~m) | (m if zb else 0)
        z = (z & ~m) | (m if xb else 0)
    elif name == "S":
        q = g.qubits[0]
        m = 1 << q
        if x & m:
            phase += 1
            z ^= m
    elif name == "SDG":
        q = g.qubits[0]
        m = 1 << q
        if x & m:
            phase += 3
            z ^= m
    elif name == "X":
        if z & (1 << g.qubits[0]):
            phase += 2
    elif name == "Z":
        if x & (1 << g.qubits[0]):
            phase += 2
    elif name == "CNOT":
        c, t = g.qubits
        mc, mt = 1 << c, 1 << t
        if z & mt:
            z ^= mc
        if x & mc:
            x ^= mt
    elif name == "CZ":
        c, t = g.qubits
        mc, mt = 1 << c, 1 << t
        if (x & mc) and (x & mt):
            phase += 2
        if x & mt:
            z ^= mc
        if x & mc:
            z ^= mt
    elif name == "SWAP":
        a, b = g.qubits
        ma, mb = 1 << a, 1 << b
        xa, xb = x & ma, x & mb
        za, zb = z & ma, z & mb
        x = (x & ~(ma | mb)) | (ma if xb else 0) | (mb if xa else 0)
        z = (z & ~(ma | mb)) | (ma if zb else 0) | (mb if za else 0)
    else:
        raise ValueError(f"unsupported gate {name!r}")
    return x, z, phase


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


def append_to_inverse(rows: list[Row], circ: CliffordCircuit) -> None:
    """Update the packed rows of C^dag in place to those of (circ C)^dag.

    Appending g to C prepends g^dag to C^dag, since (g C)^dag P (g C) =
    C^dag (g^dag P g) C; gates are taken in circuit order.  Prepending h to
    a tableau T makes the row of a generator G the image T(h G h^dag), so
    only the rows X_q and Z_q of h's qubits change.  Every new row is
    computed from the old rows before any of them is written back.
    """
    n = circ.n
    if len(rows) != 2 * n:
        raise ValueError("qubit count mismatch")
    for g in circ.gates:
        if g.name in _INVERSE_NAME:
            g = Gate(_INVERSE_NAME[g.name], g.qubits)
        new = []
        for q in g.qubits:
            m = 1 << q
            for k, (x, z) in ((q, (m, 0)), (n + q, (0, m))):
                new.append((k, _image_bits(rows, n, *_conjugate_bits(x, z, 0, g))))
        for k, row in new:
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

    def is_identity(self) -> bool:
        return self == CliffordTableau.identity(self.n)

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
@lru_cache(maxsize=1)
def two_qubit_clifford_sequences() -> tuple[tuple[Gate, ...], ...]:
    """Gate realizations of all 11520 two-qubit Cliffords (on qubits 0,1).

    Built once by breadth-first closure over {H, S, CNOT} generators and
    deduplicated by canonical tableau form (i.e. up to global phase).  The
    BFS order is deterministic, so index i always denotes the same element.
    A state is the packed ``(x, z, phase % 4)`` rows of X0, X1, Z0, Z1;
    it is its own dedup key, the same as ``CliffordTableau.key()``.
    """
    generators = (
        Gate("H", (0,)),
        Gate("H", (1,)),
        Gate("S", (0,)),
        Gate("S", (1,)),
        Gate("CNOT", (0, 1)),
    )
    start = CliffordTableau.identity(2).rows
    seen = {start}
    order: list[tuple[Gate, ...]] = [()]
    queue: deque[tuple[tuple, tuple[Gate, ...]]] = deque([(start, ())])
    while queue:
        state, seq = queue.popleft()
        for g in generators:
            nxt = tuple(
                (x, z, phase % 4)
                for x, z, phase in (_conjugate_bits(*img, g) for img in state)
            )
            if nxt not in seen:
                s = seq + (g,)
                seen.add(nxt)
                order.append(s)
                queue.append((nxt, s))
    if len(order) != TWO_QUBIT_CLIFFORD_COUNT:
        raise AssertionError(
            f"two-qubit Clifford enumeration found {len(order)} elements"
        )
    return tuple(order)


def sample_two_qubit_clifford(rng: np.random.Generator, pair: tuple[int, int]) -> list[Gate]:
    """Uniformly random two-qubit Clifford as gates on the given qubit pair."""
    table = two_qubit_clifford_sequences()
    seq = table[int(rng.integers(len(table)))]
    a, b = pair
    remap = (a, b)
    return [Gate(g.name, tuple(remap[q] for q in g.qubits)) for g in seq]


def sample_brickwall(
    n: int,
    depth_d: int,
    rng: np.random.Generator,
    start_parity: int = 0,
) -> CliffordCircuit:
    """Brick-wall circuit of ``depth_d`` sublayers of random 2q Cliffords.

    Sublayer k (1-based) pairs (i, i+1) at even offsets for odd k and odd
    offsets for even k, open boundaries, leftover qubit idle.
    ``start_parity`` shifts the alternation so consecutive circuits can
    continue a single brick wall.
    """
    if n < 2:
        raise ValueError("brick wall needs n >= 2")
    if depth_d < 1:
        raise ValueError("depth must be >= 1")
    gates: list[Gate] = []
    for k in range(depth_d):
        offset = (start_parity + k) % 2
        for i in range(offset, n - 1, 2):
            gates.extend(sample_two_qubit_clifford(rng, (i, i + 1)))
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
