"""N-qubit Pauli strings in binary symplectic form.

A string is stored as two bit vectors (packed into Python integers, bit j
for qubit j) plus an integer phase exponent, so that the operator is

    i^phase_exp * prod_j X_j^{x_j} Z_j^{z_j}.

A Y on qubit j therefore carries x_j = z_j = 1 together with one factor of
i in ``phase_exp`` (Y = iXZ).  All group operations are exact integer
arithmetic; dense matrices are only produced for small systems as test
oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

# Largest qubit count for which dense 2^n x 2^n realizations are allowed.
ORACLE_CAP = 12

# Single-qubit Pauli basis, indexed 0=I, 1=X, 2=Y, 3=Z.
SIGMA = np.array(
    [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=np.complex128,
)

PAULI_LETTERS = "IXYZ"

# index <-> (x, z) bit pair; 0=I,(0,0)  1=X,(1,0)  2=Y,(1,1)  3=Z,(0,1)
_INDEX_TO_XZ = ((0, 0), (1, 0), (1, 1), (0, 1))
_XZ_TO_INDEX = {(0, 0): 0, (1, 0): 1, (1, 1): 2, (0, 1): 3}

_PHASE_PREFIX = {0: "+", 1: "+i", 2: "-", 3: "-i"}
_PREFIX_PHASE = {
    "": 0,
    "+": 0,
    "+i": 1,
    "i": 1,
    "-": 2,
    "-i": 3,
}

_PHASE_VALUES = (1.0 + 0j, 1j, -1.0 + 0j, -1j)


class OracleCapError(ValueError):
    """Raised when a dense realization is requested above the size cap."""


def index_to_xz(mu: int) -> tuple[int, int]:
    """Return the (x, z) bit pair of basis index mu in {0,1,2,3}."""
    if mu not in (0, 1, 2, 3):
        raise ValueError(f"Pauli letter index must be 0, 1, 2 or 3, got {mu!r}")
    return _INDEX_TO_XZ[int(mu)]


def _popcount(v: int) -> int:
    return v.bit_count()


@dataclass(frozen=True)
class PauliString:
    """Immutable signed Pauli string on ``n`` qubits."""

    n: int
    x: int
    z: int
    phase_exp: int = 0

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("negative qubit count")
        mask = (1 << self.n) - 1
        if self.x & ~mask or self.z & ~mask:
            raise ValueError("bit vector exceeds qubit count")
        object.__setattr__(self, "phase_exp", self.phase_exp % 4)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(n, 0, 0, 0)

    @classmethod
    def from_letters(cls, letters, letter_exp: int = 0) -> "PauliString":
        """Build from basis indices, e.g. [3, 0, 1] for Z x I x X.

        ``letter_exp`` is the i-exponent multiplying the plain letter
        product (0 or 2 keeps the string Hermitian).
        """
        letters = tuple(letters)
        x = z = 0
        y_count = 0
        for j, mu in enumerate(letters):
            xb, zb = index_to_xz(mu)
            x |= xb << j
            z |= zb << j
            y_count += xb & zb
        return cls(len(letters), x, z, (letter_exp + y_count) % 4)

    @classmethod
    def single(cls, n: int, site: int, mu: int) -> "PauliString":
        """Single-site basis operator sigma^mu on ``site`` of an n-qubit string."""
        if not 0 <= site < n:
            raise ValueError(f"site {site} out of range for n={n}")
        xb, zb = index_to_xz(mu)
        return cls(n, xb << site, zb << site, xb & zb)

    @classmethod
    def from_literal(cls, text: str) -> "PauliString":
        """Parse a textual literal like ``-iXYZI`` or ``+ZZ`` or ``XIX``.

        The optional prefix is one of +, -, +i, -i (ASCII or Unicode minus)
        and applies to the plain letter product.
        """
        s = text.strip().replace("−", "-")
        i = 0
        prefix = ""
        while i < len(s) and s[i] in "+-i":
            prefix += s[i]
            i += 1
        if prefix not in _PREFIX_PHASE:
            raise ValueError(f"bad phase prefix in Pauli literal: {text!r}")
        letters = s[i:].upper()
        if not letters or any(c not in PAULI_LETTERS for c in letters):
            raise ValueError(f"bad Pauli literal: {text!r}")
        return cls.from_letters(
            [PAULI_LETTERS.index(c) for c in letters], _PREFIX_PHASE[prefix]
        )

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def y_count(self) -> int:
        return _popcount(self.x & self.z)

    @property
    def letter_exp(self) -> int:
        """i-exponent in the canonical letter form i^k * (product of I,X,Y,Z)."""
        return (self.phase_exp - self.y_count) % 4

    @property
    def is_hermitian(self) -> bool:
        return self.letter_exp % 2 == 0

    @property
    def sign(self) -> int:
        """+1 or -1 for a Hermitian string."""
        k = self.letter_exp
        if k == 0:
            return 1
        if k == 2:
            return -1
        raise ValueError("sign undefined for non-Hermitian string")

    @property
    def phase(self) -> complex:
        """The scalar i^letter_exp multiplying the plain letter product."""
        return _PHASE_VALUES[self.letter_exp]

    def letter(self, j: int) -> int:
        return _XZ_TO_INDEX[((self.x >> j) & 1, (self.z >> j) & 1)]

    def letters(self) -> tuple[int, ...]:
        return tuple(self.letter(j) for j in range(self.n))

    @property
    def weight(self) -> int:
        return _popcount(self.x | self.z)

    @property
    def support(self) -> tuple[int, ...]:
        bits = self.x | self.z
        return tuple(j for j in range(self.n) if (bits >> j) & 1)

    def unsigned(self) -> "PauliString":
        """The same letters with +1 prefix (canonical Hermitian form)."""
        return PauliString(self.n, self.x, self.z, self.y_count)

    def to_literal(self) -> str:
        body = "".join(PAULI_LETTERS[self.letter(j)] for j in range(self.n))
        return _PHASE_PREFIX[self.letter_exp] + body

    def __str__(self) -> str:
        return self.to_literal()

    # ------------------------------------------------------------------
    # algebra
    # ------------------------------------------------------------------
    def mul(self, other: "PauliString") -> "PauliString":
        """Exact operator product self * other, phase included."""
        if self.n != other.n:
            raise ValueError("length mismatch in Pauli product")
        phase = self.phase_exp + other.phase_exp + 2 * _popcount(self.z & other.x)
        return PauliString(self.n, self.x ^ other.x, self.z ^ other.z, phase)

    def __mul__(self, other: "PauliString") -> "PauliString":
        return self.mul(other)

    # ------------------------------------------------------------------
    # dense oracle
    # ------------------------------------------------------------------
    def to_dense(self, cap: int = ORACLE_CAP) -> np.ndarray:
        """Exact 2^n x 2^n matrix, qubit 0 most significant.  Guarded by ``cap``."""
        if self.n > cap:
            raise OracleCapError(
                f"dense realization of {self.n} qubits exceeds oracle cap {cap}"
            )
        if self.n == 0:
            return np.array([[self.phase]], dtype=np.complex128)
        mats = [SIGMA[self.letter(j)] for j in range(self.n)]
        return self.phase * reduce(np.kron, mats)


def pauli_coefficient(op: np.ndarray, p: PauliString, cap: int = ORACLE_CAP) -> complex:
    """Expansion coefficient Tr(op . P) / 2^n of ``op`` on string ``p``."""
    dim = 2**p.n
    if op.shape != (dim, dim):
        raise ValueError(f"operator shape {op.shape} does not match n={p.n}")
    return complex(np.trace(op @ p.to_dense(cap)) / dim)
