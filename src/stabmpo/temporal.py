"""Folded transfer-network view of the compiled evolution.

The squared (ket times bra) network in the single-site Pauli basis.  Each
compiled layer contributes a site-diagonal transfer tensor on a
four-dimensional auxiliary index; evolving the state's Pauli coefficient
train vertically, or sweeping an auxiliary-row chain horizontally column
by column, both reproduce the layer-evolved expectation value.  The
horizontal sweep additionally exposes the temporal entanglement entropy
of the auxiliary chain.
"""

from __future__ import annotations

from math import ceil

import numpy as np

from .circuit import Contraction, StabMpoCircuit, letter_table, transform_observable
from .mps import Mps, TruncationPolicy, diagonal_mpo, inner, window_mpo
from .pauli import PauliString, basis_bits


# ----------------------------------------------------------------------
# scalar structure factors
# ----------------------------------------------------------------------
def gamma_structure(mu: int, nu: int, g: int) -> complex:
    """Half-trace of sigma^mu sigma^nu sigma^g, exact from the group law."""
    a = PauliString.single(1, 0, mu)
    b = PauliString.single(1, 0, nu)
    prod = a.mul(b)
    if prod.letter(0) != g:
        return 0.0 + 0.0j
    return complex(prod.phase)


def s_factor(mu: int, g: int) -> float:
    """Half-trace of sigma^mu sigma^g sigma^mu sigma^g: +1 commuting, -1 not."""
    if mu == 0 or g == 0 or mu == g:
        return 1.0
    return -1.0


def _coefficient_free_blocks(g: int) -> list[np.ndarray]:
    """Transfer blocks of letter g per folded auxiliary value.

    Index order: 0 = (ket I, bra I), 1 = (I, string), 2 = (string, I),
    3 = (string, string).
    """
    gm = np.array([[gamma_structure(mu, nu, g) for nu in range(4)] for mu in range(4)])
    s = np.diag([s_factor(mu, g) for mu in range(4)])
    return [np.eye(4), gm, gm.T, s]


# FOLDED_BLOCKS[g, a, mu, nu]: the one source of the coefficient-free folded
# blocks, read by the site tensor and the row and column operators
FOLDED_BLOCKS = np.array(
    [_coefficient_free_blocks(g) for g in range(4)], dtype=np.complex128
)
FOLDED_BLOCKS.setflags(write=False)

# _FOLDED_ROWS[g]: the uncapped (a, mu, nu, a) row operator of letter g, with
# FOLDED_BLOCKS[g, a] on the diagonal of the folded auxiliary bond
_FOLDED_ROWS = tuple(diagonal_mpo(FOLDED_BLOCKS[g]) for g in range(4))
for _row in _FOLDED_ROWS:
    _row.setflags(write=False)  # shared by every layer of every contraction


# ----------------------------------------------------------------------
# folded site tensor
# ----------------------------------------------------------------------
def folded_coefficients(phi0: complex, phi1: complex) -> tuple[complex, ...]:
    """Weights of the four folded auxiliary values of one layer.

    In the index order of ``FOLDED_BLOCKS``: (|phi0|^2, phi0 phi1*,
    phi0* phi1, |phi1|^2).
    """
    return (
        abs(phi0) ** 2,
        phi0 * np.conj(phi1),
        np.conj(phi0) * phi1,
        abs(phi1) ** 2,
    )


def build_folded_site(gamma_j: int, phi0: complex, phi1: complex) -> np.ndarray:
    """Folded transfer tensor w[a, mu, nu] of one layer site, coefficients included.

    Diagonal in the auxiliary index ``a``.  ``phi0, phi1`` must form a
    unitary pair (|phi0|^2 + |phi1|^2 = 1).
    """
    if abs(abs(phi0) ** 2 + abs(phi1) ** 2 - 1.0) > 1e-10:
        raise ValueError("coefficient pair is not unitary")
    coeffs = np.array(folded_coefficients(phi0, phi1))
    return coeffs[:, None, None] * FOLDED_BLOCKS[gamma_j]


def computational_pauli_vector(bit: int) -> np.ndarray:
    """Pauli coefficients of |s><s| on one site: (I + (-1)^s Z) / 2."""
    v = np.zeros(4, dtype=np.complex128)
    v[0] = 0.5
    v[3] = 0.5 * (-1.0 if bit else 1.0)
    return v


def _observable_letters(circuit: StabMpoCircuit, observable: PauliString):
    nu = transform_observable(circuit.residual, observable)
    return nu, float(nu.sign)


# ----------------------------------------------------------------------
# vertical contraction: evolve the state's Pauli coefficient train
# ----------------------------------------------------------------------
def vertical_fold_evolve(
    circuit: StabMpoCircuit,
    observable: PauliString,
    bits,
    policy: TruncationPolicy,
) -> Contraction:
    """Transfer-basis evolution of |bits><bits| through all layers.

    Each layer acts on the dim-4 coefficient train as one bond-4 diagonal
    operator over its support window, capped by its folded coefficients (an
    identity layer: their sum |phi0 + phi1|^2 = 1); pairing the result with
    the pulled-back observable components reproduces the layer-evolved
    expectation.
    """
    bits = basis_bits(bits)
    if len(bits) != circuit.n:
        raise ValueError("initial state length mismatch")
    y = Mps.from_site_vectors([computational_pauli_vector(b) for b in bits])
    res = Contraction()

    letters = letter_table([layer.gamma for layer in circuit.layers], circuit.n)
    for layer, row in zip(circuit.layers, letters):
        coeffs = folded_coefficients(layer.phi0, layer.phi1)
        y, err = y.apply_mpo(window_mpo(row, _FOLDED_ROWS, coeffs, np.ones(4)), policy)
        if res.record(y, err):
            return res

    nu, sign = _observable_letters(circuit, observable)
    raw = y.select_components(nu.letters()) * 2**circuit.n
    value = sign * raw
    if abs(value.imag) > 1e-9 * max(1.0, abs(value)):
        raise ValueError(f"folded expectation has imaginary residual {value.imag}")
    res.value = float(value.real)
    return res


# ----------------------------------------------------------------------
# horizontal contraction: auxiliary-row chain swept over columns
# ----------------------------------------------------------------------
# (w_in, a', a, w_out) column tensor of each layer letter, uncapped: the row
# operator with bond and physical index swapped, so the wire w (bottom cap ->
# rows -> top cap) is the operator bond
_FOLDED_COLUMNS = tuple(row.transpose(2, 0, 3, 1) for row in _FOLDED_ROWS)


def horizontal_contract(
    circuit: StabMpoCircuit,
    observable: PauliString,
    bits,
    policy: TruncationPolicy,
) -> Contraction:
    """Sweep the folded auxiliary chain over physical columns left to right.

    The chain has one dim-4 site per layer, holding that layer's folded
    coefficients, and is closed by the all-ones vector on every site.
    Only computational product initial states are supported: the column
    closure needs single-site matrix elements of the boundary state.  The
    symmetric-bipartition entropy of the chain is recorded after every
    column; the final scalar matches the vertical contraction.  A column
    whose layer letters are all I is the scalar 2 v_bit[nu_j] (1, +-1 or 0).
    """
    if circuit.m == 0:
        value = vertical_fold_evolve(circuit, observable, bits, policy).value
        return Contraction(value, [0.0] * circuit.n, [0.0] * circuit.n)
    bits = basis_bits(bits)
    if len(bits) != circuit.n:
        raise ValueError("initial state length mismatch")
    nu, sign = _observable_letters(circuit, observable)

    coeffs = (folded_coefficients(l.phi0, l.phi1) for l in circuit.layers)
    chain = Mps.from_site_vectors(coeffs)
    res = Contraction()
    cut = ceil(circuit.m / 2)

    # the layers' letters, then nu's: one row per string, one column per site
    letters = letter_table([l.gamma for l in circuit.layers] + [nu], circuit.n)
    entropy = 0.0  # of the product chain
    for j, bit in enumerate(bits):
        caps = computational_pauli_vector(bit), 2.0 * np.eye(4)[letters[-1, j]]
        column = window_mpo(letters[:-1, j], _FOLDED_COLUMNS, *caps)
        chain, err = chain.apply_mpo(column, policy)
        if isinstance(column, list) or chain.is_zero:  # a scalar keeps the spectrum
            entropy = chain.entanglement_entropy(cut)
        if res.record(chain, err, entropy):
            res.entropy_bits += [0.0] * (circuit.n - j - 1)
            return res

    closure = Mps.from_site_vectors(np.ones(4) for _ in range(circuit.m))
    value = sign * inner(closure, chain)
    if abs(value.imag) > 1e-9 * max(1.0, abs(value)):
        raise ValueError(f"horizontal expectation has imaginary residual {value.imag}")
    res.value = float(value.real)
    return res


def write_temporal_csv(path, matrix: np.ndarray) -> None:
    """Write an (m, n) entropy matrix as 'n,m,entropy_bits' rows (1-based)."""
    lines = ["n,m,entropy_bits"]
    m_count, n_count = matrix.shape
    for m in range(m_count):
        for j in range(n_count):
            lines.append(f"{j + 1},{m + 1},{float(matrix[m, j])!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
