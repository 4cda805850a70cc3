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

from dataclasses import replace
from math import ceil

import numpy as np

from .circuit import Contraction, StabMpoCircuit, letter_table, pull_back
from .mps import Mps, TruncationPolicy, diagonal_mpo, inner, window_mpo
from .pauli import SIGMA, PauliString, basis_bits


# _FOLDED_ROWS[g]: the uncapped (a, mu, nu, a) row operator of letter g: with
# W_0 = I and W_1 = sigma^g a layer's two branches, block a = 2k + b is
# 1/2 Tr(sigma^mu W_k sigma^nu W_b^dag)
def _folded_row(g: int) -> np.ndarray:
    w = SIGMA[[0, g]]
    blocks = 0.5 * np.einsum("mij,kjl,nlp,bip->kbmn", SIGMA, w, SIGMA, w.conj())
    return diagonal_mpo(blocks.reshape(4, 4, 4))


_FOLDED_ROWS = tuple(_folded_row(g) for g in range(4))
for _row in _FOLDED_ROWS:
    _row.setflags(write=False)  # shared by every layer of every contraction


# ----------------------------------------------------------------------
# folded site tensor
# ----------------------------------------------------------------------
def folded_coefficients(phi0: complex, phi1: complex) -> tuple[complex, ...]:
    """Weights of the four folded auxiliary values of one layer.

    In the order of the rows' auxiliary index a = 2k + b: (|phi0|^2,
    phi0 phi1*, phi0* phi1, |phi1|^2).
    """
    return (
        abs(phi0) ** 2,
        phi0 * np.conj(phi1),
        np.conj(phi0) * phi1,
        abs(phi1) ** 2,
    )


def computational_pauli_vector(bit: int) -> np.ndarray:
    """Pauli coefficients of |s><s| on one site: (I + (-1)^s Z) / 2."""
    v = np.zeros(4, dtype=np.complex128)
    v[0] = 0.5
    v[3] = 0.5 * (-1.0 if bit else 1.0)
    return v


def _chain_policy(policy: TruncationPolicy) -> TruncationPolicy:
    """``policy`` with its cutoff squared: the folded chains are cut on amplitude.

    A folded value is linear in its chain, so a dropped relative weight w
    moves it by up to sqrt(w): cutting at weight c^2 bounds that by c.
    """
    return replace(policy, svd_cutoff=policy.svd_cutoff**2)


def _folded_value(res: Contraction, closure: Mps, chain: Mps, sign: int) -> Contraction:
    """``res`` with its value sign <closure|chain>, which must be real."""
    value = sign * inner(closure, chain)
    if abs(value.imag) > 1e-9 * max(1.0, abs(value)):
        raise ValueError(f"folded expectation has imaginary residual {value.imag}")
    res.value = float(value.real)
    return res


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
    expectation.  The train is cut on amplitude (``_chain_policy``).
    """
    nu, bits = pull_back(circuit, observable), basis_bits(bits, circuit.n)
    # sites 2 v_bit: the selected component is the value itself, with no
    # factor 2^n, which is no float from n = 1024 on
    y = Mps.from_site_vectors([2 * computational_pauli_vector(b) for b in bits])
    res, policy = Contraction(), _chain_policy(policy)

    letters = letter_table([layer.gamma for layer in circuit.layers], circuit.n)
    for layer, row in zip(circuit.layers, letters):
        coeffs = folded_coefficients(layer.phi0, layer.phi1)
        y, err = y.apply_mpo(window_mpo(row, _FOLDED_ROWS, coeffs, np.ones(4)), policy)
        if res.record(y, err):
            return res

    closure = Mps.from_site_vectors(np.eye(4)[list(nu.letters())])
    return _folded_value(res, closure, y, nu.sign)


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
    The chain is cut on amplitude (``_chain_policy``).
    """
    nu, bits = pull_back(circuit, observable), basis_bits(bits, circuit.n)
    if circuit.m == 0:
        value = vertical_fold_evolve(circuit, observable, bits, policy).value
        return Contraction(value, [0.0] * circuit.n, [0.0] * circuit.n)
    policy = _chain_policy(policy)  # after the m = 0 fold, which squares its own

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
    return _folded_value(res, closure, chain, nu.sign)

