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

from dataclasses import dataclass, field
from math import ceil

import numpy as np

from .circuit import StabMpoCircuit, transform_observable
from .mps import Mps, TruncationPolicy, add_many, inner
from .pauli import SIGMA, PauliString


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


def gamma_matrix(g: int) -> np.ndarray:
    """4x4 matrix with entries gamma_structure(mu, nu, g)."""
    return _GAMMA_MATRICES[g]


def s_matrix(g: int) -> np.ndarray:
    """Diagonal 4x4 matrix of s_factor(mu, g)."""
    return _S_MATRICES[g]


_GAMMA_MATRICES = tuple(
    np.array(
        [[gamma_structure(mu, nu, g) for nu in range(4)] for mu in range(4)],
        dtype=np.complex128,
    )
    for g in range(4)
)
_S_MATRICES = tuple(
    np.diag([s_factor(mu, g) for mu in range(4)]).astype(np.complex128)
    for g in range(4)
)


def _structure_blocks(g: int) -> tuple[np.ndarray, ...]:
    """Coefficient-free transfer blocks per folded auxiliary value.

    Index order: 0 = (ket I, bra I), 1 = (I, string), 2 = (string, I),
    3 = (string, string).
    """
    gm = gamma_matrix(g)
    return (np.eye(4, dtype=np.complex128), gm, gm.T.copy(), s_matrix(g))


# ----------------------------------------------------------------------
# folded site tensor
# ----------------------------------------------------------------------
def folded_coefficients(phi0: complex, phi1: complex) -> tuple[complex, ...]:
    """Weights of the four folded auxiliary values of one layer.

    In the index order of ``_structure_blocks``: (|phi0|^2, phi0 phi1*,
    phi0* phi1, |phi1|^2).
    """
    return (
        abs(phi0) ** 2,
        phi0 * np.conj(phi1),
        np.conj(phi0) * phi1,
        abs(phi1) ** 2,
    )


@dataclass(frozen=True)
class FoldedSiteTensor:
    """Transfer tensor w[a, mu, nu], diagonal in the auxiliary index ``a``."""

    gamma_index: int
    w: np.ndarray

    def block(self, a: int) -> np.ndarray:
        return self.w[a]


def build_folded_site(gamma_j: int, phi0: complex, phi1: complex) -> FoldedSiteTensor:
    """Folded transfer tensor of one layer site, coefficients included.

    ``phi0, phi1`` must form a unitary pair (|phi0|^2 + |phi1|^2 = 1).
    """
    if abs(abs(phi0) ** 2 + abs(phi1) ** 2 - 1.0) > 1e-10:
        raise ValueError("coefficient pair is not unitary")
    coeffs = folded_coefficients(phi0, phi1)
    w = np.stack([c * b for c, b in zip(coeffs, _structure_blocks(gamma_j))])
    return FoldedSiteTensor(gamma_j, w)


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
@dataclass
class FoldedEvolveResult:
    value: float
    layer_truncation: list[float] = field(default_factory=list)
    max_bond: int = 1
    zero_state: bool = False


def vertical_fold_evolve(
    circuit: StabMpoCircuit,
    observable: PauliString,
    bits,
    policy: TruncationPolicy,
) -> FoldedEvolveResult:
    """Transfer-basis evolution of |bits><bits| through all layers.

    Each layer acts as four coefficient-weighted product operators on the
    dim-4 coefficient train; pairing the result with the pulled-back
    observable components reproduces the layer-evolved expectation.
    """
    bits = [int(b) for b in bits]
    if len(bits) != circuit.n:
        raise ValueError("initial state length mismatch")
    y = Mps.from_site_vectors([computational_pauli_vector(b) for b in bits])
    res = FoldedEvolveResult(value=0.0)

    for layer in circuit.layers:
        if layer.is_identity_string:
            continue  # the four branches sum to exactly |phi0 + phi1|^2 = 1
        coeffs = folded_coefficients(layer.phi0, layer.phi1)
        letters = layer.letters
        branches = [y]
        for a in (1, 2, 3):
            branch = y
            for j in letters.support:
                block = _structure_blocks(letters.letter(j))[a]
                branch = branch.apply_site_matrix(block, j)
            branches.append(branch)
        y, err = add_many(list(zip(coeffs, branches)), policy)
        res.layer_truncation.append(err)
        res.max_bond = max(res.max_bond, y.max_bond)
        if y.is_zero:
            res.zero_state = True
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
@dataclass
class AuxChainState:
    """Auxiliary-row chain built from the layer boundary coefficient pairs.

    ``folded`` mode merges each layer's ket/bra rows into one dim-4 site;
    ``unfolded`` keeps 2M dim-2 sites ordered ket rows bottom-up then bra
    rows top-down.  The right closure is the unnormalized all-ones vector
    per site in both modes.
    """

    mode: str
    chain: Mps

    @classmethod
    def initial(cls, circuit: StabMpoCircuit, mode: str) -> "AuxChainState":
        if mode == "folded":
            vecs = [
                np.array(folded_coefficients(l.phi0, l.phi1), dtype=np.complex128)
                for l in circuit.layers
            ]
        elif mode == "unfolded":
            kets = [
                np.array([l.phi0, l.phi1], dtype=np.complex128)
                for l in circuit.layers
            ]
            vecs = kets + [v.conj() for v in reversed(kets)]
        else:
            raise ValueError(f"unknown mode {mode!r}")
        return cls(mode, Mps.from_site_vectors(vecs))

    def closure_vector(self) -> Mps:
        dim = 4 if self.mode == "folded" else 2
        return Mps.from_site_vectors(
            [np.ones(dim, dtype=np.complex128) for _ in range(self.chain.n)]
        )

    def mid_cut(self) -> int:
        return ceil(self.chain.n / 2)


def _folded_column(circuit: StabMpoCircuit, nu: PauliString, site: int, bit: int):
    """Column transfer tensors over the folded auxiliary chain.

    The wire is the dim-4 Pauli index threaded bottom cap -> rows -> top cap.
    """
    bottom = computational_pauli_vector(bit)
    top = np.zeros(4, dtype=np.complex128)
    top[nu.letter(site)] = 2.0
    tensors = []
    m = circuit.m
    for k, layer in enumerate(circuit.layers):
        blocks = _structure_blocks(layer.letters.letter(site))
        arr = np.zeros((4, 4, 4, 4), dtype=np.complex128)  # (w_in, a', a, w_out)
        for a in range(4):
            arr[:, a, a, :] = blocks[a].T
        if k == 0:
            arr = np.tensordot(bottom, arr, axes=(0, 0))[None, ...]  # (1,a',a,w)
        if k == m - 1:
            arr = np.tensordot(arr, top, axes=(arr.ndim - 1, 0))[..., None]
        tensors.append(arr)
    return tensors


def _unfolded_column(circuit: StabMpoCircuit, nu: PauliString, site: int, bit: int):
    """Column transfer tensors over the 2M-site unfolded chain (dim-2 wire)."""
    m = circuit.m
    cap = np.zeros(2, dtype=np.complex128)
    cap[bit] = 1.0
    obs_mat = SIGMA[nu.letter(site)]
    tensors = []
    for pos in range(2 * m):
        layer = circuit.layers[pos] if pos < m else circuit.layers[2 * m - 1 - pos]
        gate_mat = SIGMA[layer.letters.letter(site)]
        mats = [np.eye(2, dtype=np.complex128), gate_mat]
        if pos == m:  # observable sits on the wire entering the top bra row
            mats = [mat @ obs_mat for mat in mats]
        arr = np.zeros((2, 2, 2, 2), dtype=np.complex128)  # (w_in, a', a, w_out)
        for a in range(2):
            arr[:, a, a, :] = mats[a].T
        if pos == 0:
            arr = np.tensordot(cap, arr, axes=(0, 0))[None, ...]
        if pos == 2 * m - 1:
            arr = np.tensordot(arr, cap, axes=(arr.ndim - 1, 0))[..., None]
        tensors.append(arr)
    return tensors


def _apply_column(chain: Mps, tensors, policy: TruncationPolicy) -> tuple[Mps, float]:
    """Apply a column of (w_in, a_out, a_in, w_out) tensors to the chain."""
    new = []
    for op, t in zip(tensors, chain.tensors):
        # (l,o,i,w),(b,i,r) -> (l,b,o,w,r), wire index major in merged bonds
        merged = np.einsum("loiw,bir->lbowr", op, t)
        wl, bl, o, wr, br = merged.shape
        new.append(merged.reshape(wl * bl, o, wr * br))
    scaled = Mps(new, chain.log_norm, None, chain.is_zero)
    work_policy = TruncationPolicy(policy.chi_max, policy.svd_cutoff, renormalize=True)
    return scaled.compress(work_policy)


@dataclass
class HorizontalResult:
    value: float
    temporal_entropy_bits: np.ndarray
    max_bond: int = 1
    zero_state: bool = False
    column_truncation: list[float] = field(default_factory=list)


def horizontal_contract(
    circuit: StabMpoCircuit,
    observable: PauliString,
    bits,
    policy: TruncationPolicy,
    mode: str = "folded",
) -> HorizontalResult:
    """Sweep the auxiliary chain over physical columns left to right.

    Only computational product initial states are supported: the column
    closure needs single-site matrix elements of the boundary state.  The
    symmetric-bipartition entropy of the chain is recorded after every
    column; the final scalar matches the vertical contraction.
    """
    bits = [int(b) for b in bits]
    if len(bits) != circuit.n:
        raise ValueError("initial state length mismatch")
    nu, sign = _observable_letters(circuit, observable)

    if circuit.m == 0:
        value = 1.0
        for j, b in enumerate(bits):
            mu = nu.letter(j)
            if mu == 3:
                value *= -1.0 if b else 1.0
            elif mu != 0:
                value = 0.0
                break
        return HorizontalResult(sign * value, np.zeros(circuit.n))

    aux = AuxChainState.initial(circuit, mode)
    entropies = np.zeros(circuit.n)
    res = HorizontalResult(0.0, entropies)
    cut = aux.mid_cut()

    for j in range(circuit.n):
        if mode == "folded":
            tensors = _folded_column(circuit, nu, j, bits[j])
        else:
            tensors = _unfolded_column(circuit, nu, j, bits[j])
        chain, err = _apply_column(aux.chain, tensors, policy)
        aux = AuxChainState(mode, chain)
        res.column_truncation.append(err)
        res.max_bond = max(res.max_bond, chain.max_bond)
        if chain.is_zero:
            res.zero_state = True
            res.value = 0.0
            return res
        entropies[j] = chain.entanglement_entropy(cut)

    value = sign * inner(aux.closure_vector(), aux.chain)
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
