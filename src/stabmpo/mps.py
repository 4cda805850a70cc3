"""Complex tensor-train engine for pure states.

Site tensors are order-3 arrays (left bond, physical, right bond) with
boundary bonds of size 1.  The physical dimension defaults to 2 but is
per-site, since the folded transfer-network reuses the same machinery
with four-dimensional sites.  Operations return new objects; tensors are
shared where untouched and treated as immutable by convention.  A
``center`` that is not None is the orthogonality center: sites left of it
are left- and sites right of it right-isometric.  Operations keep that and
use it to touch only the sites between it and their own span.

One scale rule: every state the library builds is a unit-norm network
times exp(log_norm).  Each step divides its result by that result's norm
and adds the log to ``log_norm``, or marks the state zero when the norm is
below ``ZERO_NORM_THRESHOLD``: 1e-12 of the norm before the step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pauli import ORACLE_CAP, SIGMA, OracleCapError, PauliString

ZERO_NORM_THRESHOLD = 1e-12


@dataclass(frozen=True)
class TruncationPolicy:
    """Bond cap plus relative Schmidt-weight cutoff.

    The cap is applied first; afterwards singular values whose relative
    weight s_i^2 / sum_j s_j^2 falls below ``svd_cutoff`` are dropped.
    """

    chi_max: int
    svd_cutoff: float = 1e-12

    def __post_init__(self) -> None:
        chi = self.chi_max  # 2.5 or True would reach a slice or act as 1
        if isinstance(chi, bool) or not isinstance(chi, (int, np.integer)) or chi < 1:
            raise ValueError(f"chi_max must be an int >= 1, not {chi!r}")
        if not 0.0 <= self.svd_cutoff < 1.0:
            raise ValueError("svd_cutoff must be in [0, 1)")


def _truncate_spectrum(w: np.ndarray, policy: TruncationPolicy) -> tuple[int, float]:
    """Number of weights to keep and the discarded relative weight.

    ``w`` holds the squared Schmidt values, nonnegative and largest first.
    After the cap and the cutoff pick k, k drops below any multiplet it would
    split (s_{k-1} - s_k <= 1e-8 s_0, s = sqrt(w)), so rounding never picks
    among equal values, unless the top multiplet alone exceeds the cap.
    """
    total = float(np.sum(w))
    if total == 0.0:
        return 1, 0.0
    k = min(len(w), policy.chi_max)
    if policy.svd_cutoff > 0.0:
        above = int(np.count_nonzero(w / total >= policy.svd_cutoff))
        k = min(k, max(above, 1))
    s, whole = np.sqrt(w), k
    while 0 < whole < len(w) and s[whole - 1] - s[whole] <= 1e-8 * s[0]:
        whole -= 1
    k = whole or k
    discarded = float(np.sum(w[k:])) / total
    return k, discarded


def _keeps_every_weight(rho: np.ndarray, policy: TruncationPolicy) -> bool:
    """True when ``_truncate_spectrum`` would keep every eigenvalue of ``rho``.

    That needs len(rho) <= chi_max, a positive trace and, unless rho is 1x1
    or the cutoff is 0, every eigenvalue above svd_cutoff * tr rho: exactly
    when rho minus that shift has a Cholesky factor.  The shift goes on a
    copy, so a failed test hands ``eigh`` the unchanged rho.
    """
    k = len(rho)
    if k > policy.chi_max:
        return False
    total = float(np.trace(rho).real)
    if not total > 0.0:
        return False
    if k == 1 or policy.svd_cutoff == 0.0:
        return True
    shifted = rho.copy()
    shifted.flat[:: k + 1] -= policy.svd_cutoff * total
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def basis_bits(bits) -> list[int]:
    """Computational-basis labels as ints; each raw value must equal 0 or 1."""
    bits = list(bits)
    for b in bits:
        if b not in (0, 1):  # int() would read 2 and -1 as 1, and 0.7 as 0
            raise ValueError(f"initial bit {b!r} is not 0 or 1")
    return [int(b) for b in bits]


class Mps:
    """Matrix product state with bond cap and truncation bookkeeping."""

    def __init__(
        self,
        tensors: list[np.ndarray],
        log_norm: float = 0.0,
        center: int | None = None,
        is_zero: bool = False,
    ) -> None:
        if not tensors:
            raise ValueError("empty tensor list")
        self.tensors = list(tensors)
        self.log_norm = float(log_norm)
        self.center = center
        self.is_zero = bool(is_zero)
        if center is not None and not 0 <= center < len(self.tensors):
            raise ValueError(f"center {center} out of range")
        if self.tensors[0].shape[0] != 1 or self.tensors[-1].shape[2] != 1:
            raise ValueError("boundary bonds must have dimension 1")
        for a, b in zip(self.tensors, self.tensors[1:]):
            if a.shape[2] != b.shape[0]:
                raise ValueError("mismatched bond dimensions")

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def product_state(cls, bits) -> "Mps":
        """Computational basis product state |b_0 b_1 ...>."""
        tensors = []
        for b in basis_bits(bits):
            t = np.zeros((1, 2, 1), dtype=np.complex128)
            t[0, b, 0] = 1.0
            tensors.append(t)
        return cls(tensors, center=0)

    @classmethod
    def from_site_vectors(cls, vectors) -> "Mps":
        """Product state of one vector per site, each divided by its norm.

        ``log_norm`` starts at the sum of the norms' logs; a zero vector gives
        a zero state.
        """
        tensors = [np.asarray(v, dtype=np.complex128).reshape(1, -1, 1) for v in vectors]
        norms = np.sqrt([np.vdot(t, t).real for t in tensors])
        if not np.all(norms):
            return cls(tensors, is_zero=True)
        return cls([t / nrm for t, nrm in zip(tensors, norms)], np.sum(np.log(norms)))

    # ------------------------------------------------------------------
    # descriptors
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return len(self.tensors)

    @property
    def phys_dims(self) -> tuple[int, ...]:
        return tuple(t.shape[1] for t in self.tensors)

    @property
    def bond_dims(self) -> tuple[int, ...]:
        return tuple(t.shape[0] for t in self.tensors) + (1,)

    @property
    def max_bond(self) -> int:
        return max(self.bond_dims)

    def raw_norm(self) -> float:
        """Two-norm of the tensor network, excluding the log_norm scale."""
        e = np.ones((1, 1), dtype=np.complex128)
        for t in self.tensors:
            tmp = np.tensordot(e, t, axes=(1, 0))  # (a, d, r)
            e = np.tensordot(t.conj(), tmp, axes=((0, 1), (0, 1)))  # (a', r)
        return float(np.sqrt(abs(e[0, 0].real)))

    def norm(self) -> float:
        return self.raw_norm() * float(np.exp(self.log_norm))

    # ------------------------------------------------------------------
    # canonical form
    # ------------------------------------------------------------------
    def _orth_left(self, tensors: list[np.ndarray], i: int) -> None:
        dl, d, dr = tensors[i].shape
        q, r = np.linalg.qr(tensors[i].reshape(dl * d, dr))
        tensors[i] = q.reshape(dl, d, -1)
        tensors[i + 1] = _absorb_left(r, tensors[i + 1])

    def _orth_right(self, tensors: list[np.ndarray], i: int) -> None:
        dl, d, dr = tensors[i].shape
        q, r = np.linalg.qr(tensors[i].reshape(dl, d * dr).conj().T)
        tensors[i] = q.conj().T.reshape(-1, d, dr)
        tensors[i - 1] = _absorb_right(tensors[i - 1], r.conj().T)

    def move_center(self, target: int) -> "Mps":
        """Return a copy with the orthogonality center at ``target``."""
        if not 0 <= target < self.n:
            raise ValueError("center out of range")
        tensors = list(self.tensors)
        if self.center is None:
            for i in range(target):
                self._orth_left(tensors, i)
            for i in range(self.n - 1, target, -1):
                self._orth_right(tensors, i)
        else:
            for i in range(self.center, target):
                self._orth_left(tensors, i)
            for i in range(self.center, target, -1):
                self._orth_right(tensors, i)
        return Mps(tensors, self.log_norm, target, self.is_zero)

    # ------------------------------------------------------------------
    # local operations
    # ------------------------------------------------------------------
    def apply_1q_gate(self, u: np.ndarray, site: int) -> "Mps":
        if not 0 <= site < self.n:
            raise ValueError("gate site out of range")
        u = np.asarray(u, dtype=np.complex128)
        if u.shape != (2, 2):
            raise ValueError("1q gate must be 2x2")
        if not _is_unitary(u):
            raise ValueError("gate is not unitary to 1e-10")
        new = np.tensordot(u, self.tensors[site], axes=(1, 1)).transpose(1, 0, 2)
        tensors = list(self.tensors)
        tensors[site] = np.ascontiguousarray(new)
        return Mps(tensors, self.log_norm, self.center, self.is_zero)

    def apply_2q_gate(
        self, u: np.ndarray, site: int, policy: TruncationPolicy
    ) -> tuple["Mps", float]:
        """Apply a 4x4 gate on (site, site+1) as a one-brick ``apply_mpo`` window.

        Returns the new state and the discarded relative weight.
        """
        if not 0 <= site < self.n - 1:
            raise ValueError("gate site out of range")
        ops = [None] * self.n
        ops[site : site + 2] = split_two_site([u])[0]
        return self.apply_mpo(ops, policy)

    def apply_mpo(
        self, ops: list[np.ndarray | None] | complex, policy: TruncationPolicy
    ) -> tuple["Mps", float]:
        """Apply a matrix-product operator, then compress.

        ``ops[j]`` is the (left bond, out, in, right bond) tensor of site j,
        or None for an identity site outside the capped span [lo, hi].  The
        merged bonds put the operator bond major.  With a known center, the
        center moves into [lo, hi] and only that window is swept; otherwise
        the whole chain is.  A scalar s (``window_mpo`` with no window) puts
        its phase on the center tensor (site 0 without a center) and log|s|
        into ``log_norm``; an s with |s| below ``ZERO_NORM_THRESHOLD`` is
        multiplied in whole and marks the state zero.  Returns the state and
        discarded weight.
        """
        if not isinstance(ops, list):
            tensors, c, scale = list(self.tensors), self.center or 0, abs(ops)
            if scale < ZERO_NORM_THRESHOLD:
                tensors[c] = tensors[c] * ops
                return Mps(tensors, self.log_norm, self.center, True), 0.0
            tensors[c] = tensors[c] * (ops / scale)
            return Mps(tensors, self.log_norm + np.log(scale), self.center, self.is_zero), 0.0
        if len(ops) != self.n:
            raise ValueError("operator length does not match the state")
        sites = [j for j, op in enumerate(ops) if op is not None]
        if not sites:
            raise ValueError("operator has no sites")
        work, lo, hi = self, 0, self.n - 1
        if self.center is not None:
            lo, hi = sites[0], sites[-1]
            work = self.move_center(min(max(self.center, lo), hi))
        tensors = list(work.tensors)
        for j in sites:  # (wl, o, wr | i) . (i | bl, br), then (wl bl, o, wr br)
            (wl, o, i, wr), (bl, _, br) = ops[j].shape, tensors[j].shape
            op = ops[j].transpose(0, 1, 3, 2).reshape(-1, i)
            merged = np.dot(op, tensors[j].transpose(1, 0, 2).reshape(i, -1))
            merged = merged.reshape(wl, o, wr, bl, br).transpose(0, 3, 1, 2, 4)
            tensors[j] = merged.reshape(wl * bl, o, wr * br)
        return self._sweep(tensors, lo, hi, policy)

    # ------------------------------------------------------------------
    # compression
    # ------------------------------------------------------------------
    def compress(self, policy: TruncationPolicy) -> tuple["Mps", float]:
        """Compress the whole chain; see ``_sweep``."""
        return self._sweep(list(self.tensors), 0, self.n - 1, policy)

    def _sweep(self, tensors, lo: int, hi: int, policy) -> tuple["Mps", float]:
        """Compress [lo, hi] by reduced density matrices; ``hi`` ends as center.

        Sites left of ``lo`` must be left- and right of ``hi`` right-isometric.
        Right to left, a site with dl > d·dr moves into its left neighbour and
        leaves a unit tensor, cutting that bond to d·dr; from the first other
        site on, each bond's right Gram environment E ← Σ_s M_s E M_s† is kept
        (None: identity).  Left to right, T (dl·d × dr), or R of T = QR if
        tall, splits by ρ = T E T† (R E R†).  The sites left of i are
        orthonormal, so ρ's eigenvalues are the squared Schmidt values, to
        about 1e-16·tr ρ (below the default cutoff).  Where the policy would
        keep all of them (``_keeps_every_weight``) the split is a gauge step:
        the identity (Q) is the site and T (R) the carry, at no loss.
        Otherwise the top k eigenvectors U_k make the site (Q U_k); the carry
        U_k† T (U_k† R) is the exact projection, so the summed discarded
        weight returned is the loss of this sweep.  The center ``hi`` ends
        with unit norm, its norm's log added to ``log_norm``.
        """
        envs, units, env = {}, set(), None
        for i in range(hi, lo, -1):
            dl, d, dr = tensors[i].shape
            if d * dr < dl:
                tensors[i - 1] = _absorb_right(tensors[i - 1], tensors[i].reshape(dl, -1))
                units.add(i)  # tensors[i] keeps its (d, dr) for the carry
                env = envs[i] = None if env is None else np.kron(np.eye(d), env)
                continue
            m = tensors[i].reshape(-1, d * dr)
            me = m if env is None else np.dot(tensors[i].reshape(-1, dr), env)
            env = envs[i] = np.dot(me.reshape(m.shape), m.conj().T)
        total_err = 0.0
        for i in range(lo, hi):
            dl, d, dr = tensors[i].shape
            t, q = tensors[i].reshape(dl * d, dr), None
            if dl * d > dr:
                q, t = np.linalg.qr(t)
            env = envs.get(i + 1)
            te = t if env is None else np.dot(t, env)
            rho = np.dot(te, t.conj().T)
            if _keeps_every_weight(rho, policy):  # a gauge step: the site is Q or I
                k, carry = len(rho), t
                site = np.eye(k, dtype=t.dtype) if q is None else q
            else:
                w, v = np.linalg.eigh(rho)
                k, err = _truncate_spectrum(np.clip(w[::-1], 0.0, None), policy)
                total_err += err
                u = v[:, ::-1][:, :k]
                site = u if q is None else np.dot(q, u)
                carry = np.dot(u.conj().T, t)
            tensors[i] = site.reshape(dl, d, k)
            nxt = carry if i + 1 in units else _absorb_left(carry, tensors[i + 1])
            tensors[i + 1] = nxt.reshape(k, *tensors[i + 1].shape[1:])

        nrm = float(np.linalg.norm(tensors[hi]))
        if nrm < ZERO_NORM_THRESHOLD:
            return Mps(tensors, self.log_norm, hi, True), total_err
        tensors[hi] = tensors[hi] / nrm
        return Mps(tensors, self.log_norm + np.log(nrm), hi, self.is_zero), total_err

    # ------------------------------------------------------------------
    # measurements
    # ------------------------------------------------------------------
    def entanglement_entropy(self, cut: int) -> float:
        """Von Neumann entropy in bits across the bond left of site ``cut``."""
        spectrum = self.schmidt_spectrum(cut)
        if spectrum is None:
            return 0.0
        p = spectrum[spectrum > 1e-16]
        return float(-np.sum(p * np.log2(p))) + 0.0  # normalize -0.0

    def schmidt_spectrum(self, cut: int) -> np.ndarray | None:
        """Normalized squared Schmidt values at the cut, largest first.

        None at cut 0 or n and for a zero state.  They are the eigenvalues
        of the Gram environment of the center and the isometric sites up to
        the cut (no copy, QR or SVD), to an absolute error of about 1e-16.
        """
        if not 0 <= cut <= self.n:
            raise ValueError(f"cut {cut} outside [0, {self.n}]")
        if cut in (0, self.n) or self.is_zero:
            return None
        work = self if self.center is not None else self.move_center(cut - 1)
        c = work.center
        if c >= cut:  # the center, then left-isometric sites down to the cut
            sites = work.tensors[c : cut - 1 : -1]
        else:  # mirrored: the same step then carries conj(E), same spectrum
            sites = [t.transpose(2, 1, 0) for t in work.tensors[c:cut]]
        _, env = _gram_walk(sites)
        p = np.clip(np.linalg.eigvalsh(env)[::-1], 0.0, None)
        total = float(np.sum(p))
        if total == 0.0:
            return None
        return p / total

    def expect_pauli(self, p: PauliString) -> float:
        """<psi|P|psi> / <psi|psi>, real for a Hermitian string.

        Only the sites from the center to ``p``'s support count, and the
        norm is the center tensor's.  A state without a center first moves
        it to site 0.
        """
        if p.n != self.n:
            raise ValueError("length mismatch")
        if self.is_zero:
            return 0.0
        if self.center is None:
            return self.move_center(0).expect_pauli(p)
        span = (self.center, *p.support)
        lo, hi = min(span), max(span)
        env = np.eye(self.tensors[lo].shape[0], dtype=np.complex128)
        for j in range(lo, hi + 1):
            t = self.tensors[j]
            dl, d, dr = t.shape
            mu = p.letter(j)
            op = np.matmul(SIGMA[mu], t) if mu else t  # sigma on the physical index
            tmp = np.dot(env, op.reshape(dl, d * dr)).reshape(dl * d, dr)
            env = np.dot(t.reshape(dl * d, dr).conj().T, tmp)
        center = self.tensors[self.center]
        value = p.phase * np.trace(env) / np.vdot(center, center)
        if abs(value.imag) > 1e-10 * max(1.0, abs(value)):
            raise ValueError(f"expectation has imaginary residual {value.imag}")
        return float(value.real)

    def expect_local(self, letters) -> np.ndarray:
        """<sigma^{letters[j]}_j> for every site j, normalized and real.

        One pass from the center to each end carries the Gram environment of
        the sites in between (as ``schmidt_spectrum``), so each site costs
        one step instead of ``expect_pauli``'s walk from the center.  A state
        without a center first moves it to site 0.
        """
        if len(letters) != self.n:
            raise ValueError("length mismatch")
        if self.is_zero:
            return np.zeros(self.n)
        if self.center is None:
            return self.move_center(0).expect_local(letters)
        c = self.center
        left = _local_values(self.tensors[c::-1], letters[c::-1])
        mirrored = [t.transpose(2, 1, 0) for t in self.tensors[c:]]
        right = _local_values(mirrored, letters[c:])
        center = self.tensors[c]
        values = np.array(left[::-1] + right[1:]) / np.vdot(center, center)
        if np.any(np.abs(values.imag) > 1e-10 * np.maximum(1.0, np.abs(values))):
            raise ValueError(f"expectation has imaginary residual {values.imag}")
        return values.real

    def to_dense(self, cap: int = ORACLE_CAP) -> np.ndarray:
        """Dense statevector (qubit 0 most significant); guarded by ``cap``."""
        dim = 1
        for d in self.phys_dims:
            dim *= d
        if dim > 2**cap:
            raise OracleCapError(f"dense vector of size {dim} exceeds oracle cap")
        v = np.ones((1, 1), dtype=np.complex128)
        for t in self.tensors:
            v = np.tensordot(v, t, axes=(1, 0))  # (prefix, d, r)
            v = v.reshape(v.shape[0] * v.shape[1], v.shape[2])
        return v[:, 0] * np.exp(self.log_norm)

    def select_components(self, indices) -> complex:
        """Contract fixing one physical index per site (product-basis element)."""
        v = np.ones((1,), dtype=np.complex128)
        for t, idx in zip(self.tensors, indices):
            v = v @ t[:, int(idx), :]
        return complex(v[0] * np.exp(self.log_norm))


def _gram_walk(sites) -> tuple[list[np.ndarray], np.ndarray]:
    """Walk outward from the center: each site A times the Gram environment E
    of the sites before it (E <- sum_s (A E)_s A_s^dag, from the identity),
    and the E past the last site.  Mirrored sites (bonds swapped) carry
    conj(E), which has the same spectrum and Hermitian expectations.
    """
    walked, env = [], None
    for t in sites:
        dl, d, dr = t.shape
        te = t if env is None else np.dot(t.reshape(dl * d, dr), env).reshape(t.shape)
        walked.append(te)
        env = np.dot(te.reshape(dl, d * dr), t.reshape(dl, d * dr).conj().T)
    return walked, env


def _local_values(sites, letters) -> list[complex]:
    """<A| sigma^mu |A E> per site of a walk from the center (``_gram_walk``)."""
    walked, _ = _gram_walk(sites)
    return [
        np.vdot(t, np.matmul(SIGMA[mu], te) if mu else te)
        for t, te, mu in zip(sites, walked, letters)
    ]


def _absorb_left(mat: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``mat`` into t's left bond; np.dot on tensordot's operands, so its bits."""
    return np.dot(mat, t.reshape(t.shape[0], -1)).reshape(-1, *t.shape[1:])


def _absorb_right(t: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """``mat`` into t's right bond; np.dot on tensordot's operands, so its bits."""
    return np.dot(t.reshape(-1, t.shape[2]), mat).reshape(*t.shape[:2], -1)


def _is_unitary(mat: np.ndarray, tol: float = 1e-10) -> bool:
    """True when ``mat``, one square matrix or a stack of them, is unitary to ``tol``."""
    d = mat.shape[-1]
    gram = np.matmul(np.swapaxes(mat.conj(), -1, -2), mat)
    return bool(mat.shape[-2] == d and np.max(np.abs(gram - np.eye(d))) <= tol)


def split_two_site(us) -> list[tuple[np.ndarray, np.ndarray]]:
    """Operator-Schmidt split of each 4x4 unitary into two operator sites.

    u[(o0 o1), (i0 i1)] read as (o0 i0) x (o1 i1) has, from one batched SVD of
    the stack, U s V^dag: the sites U (1, 2, 2, k) and s V^dag (k, 2, 2, 1),
    k the singular values above 1e-14 s_0 (1, 2 or 4 for a Clifford).
    """
    us = np.asarray(us, dtype=np.complex128)
    if us.ndim != 3 or us.shape[1:] != (4, 4):
        raise ValueError("2q gate must be 4x4")
    if not _is_unitary(us):
        raise ValueError("gate is not unitary to 1e-10")
    mats = us.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 3, 2, 4).reshape(-1, 4, 4)
    u, s, vh = np.linalg.svd(mats)
    ranks = np.count_nonzero(s > 1e-14 * s[:, :1], axis=1)
    return [
        (a[:, :k].reshape(1, 2, 2, k), (w[:k, None] * b[:k]).reshape(k, 2, 2, 1))
        for a, w, b, k in zip(u, s, vh, ranks)
    ]


def inner(a: Mps, b: Mps) -> complex:
    """Overlap <a|b>, including both log_norm scales."""
    if a.phys_dims != b.phys_dims:
        raise ValueError("length mismatch")
    e = np.ones((1, 1), dtype=np.complex128)
    for ta, tb in zip(a.tensors, b.tensors):
        tmp = np.tensordot(e, tb, axes=(1, 0))  # (a, d, rb)
        e = np.tensordot(ta.conj(), tmp, axes=((0, 1), (0, 1)))  # (ra, rb)
    return complex(e[0, 0] * np.exp(a.log_norm + b.log_norm))


def diagonal_mpo(mats) -> np.ndarray:
    """(k, d, d, k) operator tensor with ``mats[a]`` at bond value a -> a."""
    k, d = len(mats), mats[0].shape[0]
    arr = np.zeros((k, d, d, k), dtype=np.complex128)
    for a, mat in enumerate(mats):
        arr[a, :, :, a] = mat
    return arr


def cap_mpo(ops, left, right) -> list[np.ndarray]:
    """Close an operator chain: ``left`` into the first bond, ``right`` into the last.

    With one site both caps land on the same tensor.  List entries are
    replaced, never written into, so shared operator tables stay intact.
    """
    ops = list(ops)
    ops[0] = np.tensordot(left, ops[0], axes=(0, 0))[None, ...]
    ops[-1] = np.tensordot(ops[-1], right, axes=(3, 0))[..., None]
    return ops


def window_mpo(letters, table, left, right) -> list[np.ndarray | None] | complex:
    """``Mps.apply_mpo``'s operator of a letter string: its support window.

    ``table[g]`` is letter g's uncapped (bond, out, in, bond) tensor, and
    ``table[0]`` must be delta(bond) x delta(physical), so the caps pass
    through I letters: the capped tensors run from the first to the last
    non-I letter, None outside; with no such letter, the scalar left . right.
    """
    support = np.flatnonzero(letters)
    if not support.size:
        return complex(np.dot(left, right))
    lo, hi = int(support[0]), int(support[-1])
    ops = cap_mpo([table[g] for g in letters[lo : hi + 1]], left, right)
    return [None] * lo + ops + [None] * (len(letters) - 1 - hi)
