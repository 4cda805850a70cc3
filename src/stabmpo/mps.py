"""Complex tensor-train engine for pure states.

Site tensors are order-3 arrays (left bond, physical, right bond) with
boundary bonds of size 1.  The physical dimension defaults to 2 but is
per-site, since the folded transfer-network reuses the same machinery
with four-dimensional sites.  Operations return new objects; tensors are
shared where untouched and treated as immutable by convention.

One canonical form, which every state has by construction: sites left of
the orthogonality center ``center`` are left- and sites right of it
right-isometric, and every square isometric site is exactly the identity
gauge δ.  ``Mps(tensors)`` brings any network to it, center 0, by one QR
sweep; every step keeps it and uses it to touch only the sites between the
center and its own span.

One scale rule: every state the library builds is a unit-norm network
times exp(log_norm).  Each step divides its result by that result's norm
and adds the log to ``log_norm``, or marks the state zero when the norm is
below ``ZERO_NORM_THRESHOLD``: 1e-12 of the norm before the step.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import inf

import numpy as np

from .pauli import ORACLE_CAP, SIGMA, OracleCapError, PauliString, _index, basis_bits

ZERO_NORM_THRESHOLD = 1e-12
FULL_CUT_FLOOR = 1e-15  # above the ~1e-16 tr rho rounding of a swept rho's eigenvalues


@dataclass(frozen=True)
class TruncationPolicy:
    """Bond cap plus relative Schmidt-weight cutoff.

    The cap is applied first; afterwards singular values whose relative
    weight s_i^2 / sum_j s_j^2 falls below ``svd_cutoff`` are dropped.  A
    step compresses the cuts it sweeps, and it does not sweep a full cut
    (``Mps.apply_mpo``): there the cap cannot bind and the cutoff is not
    applied.  A cut that the step leaves at full size, min(prod d left,
    prod d right) <= ``chi_max``, keeps every weight when all of them lie
    above the rounding floor min(1e-15, ``svd_cutoff``), so it stays full;
    otherwise it is cut at ``svd_cutoff`` as any other.  The reported
    discarded weight is the loss of the swept cuts.
    The vertical fold and the horizontal sweep are linear in their chains, so
    a dropped weight w moves their value by up to sqrt(w): they cut their
    chains on amplitude, at weight ``svd_cutoff**2``.
    """

    chi_max: int
    svd_cutoff: float = 1e-12

    def __post_init__(self) -> None:
        _index(self.chi_max, 1, inf, "chi_max")  # 2.5 would reach a slice, True act as 1
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


class Mps:
    """Matrix product state in the one canonical form (module docstring)."""

    def __init__(
        self, tensors: list[np.ndarray], log_norm: float = 0.0, is_zero: bool = False
    ) -> None:
        tensors = list(tensors)
        if not tensors:
            raise ValueError("empty tensor list")
        if tensors[0].shape[0] != 1 or tensors[-1].shape[2] != 1:
            raise ValueError("boundary bonds must have dimension 1")
        for a, b in zip(tensors, tensors[1:]):
            if a.shape[2] != b.shape[0]:
                raise ValueError("mismatched bond dimensions")
        for i in range(len(tensors) - 1, 0, -1):
            _orth_right(tensors, i)
        self.tensors, self.log_norm, self.center = tensors, float(log_norm), 0
        self.is_zero = bool(is_zero)

    @classmethod
    def _canonical(cls, tensors, log_norm, center: int, is_zero) -> "Mps":
        """Every step's result: tensors already canonical at ``center``, unchecked."""
        m = cls.__new__(cls)
        m.tensors, m.log_norm, m.center, m.is_zero = tensors, float(log_norm), center, is_zero
        return m

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def product_state(cls, bits) -> "Mps":
        """Computational basis product state |b_0 b_1 ...>."""
        return cls.from_site_vectors(np.eye(2)[basis_bits(bits)])

    @classmethod
    def from_site_vectors(cls, vectors) -> "Mps":
        """Product state of one vector per site, each divided by its norm.

        Unit sites are canonical at every site, so the center is 0 with no
        QR.  ``log_norm`` starts at the sum of the norms' logs; a zero vector
        gives a zero state, canonicalized like any network.
        """
        tensors = [np.asarray(v, dtype=np.complex128).reshape(1, -1, 1) for v in vectors]
        norms = np.sqrt([np.vdot(t, t).real for t in tensors])
        if not np.all(norms):
            return cls(tensors, is_zero=True)
        units = [t / nrm for t, nrm in zip(tensors, norms)]
        return cls._canonical(units, np.sum(np.log(norms)), 0, False)

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

    # ------------------------------------------------------------------
    # canonical form
    # ------------------------------------------------------------------
    def move_center(self, target: int) -> "Mps":
        """Return a copy with the orthogonality center at ``target``."""
        target = _index(target, 0, self.n - 1, "center")
        tensors = list(self.tensors)
        for i in range(self.center, target):
            _orth_left(tensors, i)
        for i in range(self.center, target, -1):
            _orth_right(tensors, i)
        return Mps._canonical(tensors, self.log_norm, target, self.is_zero)

    # ------------------------------------------------------------------
    # local operations
    # ------------------------------------------------------------------
    def apply_1q_gate(self, u: np.ndarray, site: int) -> "Mps":
        """Apply a 2x2 unitary on ``site``.

        A one-site unitary keeps an isometric site isometric, so on the
        center or a non-square isometric site (which is not δ) it is applied
        in place and the center stays.  A square isometric site is δ, which
        that would break, so there the gate is a bond-1 ``apply_mpo`` window
        and the center ends at ``site``.
        """
        site = _index(site, 0, self.n - 1, "gate site")
        u = np.asarray(u, dtype=np.complex128)
        if u.shape != (2, 2):
            raise ValueError("1q gate must be 2x2")
        if not _is_unitary(u):
            raise ValueError("gate is not unitary to 1e-10")
        dl, d, dr = self.tensors[site].shape
        if site == self.center or (dl * d != dr if site < self.center else dl != d * dr):
            tensors = list(self.tensors)
            tensors[site] = np.matmul(u, tensors[site])  # u on the physical index
            return Mps._canonical(tensors, self.log_norm, self.center, self.is_zero)
        ops = [None] * self.n
        ops[site] = u[None, :, :, None]
        return self.apply_mpo(ops, TruncationPolicy(1))[0]  # one site: no cut to sweep

    def apply_2q_gate(
        self, u: np.ndarray, site: int, policy: TruncationPolicy
    ) -> tuple["Mps", float]:
        """Apply a 4x4 gate on (site, site+1) as a one-brick ``apply_mpo`` window.

        Returns the new state and the discarded relative weight.
        """
        site = _index(site, 0, self.n - 2, "gate site")
        ops = [None] * self.n
        ops[site : site + 2] = split_two_site([u])[0]
        return self.apply_mpo(ops, policy)

    def apply_mpo(
        self, ops: list[np.ndarray | None] | complex, policy: TruncationPolicy
    ) -> tuple["Mps", float]:
        """Apply a matrix-product operator, then compress its core.

        ``ops[j]`` is the (left bond, out, in, right bond) tensor of site j, or
        None for an identity of bond 1; the non-None sites span [lo, hi], and
        the merged bonds put the operator bond major.  A full cut
        (``_full_cuts``) has a unitary basis L on its isometric side, so an
        operator there is W L = L <L|W|L> and cannot grow the bond.  The
        flanks outside the core [i_l, i_r - 1] (``_core``) keep their tensors:
        ``_flank_env`` walks each into <L|W|L> (<R|W|R>) from W alone, since
        its sites are δ, and ``_fold`` takes it, with W, into the core's
        boundary site; inner sites are merged with W.  Only the core is swept,
        and i_r - 1 ends as center; a cut that the sweep leaves at full size
        (``_full_size``) keeps every weight above min(``FULL_CUT_FLOOR``,
        svd_cutoff), so the next step folds it.  A scalar s (``window_mpo``
        with no window) puts its phase on the center and log|s| into
        ``log_norm``; |s| < ``ZERO_NORM_THRESHOLD`` is multiplied in whole and
        marks the state zero.  Returns the state and discarded weight.
        """
        if not isinstance(ops, list):
            tensors, c, scale = list(self.tensors), self.center, abs(ops)
            if scale < ZERO_NORM_THRESHOLD:
                tensors[c] = tensors[c] * ops
                return Mps._canonical(tensors, self.log_norm, c, True), 0.0
            tensors[c] = tensors[c] * (ops / scale)
            return Mps._canonical(tensors, self.log_norm + np.log(scale), c, self.is_zero), 0.0
        if len(ops) != self.n:
            raise ValueError("operator length does not match the state")
        sites = [j for j, op in enumerate(ops) if op is not None]
        if not sites:
            raise ValueError("operator has no sites")
        lo, hi = sites[0], sites[-1]
        tensors, i_l, i_r, floor = self._core(lo, hi, policy)
        first, last = i_l + (i_l > lo), i_r - 1 - (i_r <= hi)  # the core inside its folds
        for j in (j for j in sites if first <= j <= last):
            (wl, o, i, wr), (bl, _, br) = ops[j].shape, tensors[j].shape
            op = ops[j].transpose(0, 1, 3, 2).reshape(-1, i)  # (wl, o, wr | i) . (i | bl, br)
            merged = np.dot(op, tensors[j].transpose(1, 0, 2).reshape(i, -1))
            merged = merged.reshape(wl, o, wr, bl, br).transpose(0, 3, 1, 2, 4)
            tensors[j] = merged.reshape(wl * bl, o, wr * br)
        if i_l > lo:  # the core's boundary sites are not merged
            flank = [_site_op(ops[j], tensors[j]) for j in range(lo, i_l + 1)]
            env = _flank_env(flank[:-1], tensors[lo].shape[0])
            tensors[i_l] = _fold(env, tensors[i_l], flank[-1])
        if i_r <= hi:  # the right flank and i_r - 1 mirrored: bonds swapped
            span = range(hi, i_r - 2, -1)
            flank = [_site_op(ops[j], tensors[j]).transpose(3, 1, 2, 0) for j in span]
            env = _flank_env(flank[:-1], tensors[hi].shape[2])
            if i_r - 1 == i_l > lo:  # a one-site core with both flanks: (v b') -> a
                tensors[i_l] = _absorb_right(tensors[i_l], env.T.reshape(-1, len(env)))
            else:
                boundary = tensors[i_r - 1].transpose(2, 1, 0)
                tensors[i_r - 1] = _fold(env, boundary, flank[-1]).transpose(2, 1, 0)
        return self._sweep(tensors, i_l, i_r - 1, policy, floor)

    def apply_rotation(self, letters, phis, policy: TruncationPolicy) -> tuple["Mps", float]:
        """phi0 |psi> + phi1 P|psi>, P the string of ``letters`` (0-3 per site),
        compressed as ``apply_mpo`` compresses its bond-2 window (all I: the
        scalar phi0 + phi1).  P acts on each core site A as a signed
        permutation (``_pauli_image``), and the sites are placed as the
        window's merge places them: [phi0 A, phi1 P A] along the right bond at
        i_l, [A; P A] along the left bond at i_r - 1, block-diagonal between,
        phi0 A + phi1 P A for one site; the flanks' letters act on the full
        bonds' digits.  Returns the state and discarded weight."""
        letters = np.asarray(letters)
        ok = letters.shape == (self.n,) and letters.dtype.kind in "iu"
        if not (ok and set(letters.tolist()) <= {0, 1, 2, 3}):
            raise ValueError(f"letters must be {self.n} integers 0-3")
        (phi0, phi1), support = phis, np.flatnonzero(letters)
        if not support.size:
            return self.apply_mpo(complex(phi0 + phi1), policy)
        lo, hi = int(support[0]), int(support[-1])
        tensors, i_l, i_r, floor = self._core(lo, hi, policy)
        letters = letters.tolist()
        for j in range(i_l, i_r):  # in C order: the sweep's norm sums in memory order
            a, right = np.ascontiguousarray(tensors[j]), j == i_r - 1
            # a full bond holds the flank's digits, the site nearest its cut lowest
            rows = _pauli_bits(letters[lo if j == i_l else j : j + 1])
            cols = _pauli_bits(letters[hi:j:-1] if right else ())
            pa = _pauli_image(a, rows, cols, phi1 if j == i_l else 1.0)
            if j == i_l:
                tensors[j] = phi0 * a + pa if right else np.concatenate((phi0 * a, pa), 2)
            elif right:
                tensors[j] = np.concatenate((a, pa))
            else:
                dl, d, dr = a.shape
                site = np.zeros((2, dl, d, 2, dr), dtype=np.complex128)
                site[0, :, :, 0], site[1, :, :, 1] = a, pa
                tensors[j] = site.reshape(2 * dl, d, 2 * dr)
        return self._sweep(tensors, i_l, i_r - 1, policy, floor)

    def _core(self, lo: int, hi: int, policy):
        """(tensors, i_l, i_r, floor) of a window [lo, hi]: i_r is the first
        right-full cut in (lo, hi] or hi + 1, the tensors a fresh list with the
        center at min(max(center, lo), i_r - 1), i_l the last left-full cut in
        (lo, center] or lo; ``floor`` is the sweep's full-size policy, None for
        a cutoff at or below ``FULL_CUT_FLOOR`` (the folded chains')."""
        left, right = _full_cuts(self.tensors, policy.chi_max)
        i_r = min(max(right, lo + 1), hi + 1)
        center = min(max(self.center, lo), i_r - 1)
        i_l = max(lo, min(left, center))
        floor = None
        if policy.svd_cutoff > FULL_CUT_FLOOR:
            floor = TruncationPolicy(policy.chi_max, FULL_CUT_FLOOR)
        return self.move_center(center).tensors, i_l, i_r, floor

    # ------------------------------------------------------------------
    # compression
    # ------------------------------------------------------------------
    def _sweep(self, tensors, lo: int, hi: int, policy, floor=None) -> tuple["Mps", float]:
        """Compress [lo, hi] by reduced density matrices; ``hi`` ends as center.

        Sites left of ``lo`` must be left- and right of ``hi`` right-isometric.
        Right to left, a site with dl > d·dr moves into its left neighbour and
        leaves a unit tensor, cutting that bond to d·dr; from the first other
        site on, each bond's right Gram environment E ← Σ_s M_s E M_s† is kept
        (None: identity).  Left to right, T (dl·d × dr), or R of T = QR if
        tall, splits by ρ = T E T† (R E R†).  The sites left of i are
        orthonormal, so ρ's eigenvalues are the squared Schmidt values, to
        about 1e-16·tr ρ (below the default cutoff).  Where the policy keeps
        all of them, certified by ``_keeps_every_weight`` or found by
        ``eigh``, the split is a gauge step: the shared identity (Q) is the
        site and T (R) the carry, exact since U U† = I.  With a ``floor``
        policy, a ρ as large as its cut's full size (``_full_size``) and no
        larger than chi_max is certified against the floor's cutoff instead,
        so a cut left at full size stays full unless a weight lies below the
        floor; a failed certificate takes ``eigh`` at ``policy`` as any split.
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
            k = len(rho)
            full = floor is not None and k <= policy.chi_max and k == _full_size(tensors, i + 1, k)
            if not _keeps_every_weight(rho, floor if full else policy):
                w, v = np.linalg.eigh(rho)
                k, err = _truncate_spectrum(np.clip(w[::-1], 0.0, None), policy)
                total_err += err
            if k == len(rho):  # a gauge step: the site is Q or I
                site, carry = (_eye(k) if q is None else q), t
            else:
                u = v[:, ::-1][:, :k]
                site = u if q is None else np.dot(q, u)
                carry = np.dot(u.conj().T, t)
            tensors[i] = site.reshape(dl, d, k)
            nxt = carry if i + 1 in units else _absorb_left(carry, tensors[i + 1])
            tensors[i + 1] = nxt.reshape(k, *tensors[i + 1].shape[1:])

        nrm = float(np.linalg.norm(tensors[hi]))
        if nrm < ZERO_NORM_THRESHOLD:
            return Mps._canonical(tensors, self.log_norm, hi, True), total_err
        tensors[hi] = tensors[hi] / nrm
        return Mps._canonical(tensors, self.log_norm + np.log(nrm), hi, self.is_zero), total_err

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
        cut = _index(cut, 0, self.n, "cut")
        if cut in (0, self.n) or self.is_zero:
            return None
        c = self.center
        if c >= cut:  # the center, then left-isometric sites down to the cut
            sites = self.tensors[c : cut - 1 : -1]
        else:  # mirrored: the same step then carries conj(E), same spectrum
            sites = [t.transpose(2, 1, 0) for t in self.tensors[c:cut]]
        _, env = _gram_walk(sites)
        p = np.clip(np.linalg.eigvalsh(env)[::-1], 0.0, None)
        total = float(np.sum(p))
        if total == 0.0:
            return None
        return p / total

    def expect_pauli(self, p: PauliString) -> float:
        """<psi|P|psi> / <psi|psi>, real for a Hermitian string.

        Only the sites from the center to ``p``'s support count, and the
        norm is the center tensor's.
        """
        if p.n != self.n:
            raise ValueError("length mismatch")
        if self.is_zero:
            return 0.0
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
        one step instead of ``expect_pauli``'s walk from the center.
        """
        if len(letters) != self.n:
            raise ValueError("length mismatch")
        if self.is_zero:
            return np.zeros(self.n)
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


def _full_cuts(tensors, chi_max: int) -> tuple[int, int]:
    """The last cut l and first cut r such that cuts 1..l are left- and
    r..n-1 right-full: bond <= ``chi_max`` and equal to the dimension of all
    sites on that side (l = 0, r = n if none); O(log chi_max) steps.
    """
    n = len(tensors)
    left, size = 0, tensors[0].shape[1]
    while left + 1 < n and tensors[left + 1].shape[0] == size <= chi_max:
        left += 1
        size *= tensors[left].shape[1]
    right, size = n, tensors[-1].shape[1]
    while right > 1 and tensors[right - 1].shape[0] == size <= chi_max:
        right -= 1
        size *= tensors[right - 1].shape[1]
    return left, right


def _full_size(tensors, cut: int, chi_max: int) -> int:
    """min(prod d left of ``cut``, prod d right of it), capped at chi_max + 1:
    each product stops there, so it takes O(log chi_max) steps at any n."""
    left, j = 1, 0
    while left <= chi_max and j < cut:
        left, j = left * tensors[j].shape[1], j + 1
    right, j = 1, len(tensors)
    while right <= chi_max and j > cut:
        right, j = right * tensors[j - 1].shape[1], j - 1
    return min(left, right, chi_max + 1)


def _flank_env(ops, bond: int) -> np.ndarray:
    """<L|W|L> over a flank from its outer cut of size ``bond``, as F[a, b, w].
    The flank's sites are δ, so each adds W alone:
    F'[(a o), (b i), v] = sum_w F[a, b, w] W[w, o, i, v]."""
    env = np.eye(bond)[:, :, None]
    for w in ops:
        (chi, _, wl), (_, o, i, v) = env.shape, w.shape
        f = np.dot(env.reshape(-1, wl), w.reshape(wl, -1)).reshape(chi, chi, o, i, v)
        env = f.transpose(0, 2, 1, 3, 4).reshape(chi * o, chi * i, v)
    return env


def _fold(env, a, w) -> np.ndarray:
    """A boundary site A, (F A) over the bond, then W over (w, i): (a, o, (v b'))."""
    (chi, b, wl), (_, i, br), (_, o, _, v) = env.shape, a.shape, w.shape
    x = np.dot(env.transpose(0, 2, 1).reshape(-1, b), a.reshape(b, -1))  # (a w, i b')
    ops = w.transpose(1, 3, 0, 2).reshape(o * v, wl * i)
    return np.matmul(ops, x.reshape(chi, wl * i, br)).reshape(chi, o, v * br)


_X_BIT = (0, 1, 1, 0)  # letters 0 I, 1 X, 2 Y, 3 Z; the z bit is letter >> 1
_MINUS_I_POWERS = (1, -1j, -1, 1j)


def _pauli_bits(letters) -> tuple[int, int]:
    """The x and z bits of a letter string, its first letter the highest digit."""
    x = z = 0
    for g in map(int, letters):
        x, z = 2 * x + _X_BIT[g], 2 * z + (g >> 1)
    return x, z


def _pauli_gather(x: int, z: int, size: int, coef: complex) -> tuple[np.ndarray, np.ndarray]:
    """``coef`` times the Pauli string of bits x, z on ``size`` basis states as
    a signed permutation: (coef P v)[a] = phase[a] v[a ^ x], with phase =
    coef (-i)^|x & z| (-1)^|a & z| exact (coef times ±1 and ±i)."""
    index, parity = _xor_tables(x, z, size)
    c = coef * _MINUS_I_POWERS[bin(x & z).count("1") % 4]
    return index, np.array((c, -c))[parity]


@lru_cache(maxsize=128)
def _xor_tables(x: int, z: int, size: int) -> np.ndarray:
    """a ^ x and |a & z| mod 2 for every a < size, the parity read off the
    Thue-Morse sequence (each top bit flips the table below it); read-only."""
    index, thue_morse = np.arange(size), np.zeros(1, dtype=np.uint8)
    for _ in range(z.bit_length()):
        thue_morse = np.concatenate((thue_morse, thue_morse ^ 1))
    tables = np.stack((index ^ x, thue_morse[index & z]))
    tables.flags.writeable = False
    return tables


def _pauli_image(a, rows, cols, coef) -> np.ndarray:
    """coef P A of a site A (l, s, r) in C order, P given per axis as the
    (x, z) bits on its rows (l s) and on its columns r: a bond that is not
    full is no power of two.  With no bits and coef 1 it is A itself."""
    out = a.reshape(-1, a.shape[2])
    if any(rows) or coef != 1:
        index, phase = _pauli_gather(*rows, len(out), coef)
        out = phase[:, None] * out[index]
    if any(cols):
        index, phase = _pauli_gather(*cols, out.shape[1], 1.0)
        out = np.take(out, index, axis=1) * phase
    return out.reshape(a.shape)


def _site_op(op, t: np.ndarray) -> np.ndarray:  # an idle site (None): the identity
    return np.eye(t.shape[1])[None, :, :, None] if op is None else op


@lru_cache(maxsize=32)
def _eye(k: int) -> np.ndarray:
    """The identity that gauge steps share, read-only so no step writes into it."""
    eye = np.eye(k, dtype=np.complex128)
    eye.flags.writeable = False
    return eye


def _orth_left(tensors: list[np.ndarray], i: int) -> None:
    """Site i left-isometric, the rest carried into i + 1; a split that is not
    tall is a gauge step with no QR, as in ``Mps._sweep``: the site is δ(l·d + s, r)."""
    dl, d, dr = tensors[i].shape
    t = tensors[i].reshape(dl * d, dr)
    q, r = (_eye(dl * d), t) if dl * d <= dr else np.linalg.qr(t)
    tensors[i] = q.reshape(dl, d, -1)
    tensors[i + 1] = _absorb_left(r, tensors[i + 1])


def _orth_right(tensors: list[np.ndarray], i: int) -> None:
    """``_orth_left`` mirrored (bonds swapped): a gauge step leaves δ(l, r·d + s)."""
    pair = [tensors[i].transpose(2, 1, 0), tensors[i - 1].transpose(2, 1, 0)]
    _orth_left(pair, 0)
    tensors[i], tensors[i - 1] = (t.transpose(2, 1, 0) for t in pair)


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
    """Overlap <a|b>, including both log_norm scales.

    The running environment is rescaled by exact powers of two, so an overlap
    whose raw value or scale leaves the float range on the way still reads.
    """
    if a.phys_dims != b.phys_dims:
        raise ValueError("length mismatch")
    e, exponent = np.ones((1, 1), dtype=np.complex128), 0
    for ta, tb in zip(a.tensors, b.tensors):
        tmp = np.tensordot(e, tb, axes=(1, 0))  # (a, d, rb)
        e = np.tensordot(ta.conj(), tmp, axes=((0, 1), (0, 1)))  # (ra, rb)
        shift = int(np.frexp(np.max(np.abs(e)))[1])
        e, exponent = e * np.ldexp(1.0, -shift), exponent + shift
    return complex(e[0, 0] * np.exp(a.log_norm + b.log_norm + exponent * np.log(2.0)))


def diagonal_mpo(mats) -> np.ndarray:
    """(k, d, d, k) operator tensor with ``mats[a]`` at bond value a -> a."""
    k, d = len(mats), mats[0].shape[0]
    arr = np.zeros((k, d, d, k), dtype=np.complex128)
    for a, mat in enumerate(mats):
        arr[a, :, :, a] = mat
    return arr


def cap_mpo(ops, left, right) -> list[np.ndarray]:
    """Close an operator chain: ``left`` into the first bond, ``right`` into the last.

    One ``np.dot`` per cap; with one site both caps land on the same tensor.
    List entries are replaced, never written into, so shared tables stay intact.
    """
    ops = list(ops)
    ops[0] = np.dot(left, ops[0].reshape(len(left), -1)).reshape(1, *ops[0].shape[1:])
    ops[-1] = np.dot(ops[-1].reshape(-1, len(right)), right).reshape(*ops[-1].shape[:3], 1)
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
