"""Built-in oracle cross-checks for the `selftest` CLI command.

A condensed version of the validation suite: every check compares an
independent dense computation (or an exact algebraic identity) against
the production code path and prints one PASS/FAIL line.
"""

from __future__ import annotations

import numpy as np

from .circuit import compile_blocks, expectation
from .clifford import (
    Brick,
    CliffordCircuit,
    CliffordTableau,
    Gate,
    TWO_QUBIT_CLIFFORD_COUNT,
    append_to_inverse,
    sample_brickwall,
    sample_u1_clifford,
    two_qubit_clifford_sequences,
)
from .dense import apply_circuit, apply_pauli, basis_state, circuit_unitary
from .harness import apply_gates, dense_oracle_run, sample_tdoped_blocks
from .harness import twirl_s_channel_check
from .mps import Mps, TruncationPolicy
from .pauli import SIGMA, PauliString
from .temporal import (
    build_folded_site,
    gamma_structure,
    horizontal_contract,
    s_factor,
    vertical_fold_evolve,
)


def _require(ok: bool, what: str) -> None:
    # raise explicitly: python -O strips assert statements
    if not ok:
        raise RuntimeError(what)


def _random_pauli(rng, n: int) -> PauliString:
    return PauliString.from_letters(
        [int(rng.integers(4)) for _ in range(n)], 2 * int(rng.integers(2))
    )


def _check_pauli_products(rng) -> None:
    for _ in range(50):
        p = _random_pauli(rng, 3)
        q = _random_pauli(rng, 3)
        lhs = (p.mul(q)).to_dense()
        rhs = p.to_dense() @ q.to_dense()
        _require(np.allclose(lhs, rhs, atol=1e-12), "product differs from dense")


def _check_tableau_vs_dense(rng) -> None:
    for _ in range(20):
        gates = []
        for _ in range(12):
            kind = int(rng.integers(5))
            q = int(rng.integers(3))
            if kind == 0:
                gates.append(Gate("H", (q,)))
            elif kind == 1:
                gates.append(Gate("S", (q,)))
            elif kind == 2:
                gates.append(Gate("SDG", (q,)))
            else:
                a, b = rng.choice(3, size=2, replace=False)
                gates.append(Gate("CNOT" if kind == 3 else "CZ", (int(a), int(b))))
        circ = CliffordCircuit(3, tuple(gates))
        tab = CliffordTableau.from_circuit(circ)
        u = circuit_unitary(circ)
        for p in [_random_pauli(rng, 3).unsigned() for _ in range(4)]:
            img = tab.conjugate(p, "forward")
            dense = u @ p.to_dense() @ u.conj().T
            ok = np.allclose(img.to_dense(), dense, atol=1e-10)
            _require(ok, "image differs from dense")
            back = tab.conjugate(img, "inverse")
            _require(back == p, "inverse conjugation does not invert")


def _check_enumeration() -> None:
    count = len(two_qubit_clifford_sequences())
    _require(count == TWO_QUBIT_CLIFFORD_COUNT, f"enumeration has {count} elements")


def _check_bricks(rng) -> None:
    """Seeded bricks on random pairs: dense 4x4 against tableau conjugation."""
    n = 3
    for _ in range(30):
        a, b = (int(q) for q in rng.choice(n, size=2, replace=False))
        index = int(rng.integers(TWO_QUBIT_CLIFFORD_COUNT))
        circ = CliffordCircuit(n, (Brick(index, (a, b)),))
        tab = CliffordTableau.from_circuit(circ)
        rows = list(CliffordTableau.identity(n).rows)
        append_to_inverse(rows, circ)
        _require(CliffordTableau(n, rows) == tab.inverse(), "brick rows of C^dag differ")
        u = circuit_unitary(circ)
        for p in [_random_pauli(rng, n).unsigned() for _ in range(4)]:
            img = tab.conjugate(p, "forward")
            ok = np.allclose(img.to_dense(), u @ p.to_dense() @ u.conj().T, atol=1e-10)
            _require(ok, f"brick {index} on {(a, b)}: image differs from dense")


def _check_u1_certificates(rng) -> None:
    for _ in range(50):
        n = int(rng.integers(1, 7))
        tab = CliffordTableau.from_circuit(sample_u1_clifford(n, rng))
        seen = set()
        for j in range(n):
            img = tab.conjugate(PauliString.single(n, j, 3), "forward")
            ok = img.sign == 1 and img.weight == 1 and img.letters().count(3) == 1
            _require(ok, "Z image is not a single +Z")
            seen.add(img.support[0])
        _require(len(seen) == n, "Z images are not a permutation")


def _check_twirl() -> None:
    _require(twirl_s_channel_check(), "replica-twirl identity fails")


def _check_structure_factors() -> None:
    for g in range(4):
        for mu in range(4):
            s_dense = 0.5 * np.trace(SIGMA[mu] @ SIGMA[g] @ SIGMA[mu] @ SIGMA[g])
            ok = abs(s_factor(mu, g) - s_dense) < 1e-14
            _require(ok, "s factor differs from dense")
            for nu in range(4):
                g_dense = 0.5 * np.trace(SIGMA[mu] @ SIGMA[nu] @ SIGMA[g])
                ok = abs(gamma_structure(mu, nu, g) - g_dense) < 1e-14
                _require(ok, "gamma factor differs from dense")


def _check_folded_sites(rng) -> None:
    for _ in range(20):
        g = int(rng.integers(4))
        theta = float(rng.uniform(0, 2 * np.pi))
        phi0, phi1 = np.cos(theta / 2), -1j * np.sin(theta / 2)
        tensor = build_folded_site(g, phi0, phi1)
        ops = (phi0 * SIGMA[0], phi1 * SIGMA[g])
        for a_ket in range(2):
            for a_bra in range(2):
                a = 2 * a_ket + a_bra
                for mu in range(4):
                    for nu in range(4):
                        ref = 0.5 * np.trace(
                            SIGMA[mu] @ ops[a_ket] @ SIGMA[nu] @ ops[a_bra].conj().T
                        )
                        ok = abs(tensor[a, mu, nu] - ref) < 1e-12
                        _require(ok, "folded tensor differs from dense")


def _three_methods(compiled, obs: PauliString, policy) -> list:
    """Layer evolution, vertical fold and horizontal sweep from |0...0>."""
    bits = [0] * compiled.n
    return [
        expectation(Mps.product_state(bits), compiled, obs, policy),
        vertical_fold_evolve(compiled, obs, bits, policy),
        horizontal_contract(compiled, obs, bits, policy),
    ]


def _check_cross_methods(rng) -> None:
    """Three methods against dense on Z_{n/2} and on C Z_j C^dag for every j.

    C is the compiled residual, so C Z_j C^dag pulls back to Z_j: its value
    is nonzero on these states and shows a wrong sign in the Clifford part.
    At n = 128, beyond the dense oracle, the methods must agree with each
    other and no state may read as zero (the coefficient train of
    |0...0><0...0| has norm 2^-64).
    """
    n = 4
    blocks = sample_tdoped_blocks(n, 3, 1, rng)
    compiled = compile_blocks(n, blocks)
    zs = [PauliString.single(n, j, 3) for j in range(n)]
    policy = TruncationPolicy(chi_max=64)
    for obs in [zs[n // 2]] + [compiled.residual.conjugate(z, "forward") for z in zs]:
        ref = dense_oracle_run(n, blocks, [0] * n, obs)
        for res in _three_methods(compiled, obs, policy):
            ok = abs(res.value - ref) < 1e-8
            _require(ok, f"method disagrees with dense on {obs.to_literal()}")

    n = 128
    big_rng = np.random.default_rng(n)  # leaves rng's stream to the later checks
    compiled = compile_blocks(n, sample_tdoped_blocks(n, 6, 1, big_rng))
    policy = TruncationPolicy(chi_max=4**6)  # above every bond of the three
    for j in (0, n // 2, n - 1):
        obs = compiled.residual.conjugate(PauliString.single(n, j, 3), "forward")
        runs = _three_methods(compiled, obs, policy)
        values = [res.value for res in runs]
        _require(not any(res.zero_state for res in runs), f"a zero state at n={n}, j={j}")
        _require(max(values) - min(values) < 1e-10, f"methods disagree at n={n}, j={j}")


def _check_mps_exactness(rng) -> None:
    n = 6
    bits = [0] * n
    policy = TruncationPolicy(chi_max=2 ** (n // 2))
    circ = sample_brickwall(n, 3, rng)
    state, _ = apply_gates(Mps.product_state(bits), circ, policy)
    vec = apply_circuit(basis_state(bits), circ)
    p = _random_pauli(rng, n).unsigned()
    ref = np.vdot(vec, apply_pauli(vec, p, n)).real
    _require(abs(state.expect_pauli(p) - ref) < 1e-8, "MPS differs from dense")


CHECKS = (
    ("pauli-group-law-vs-dense", _check_pauli_products),
    ("tableau-conjugation-vs-dense", _check_tableau_vs_dense),
    ("two-qubit-clifford-enumeration", lambda rng: _check_enumeration()),
    ("u1-clifford-z-certificates", _check_u1_certificates),
    ("replica-twirl-identities", lambda rng: _check_twirl()),
    ("structure-factors-vs-dense", lambda rng: _check_structure_factors()),
    ("folded-site-tensors-vs-dense", _check_folded_sites),
    ("cross-method-expectation", _check_cross_methods),
    ("mps-gates-vs-dense", _check_mps_exactness),
    ("two-qubit-clifford-bricks-vs-dense", _check_bricks),
)


def run_selftest(verbose: bool = True) -> int:
    """Run all checks; return 0 if every one passes, 1 otherwise."""
    rng = np.random.default_rng(20240917)
    failures = 0
    for name, check in CHECKS:
        try:
            check(rng)
            status = "PASS"
        except Exception as exc:  # noqa: BLE001 - report, do not crash
            failures += 1
            status = f"FAIL ({exc})"
        if verbose:
            print(f"{status:4s}  {name}" if status == "PASS" else f"{status}  {name}")
    return 0 if failures == 0 else 1
