"""Built-in oracle cross-checks for the `selftest` CLI command.

A condensed version of the validation suite: every check compares an
independent dense computation (or an exact algebraic identity) against
the production code path and prints one PASS/FAIL line.
"""

from __future__ import annotations

import numpy as np

from . import circuit, temporal
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
from .mps import Mps, TruncationPolicy, cap_mpo, diagonal_mpo
from .pauli import SIGMA, PauliString
from .temporal import folded_coefficients, horizontal_contract, vertical_fold_evolve


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
    """Seeded bricks on random pairs: row k of C^dag against dense u^dag G_k u
    (G_k is X_j, then Z_j), and forward images against u P u^dag."""
    n = 3
    gens = [PauliString.single(n, j, axis).to_dense() for axis in (1, 3) for j in range(n)]
    for _ in range(30):
        a, b = (int(q) for q in rng.choice(n, size=2, replace=False))
        index = int(rng.integers(TWO_QUBIT_CLIFFORD_COUNT))
        circ = CliffordCircuit(n, (Brick(index, (a, b)),))
        rows = list(CliffordTableau.identity(n).rows)
        append_to_inverse(rows, circ)
        u = circuit_unitary(circ)
        for k, (g, row) in enumerate(zip(gens, rows)):
            ok = np.allclose(PauliString(n, *row).to_dense(), u.conj().T @ g @ u, atol=1e-10)
            _require(ok, f"brick {index} on {(a, b)}: row {k} of C^dag differs from dense")
        tab = CliffordTableau.from_circuit(circ)
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


def _half_traces(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """1/2 Tr(sigma^mu left sigma^nu right^dag) over (mu, nu), one product each."""
    prods = [
        [SIGMA[mu] @ left @ SIGMA[nu] @ right.conj().T for nu in range(4)] for mu in range(4)
    ]
    return 0.5 * np.trace(np.array(prods), axis1=2, axis2=3)


def _check_transfer_tables(rng) -> None:
    """The operator tables that ``window_mpo`` caps, read at call time, vs dense.

    Uncapped, every entry is exact: layer site g has the branches W_0 = I and
    W_1 = sigma^g, folded row block a = 2k + b is the half-traces of W_k and
    W_b, and the columns are the rows transposed.  Capped with random angles,
    they match phi0 I + phi1 sigma^g and its folded channel.
    """
    sites, rows = circuit._LAYER_SITES, temporal._FOLDED_ROWS
    for g in range(4):
        w = (SIGMA[0], SIGMA[g])
        blocks = [_half_traces(w[a // 2], w[a % 2]) for a in range(4)]
        _require(np.array_equal(sites[g], diagonal_mpo(w)), f"layer site {g} differs")
        _require(np.array_equal(rows[g], diagonal_mpo(blocks)), f"folded row {g} differs")
        column = rows[g].transpose(2, 0, 3, 1)
        _require(np.array_equal(temporal._FOLDED_COLUMNS[g], column), f"column {g} differs")
    for _ in range(20):
        g = int(rng.integers(4))
        theta = float(rng.uniform(0, 2 * np.pi))
        phi0, phi1 = np.cos(theta / 2), -1j * np.sin(theta / 2)
        layer = phi0 * SIGMA[0] + phi1 * SIGMA[g]
        (site,) = cap_mpo([sites[g]], [phi0, phi1], np.ones(2))
        (row,) = cap_mpo([rows[g]], folded_coefficients(phi0, phi1), np.ones(4))
        ok = np.allclose(site[0, :, :, 0], layer, atol=1e-12)
        _require(ok, "capped layer site differs from dense")
        ok = np.allclose(row[0, :, :, 0], _half_traces(layer, layer), atol=1e-12)
        _require(ok, "capped folded row differs from dense")


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
    ("transfer-tables-vs-dense", _check_transfer_tables),
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
