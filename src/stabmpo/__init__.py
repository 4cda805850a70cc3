"""Hybrid stabilizer / matrix-product simulator for Clifford-dominated circuits.

Circuits given as Clifford layers interleaved with single-qubit rotations
are compiled into a residual Clifford plus bond-2 Pauli-rotation layers;
local observables are then evaluated by evolving a matrix product state
through the layers (or by contracting the folded transfer network) and
pulling the observable back through the residual Clifford.
"""

import os

# Every tensor here is small: threaded BLAS adds overhead and oversubscribes
# the cores under STABMPO_WORKERS.  Set before any submodule loads numpy
# (forked workers inherit the loaded library); a value the user set wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

__version__ = "0.1.0"

from .circuit import (
    Contraction,
    RotationGate,
    StabMpoCircuit,
    StabMpoCompiler,
    StabMpoLayer,
    apply_layer,
    compile_blocks,
    conjugate_rotation,
    expectation,
    t_gate,
    transform_observable,
)
from .clifford import (
    CliffordCircuit,
    CliffordTableau,
    Gate,
    gate,
    sample_brickwall,
    sample_u1_clifford,
)
from .harness import (
    FloquetConfig,
    TDopedConfig,
    analytic_magnetization,
    dense_oracle_run,
    run_floquet,
    run_tdoped,
    twirl_s_channel_check,
)
from .mps import Mps, TruncationPolicy, inner
from .pauli import OracleCapError, PauliString, pauli_coefficient
from .temporal import (
    build_folded_site,
    gamma_structure,
    horizontal_contract,
    s_factor,
    vertical_fold_evolve,
)

__all__ = [
    "CliffordCircuit",
    "CliffordTableau",
    "Contraction",
    "FloquetConfig",
    "Gate",
    "Mps",
    "OracleCapError",
    "PauliString",
    "RotationGate",
    "StabMpoCircuit",
    "StabMpoCompiler",
    "StabMpoLayer",
    "TDopedConfig",
    "TruncationPolicy",
    "analytic_magnetization",
    "apply_layer",
    "build_folded_site",
    "compile_blocks",
    "conjugate_rotation",
    "dense_oracle_run",
    "expectation",
    "gamma_structure",
    "gate",
    "horizontal_contract",
    "inner",
    "pauli_coefficient",
    "run_floquet",
    "run_tdoped",
    "s_factor",
    "sample_brickwall",
    "sample_u1_clifford",
    "t_gate",
    "transform_observable",
    "twirl_s_channel_check",
    "vertical_fold_evolve",
]
