"""zenoforge: noise-induced controllability toolkit.

Builds Lindbladian superoperators, finds decoherence-free subspaces and
strong-damping superprojectors, computes dynamical Lie-algebra closures,
and optimizes piecewise-constant pulses against Choi-based gate errors.
"""

from .channels import (
    GateErrorReport,
    choi,
    epsilon1,
    epsilon2,
    gate_error_report,
    reduced_channel,
)
from .grape import (
    ControlSystem,
    Eps1Target,
    Eps2Target,
    OptimizationResult,
    gamma_sweep,
    objective_and_gradient,
    optimize,
    propagate_schedule,
)
from .lie import dfs_lie_dimension, lie_dimension
from .lindblad import (
    DFSBlock,
    LindbladSpec,
    LindbladTerm,
    Superoperator,
    detect_dfs,
    dissipator_matrix,
    dual_generator,
    spec_from_json,
    spec_to_json,
    steady_superprojector,
)
from .ops import expm, pauli_on
from .zeno import strong_damping_error, zeno_product

__version__ = "0.1.0"
