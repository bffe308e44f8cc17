"""zenoforge: noise-induced controllability toolkit.

Builds Lindbladian superoperators, finds decoherence-free subspaces and
strong-damping superprojectors, projects control Hamiltonians, computes
dynamical Lie-algebra closures, and optimizes piecewise-constant pulses
against Choi-based gate errors.
"""

from .channels import (
    ChoiMatrix,
    GateErrorReport,
    choi,
    diamond_upper,
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
    PulseSchedule,
    gamma_sweep,
    objective_and_gradient,
    optimize,
    propagate_schedule,
)
from .lie import ControllabilityVerdict, dfs_lie_dimension, lie_verdict
from .lindblad import (
    DFSBlock,
    DFSDecomposition,
    LindbladSpec,
    LindbladTerm,
    Superoperator,
    detect_dfs,
    dissipator_matrix,
    dual_generator,
    propagate,
    spec_from_json,
    spec_to_json,
    steady_superprojector,
)
from .ops import (
    DensityMatrix,
    HilbertSpace,
    Operator,
    commutator,
    expm,
    hs_inner,
    hs_norm,
    identity,
    pauli_on,
    qubits,
    tensor,
)
from .zeno import (
    coherent_generator,
    project_hamiltonian,
    strong_damping_error,
    superproject_hamiltonian,
    zeno_product,
)

__version__ = "0.1.0"
