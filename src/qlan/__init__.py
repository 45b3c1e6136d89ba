"""qlan: optimal qubit state estimation through its Gaussian limit.

Simulation library for the two-stage estimation scheme on n identically
prepared qubits: block (total-spin) decomposition of the n-qubit state,
channels to and from a classical x quantum Gaussian limit, the spin-field
dynamics realising that limit, heterodyne/energy measurement sampling, and
a Monte Carlo benchmark of the asymptotic minimax risk.
"""

__version__ = "0.1.0"

from .operator_core import (
    density_to_bloch,
    trace_norm_distance,
    validate_density,
)
from .spin_blocks import (
    ModelParams,
    block_state,
    local_qubit_state,
    sample_block_index,
    typical_set,
)
from .fock_gaussian import (
    GaussianLimitParams,
    HeterodyneSampler,
    displaced_thermal,
)
from .lan_channels import (
    ClassicalDensity,
    HybridGaussianState,
    apply_S,
    apply_T,
    block_data,
    convergence_sweep,
    gaussian_limit,
    hybrid_trace_distance,
)
from .qsde import (
    XiState,
    c_coefficients,
    collision_integrate,
    energy_measurement_sample,
    xi_error_bound,
    xi_overlap,
    xi_state,
)
from .estimator import (
    EstimatorConfig,
    OutsideModelError,
    full_estimate,
    localize_frame,
    stage1,
    stage2_sample,
    truncate_estimate,
)
from .risk_bench import (
    RiskConfig,
    hoeffding_check,
    local_sup_risk,
    loss_fidelity,
    loss_local,
    loss_trace_sq,
    pointwise_risk,
    reference_risks,
)
