"""Open Gaussian dynamics driven by rapid repeated interactions.

A Gaussian system that collides every dt with a fresh, identically prepared
Gaussian ancilla evolves by a fixed channel (T, d, R) per step.  This package
builds that channel from the joint Hamiltonian, constructs the unique
time-independent master equation that interpolates the discrete steps
exactly at the stroboscopic times n*dt, expands its generators in powers of
dt, verifies complete positivity order by order, classifies the dynamics
each order can drive, and analyzes when an oscillator in a thermal bath of
oscillators reaches a fixed point and at what temperature scale.
"""

from .bombardment import (
    GeneratorSeries,
    can_purify,
    closed_form_series,
    first_order_purify,
    generator_series_from_joint,
    rank_one_coupling,
    series_from_channel_series,
    truncated_cp_check,
)
from .channels import (
    GaussianChannel,
    JointSetup,
    apply,
    apply_sequence,
    channel_power,
    channel_taylor,
    compose,
    hamiltonian_flow,
    identity_channel,
    is_cptp,
    reduce_from_joint,
    trajectory,
)
from .classifier import (
    DYNAMICS_TYPES,
    BlockDecomposition,
    DynamicsReport,
    allowed_types,
    block_decompose,
    classify,
    table_availability,
)
from .errors import (
    BranchCutError,
    DimensionMismatchError,
    InvalidAncillaStateError,
    InvalidSetupError,
    InvalidStateError,
    MalformedSeriesError,
    NonFiniteStateError,
    RapidGaussError,
    SingularMatrixError,
)
from .interpolation import (
    Generators,
    cp_differential_check,
    flow_states,
    gap_channels,
    generators_from_channel,
    master_rhs,
    propagate,
)
from .linalg import mat_exp, mat_log_principal, psd_margin
from .phasespace import (
    GaussianState,
    QuadraticHamiltonian,
    beta_from_nu,
    nu_from_beta,
    purity,
    symplectic_form,
    thermal_state,
    validate_state,
)
from .thermalization import (
    CovCoefficients,
    OscillatorBathSetup,
    ThermalReport,
    analyze,
    coefficient_rhs,
    decompose_cov,
    discrete_asymptote,
    first_order_generators,
    ladder_coupling,
    rwa_coupling,
    simulate_first_order,
    to_joint_setup,
)

__version__ = "0.1.0"
