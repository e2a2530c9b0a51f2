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
    generator_series_stack,
    rank_one_coupling,
    truncated_cp_check,
    truncated_cp_margins,
)
from .channels import (
    GaussianChannel,
    JointSetup,
    apply,
    apply_runs,
    channel_power,
    channel_taylor_stack,
    compose,
    identity_channel,
    is_cptp,
    reduce_from_joint,
)
from .classifier import (
    DYNAMICS_TYPES,
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
    cp_margins,
    gap_runs,
    generators_from_channel,
    propagate,
)
from .linalg import mat_exp, psd_margin
from .phasespace import (
    GaussianState,
    beta_from_nu,
    nu_from_beta,
    symplectic_form,
    validate_state,
)
from .thermalization import (
    CovCoefficients,
    OscillatorBathSetup,
    ThermalReport,
    analyze,
    decompose_cov,
    discrete_asymptote,
    first_order_generators,
    ladder_coupling,
    rwa_coupling,
    simulate_first_order,
    to_joint_setup,
)

__version__ = "0.1.0"
