"""The time-independent master equation that interpolates a discrete channel.

Given a channel (T, d, R) applied every dt, there is a unique set of
time-independent generators (A, b, C) whose continuous flow

    dX/dt     = Omega (A X + b)
    dcov/dt   = (Omega A) cov + cov (Omega A)^T + C

reproduces the discrete dynamics exactly at every stroboscopic time n*dt.

Both directions go through one block upper-triangular lift of size 4N + 1,

    L = [[T^-1, T^-1 R, -T^-1 d], [0, T^T, 0], [0, 0, 1]].

In the block order (1, 3, 2) it is led by [[T^-1, -T^-1 d], [0, 1]], the
inverse of the mean update on (X, 1), so with M = Omega A the principal
logarithm is Log L = dt [[-M, C, -Omega b], [0, M^T, 0], [0, 0, 0]] (Van
Loan, IEEE TAC 23(3):395, 1978).  It gives all three generators, which stay
finite as dt -> 0 and exist whenever T has no eigenvalue on the closed
negative real axis; propagation is one exponential of the same block.

The generators are constant, so the flow is a semigroup: the channel over
t + s is the channel over s composed with the channel over t.  Trajectories
(:func:`flow_states`) therefore step from one requested time to the next
with the channel of the gap between them (:func:`gap_channels`); on an
evenly spaced grid every step is carried by one and the same channel.
"""

from dataclasses import dataclass

import numpy as np

from .channels import CP_TOL, CpReport, GaussianChannel, apply_sequence, channel_power
from .errors import DimensionMismatchError, SingularMatrixError
from .linalg import block_upper, mat_exp, mat_log_principal, psd_margin
from .phasespace import GaussianState, _NoisyAffineMap, symplectic_form


@dataclass(frozen=True)
class Generators(_NoisyAffineMap):
    """Master-equation generators (A, b, C); C is symmetric noise."""

    A: np.ndarray
    b: np.ndarray
    C: np.ndarray


def channel_lift(top, forward, corner):
    """The lift [[top], [0, forward^T, 0], [0, 0, corner]] of size 4N + 1.

    A channel lifts with top = T^-1 [1, R, -d], forward = T and corner = 1;
    its generators with top = [-M, C, -Omega b], forward = M and corner = 0.
    """
    n = forward.shape[0]
    tail = block_upper(forward.T, np.zeros((n, 1)), np.full((1, 1), corner))
    return block_upper(top[:, :n], top[:, n:], tail)


def read_generators(log_lift):
    """(A, b, C) from the logarithm of a channel lift over one unit of time:
    A = Omega Log_11, b = Omega Log_13 and C = sym(Log_12), as
    Omega^-1 = -Omega.  A stack of logarithms gives stacks of generators."""
    n = log_lift.shape[-1] // 2
    omega = symplectic_form(n // 2)
    c = log_lift[..., :n, n:-1]
    a, b = omega @ log_lift[..., :n, :n], log_lift[..., :n, -1] @ -omega
    return a, b, (c + c.swapaxes(-1, -2)) / 2


def generators_from_channel(channel, dt):
    """Interpolation generators of a discrete channel applied every dt.

    One solve gives T^-1 [1, R, -d], and one principal logarithm of the
    channel lift (:func:`channel_lift`), divided by dt, gives the generators:

        Log L = dt [[-Omega A, C, -Omega b], [0, (Omega A)^T, 0], [0, 0, 0]]

    Raises BranchCutError when T has an eigenvalue on the closed negative
    real axis, which signals that dt is too large, and SingularMatrixError
    for singular T.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    t, n = channel.T, channel.T.shape[0]
    try:
        t_inv = np.linalg.solve(t, np.column_stack([np.eye(n), channel.R, -channel.d]))
    except np.linalg.LinAlgError:
        t_inv = None
    if t_inv is None or not np.isfinite(t_inv).all():  # a subnormal pivot gives inf
        raise SingularMatrixError("generators_from_channel: T is singular")
    log = mat_log_principal(channel_lift(t_inv, t, 1.0))
    return Generators(*read_generators(log / dt))


# Largest ||Omega A||_1 * s allowed in one exponential of the lift.  Its
# rounding error grows quickly with that norm, because the blocks exp(-M s)
# and exp(M^T s) pull apart, so longer times are reached by doubling.
LIFT_NORM_MAX = 1.0


def propagate(gen, t):
    """Channel produced by running the master equation for time t >= 0.

    With M = Omega A, the exponential E of the generator lift
    [[-M, C, -Omega b], [0, M^T, 0], [0, 0, 0]] s is the channel lift over
    s, so T(s) = E_22^T, R(s) = E_22^T E_12 and d(s) = -E_22^T E_13.  The
    step s = t / 2^k is short enough that ||M||_1 s <= LIFT_NORM_MAX; as the
    flow is a semigroup, the channel over t is its 2^k-th power
    (:func:`rapidgauss.channels.channel_power`), k squarings.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    n = gen.A.shape[0]
    omega = symplectic_form(gen.n_modes)
    m = omega @ gen.A
    norm = np.abs(m).sum(axis=0).max() * t
    doublings = int(np.ceil(np.log2(norm / LIFT_NORM_MAX))) if norm > LIFT_NORM_MAX else 0
    top = np.column_stack([-m, gen.C, -omega @ gen.b])
    lifted = mat_exp(channel_lift(top, m, 0.0) * (t / 2**doublings))
    step = lifted[n:-1, n:-1].T
    r = step @ lifted[:n, n:-1]
    channel = GaussianChannel(T=step, d=-step @ lifted[:n, -1], R=(r + r.T) / 2)
    return channel_power(channel, 2**doublings)


def gap_channels(gen, marks, unit=1.0):
    """Yield the channels of the master-equation flow over the gaps between
    the times `marks[k] * unit`, reading the marks one at a time.

    The marks are nondecreasing and measured from 0, so entry k is the
    channel over (marks[k] - marks[k-1]) * unit, the first gap running from
    0.  Each distinct mark difference is propagated once.  On a grid of
    integer marks, such as the row indices of an evenly spaced trajectory,
    that is one exponential per distinct step count, however long the grid;
    float times with unit 1 give one exponential per distinct float gap.

    Raises ValueError on reaching a mark that decreases.
    """
    cache = {}
    previous = 0
    for k, mark in enumerate(marks):
        if k and mark < previous:
            raise ValueError("times must be nondecreasing")
        gap = mark - previous
        if gap not in cache:
            cache[gap] = propagate(gen, gap * unit)
        yield cache[gap]
        previous = mark


def flow_states(gen, state, times):
    """Yield the states of the master-equation flow from `state` at `times`.

    The times are nondecreasing and measured from the moment `state` holds.
    The state at times[k] is the channel over the float gap
    times[k] - times[k-1] applied to the state at times[k-1]
    (:func:`gap_channels` with unit 1), so each distinct float gap costs one
    exponential.  The steps run on stacked arrays in
    :func:`rapidgauss.channels.apply_sequence`; each yielded state is then
    built, and so checked, as a GaussianState.

    Raises ValueError when the times decrease, as soon as iteration starts.
    """
    means, covs = apply_sequence(gap_channels(gen, times), state.mean, state.cov)
    for mean, cov in zip(means, covs):
        yield GaussianState(mean=mean, cov=cov)


def cp_differential_check(gen, tol=CP_TOL):
    """Differential complete-positivity test: C - i Omega (A - A^T) Omega >= 0.

    The margin is the smallest eigenvalue of that Hermitian matrix
    (:func:`rapidgauss.linalg.psd_margin`); passing implies C itself is
    positive semi-definite.
    """
    omega = symplectic_form(gen.n_modes)
    margin = psd_margin(gen.C, omega @ (gen.A - gen.A.T) @ omega)
    return CpReport(ok=margin >= -tol, margin=margin)


def master_rhs(gen, state):
    """Right-hand side of the master equation at a state.

    Returns (dmean/dt, dcov/dt) = (Omega(A X + b),
    (Omega A) cov + cov (Omega A)^T + C).
    """
    if gen.A.shape[0] != state.mean.size:
        raise DimensionMismatchError("generators and state dimensions differ")
    omega = symplectic_form(gen.n_modes)
    oa = omega @ gen.A
    dmean = omega @ (gen.A @ state.mean + gen.b)
    dcov = oa @ state.cov + state.cov @ oa.T + gen.C
    return dmean, dcov
