"""The time-independent master equation that interpolates a discrete channel.

Given a channel (T, d, R) applied every dt, there is a unique set of
time-independent generators (A, b, C) whose continuous flow

    dX/dt     = Omega (A X + b)
    dcov/dt   = (Omega A) cov + cov (Omega A)^T + C

reproduces the discrete dynamics exactly at every stroboscopic time n*dt.

Both directions go through two block upper-triangular lifts.  The mean
update is the linear map [[T, d], [0, 1]] on (X, 1), and its generator is
[[Omega A, Omega b], [0, 0]].  The covariance update lifts to the 4N x 4N
noise lift [[T^-1, T^-1 R], [0, T^T]], whose generator is
[[-Omega A, C], [0, (Omega A)^T]] (Van Loan, IEEE TAC 23(3):395, 1978).
The generators are the principal logarithms of the lifts divided by dt, so
they stay finite as dt -> 0 and exist whenever T has no eigenvalue on the
closed negative real axis; propagation is the exponential of the same
blocks.

The generators are constant, so the flow is a semigroup: the channel over
t + s is the channel over s composed with the channel over t.  Trajectories
(:func:`flow_states`) therefore step from one requested time to the next
with the channel of the gap between them (:func:`gap_channels`).
"""

from dataclasses import dataclass

import numpy as np

from .channels import CpReport, GaussianChannel, apply_sequence
from .errors import DimensionMismatchError
from .linalg import block_upper, mat_exp, mat_log_principal, min_eig_hermitian
from .phasespace import GaussianState, _check_symmetric, _frozen_array, symplectic_form

CP_TOL = 1e-9


@dataclass(frozen=True)
class Generators:
    """Master-equation generators (A, b, C); C is symmetric noise."""

    A: np.ndarray
    b: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        _frozen_array(self, "A", self.A)
        _frozen_array(self, "b", self.b)
        _frozen_array(self, "C", self.C)
        if self.A.ndim != 2 or self.A.shape[0] != self.A.shape[1]:
            raise DimensionMismatchError("A must be square")
        n = self.A.shape[0]
        if n % 2 != 0:
            raise DimensionMismatchError("A must act on full modes (even dimension)")
        if self.b.shape != (n,) or self.C.shape != (n, n):
            raise DimensionMismatchError("b and C must match A")
        _check_symmetric(self.C, "noise generator C")

    @property
    def n_modes(self):
        return self.A.shape[0] // 2

    def to_dict(self):
        return {"A": self.A.tolist(), "b": self.b.tolist(), "C": self.C.tolist()}

    @classmethod
    def from_dict(cls, obj):
        return cls(
            A=np.asarray(obj["A"]), b=np.asarray(obj["b"]), C=np.asarray(obj["C"])
        )


def generators_from_channel(channel, dt):
    """Interpolation generators of a discrete channel applied every dt.

    Two principal logarithms, divided by dt, give the generators:

        Log([[T, d], [0, 1]])           = dt [[Omega A, Omega b], [0, 0]]
        Log([[T^-1, T^-1 R], [0, T^T]]) = dt [[-Omega A, C], [0, (Omega A)^T]]

    The second is the noise lift, of size 4N: its exponential is the
    covariance flow over one step (see :func:`propagate`).

    Raises BranchCutError when T has an eigenvalue on the closed negative
    real axis, which signals that dt is too large, and SingularMatrixError
    for singular T.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    t, n = channel.T, channel.T.shape[0]
    omega = symplectic_form(channel.n_modes)
    affine = mat_log_principal(block_upper(t, channel.d[:, None], np.ones((1, 1)))) / dt
    t_inv = np.linalg.solve(t, np.hstack([np.eye(n), channel.R]))
    c = mat_log_principal(block_upper(t_inv[:, :n], t_inv[:, n:], t.T))[:n, n:] / dt
    # Omega^{-1} = -Omega
    return Generators(
        A=-omega @ affine[:n, :n], b=-omega @ affine[:n, n], C=(c + c.T) / 2
    )


# Largest ||Omega A||_1 * s allowed in one exponential of the noise lift.  Its
# rounding error grows quickly with that norm, because the blocks exp(-M s)
# and exp(M^T s) pull apart, so longer times are reached by doubling.
LIFT_NORM_MAX = 1.0


def propagate(gen, t):
    """Channel produced by running the master equation for time t >= 0.

    With M = Omega A, T(t) = exp(M t) and d(t) = [(exp(M t) - 1)/M] Omega b
    come from the exponential of [[M, Omega b], [0, 0]] t.  The noise block
    R(t), the integral of exp(M s) C exp(M^T s) over [0, t], comes from the
    exponential E of the noise lift [[-M, C], [0, M^T]] s as
    R(s) = E_22^T E_12, taken over a step s = t / 2^k short enough that
    ||M||_1 s <= LIFT_NORM_MAX, then doubled k times through
    R(2s) = T(s) R(s) T(s)^T + R(s).
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    n = gen.A.shape[0]
    omega = symplectic_form(gen.n_modes)
    m = omega @ gen.A
    flow = mat_exp(block_upper(m, (omega @ gen.b)[:, None], np.zeros((1, 1))) * t)
    norm = np.abs(m).sum(axis=0).max() * t
    doublings = int(np.ceil(np.log2(norm / LIFT_NORM_MAX))) if norm > LIFT_NORM_MAX else 0
    lifted = mat_exp(block_upper(-m, gen.C, m.T) * (t / 2**doublings))
    step = lifted[n:, n:].T
    r = step @ lifted[:n, n:]
    for _ in range(doublings):
        r = step @ r @ step.T + r
        step = step @ step
    return GaussianChannel(T=flow[:n, :n], d=flow[:n, n], R=(r + r.T) / 2)


def gap_channels(gen, times):
    """Channels of the master-equation flow over the gaps between `times`.

    The times are nondecreasing and measured from 0, so entry k is the
    channel over times[k] - times[k-1], the first gap running from 0.  Each
    distinct float gap is propagated once, so an evenly spaced grid of any
    length costs about a dozen exponentials instead of one per time.

    Raises ValueError when the times decrease.
    """
    cache = {}
    out = []
    previous = 0.0
    for k, t in enumerate(times):
        if k and t < previous:
            raise ValueError("times must be nondecreasing")
        gap = t - previous
        if gap not in cache:
            cache[gap] = propagate(gen, gap)
        out.append(cache[gap])
        previous = t
    return out


def flow_states(gen, state, times):
    """Yield the states of the master-equation flow from `state` at `times`.

    The times are nondecreasing and measured from the moment `state` holds.
    The state at times[k] is the channel over the gap times[k] - times[k-1]
    applied to the state at times[k-1] (:func:`gap_channels`).  The steps
    run on stacked arrays in :func:`rapidgauss.channels.apply_sequence`;
    each yielded state is then built, and so checked, as a GaussianState.

    Raises ValueError when the times decrease, as soon as iteration starts.
    """
    means, covs = apply_sequence(gap_channels(gen, times), state.mean, state.cov)
    for mean, cov in zip(means, covs):
        yield GaussianState(mean=mean, cov=cov)


def cp_differential_check(gen, tol=CP_TOL):
    """Differential complete-positivity test: C - i Omega (A - A^T) Omega >= 0.

    The margin is the smallest eigenvalue of that Hermitian matrix; passing
    implies C itself is positive semi-definite.
    """
    omega = symplectic_form(gen.n_modes)
    anti = omega @ (gen.A - gen.A.T) @ omega
    herm = (gen.C + gen.C.T) / 2 - 1j * (anti - anti.T) / 2
    margin = min_eig_hermitian(herm, hermitian_tol=1e-8)
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
