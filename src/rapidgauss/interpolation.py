"""The time-independent master equation that interpolates a discrete channel.

Given a channel (T, d, R) applied every dt, there is a unique set of
time-independent generators (A, b, C) whose continuous flow

    dX/dt     = Omega (A X + b)
    dcov/dt   = (Omega A) cov + cov (Omega A)^T + C

reproduces the discrete dynamics exactly at every stroboscopic time n*dt.

The generators are read off one eigendecomposition of T
(:func:`generators_from_channel`); they stay finite as dt -> 0 and exist
whenever T has no eigenvalue on the closed negative real axis.  With
M = Omega A, the exponential of their block upper-triangular lift of size
4N + 1, [[-M, C, -Omega b], [0, M^T, 0], [0, 0, 0]] dt, is the channel lift
[[T^-1, T^-1 R, -T^-1 d], [0, T^T, 0], [0, 0, 1]] (Van Loan, IEEE TAC
23(3):395, 1978), so propagation is one exponential.

The generators are constant, so the flow is a semigroup: the channel over
t + s is the channel over s composed with the channel over t.  A trajectory
therefore steps from one requested time to the next with the channel of the
gap between them, one run (channel, count) per stretch of equal gaps
(:func:`gap_runs`), which rapidgauss.channels.apply_runs applies; an evenly
spaced grid is one run of one channel.
"""

from dataclasses import dataclass

import numpy as np

from .channels import CP_TOL, CpReport, GaussianChannel, _square, identity_channel
from .errors import BranchCutError, SingularMatrixError
from .linalg import balancing_exponents, mat_exp, psd_margin
from .phasespace import _PhaseSpaceRecord, _frozen_arrays, symplectic_form


@dataclass(frozen=True)
class Generators(_PhaseSpaceRecord):
    """Master-equation generators (A, b, C); C is symmetric noise."""

    A: np.ndarray
    b: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        _frozen_arrays(self, "b", {"A": False, "C": True})


def channel_lift(top, forward, corner):
    """The lift [[top], [0, forward^T, 0], [0, 0, corner]] of size 4N + 1.

    A channel lifts with top = T^-1 [1, R, -d], forward = T and corner = 1;
    its generators with top = [-M, C, -Omega b], forward = M and corner = 0.
    Stacks of top and forward give the stack of their members' lifts.
    """
    n = np.shape(forward)[-1]
    lift = np.zeros(np.shape(forward)[:-2] + (2 * n + 1, 2 * n + 1))
    lift[..., :n, :], lift[..., n:-1, n:-1] = top, np.swapaxes(forward, -1, -2)
    lift[..., -1, -1] = corner
    return lift


def read_generators(log_lift):
    """(A, b, C) from the logarithm of a channel lift over one unit of time:
    A = Omega Log_11, b = Omega Log_13 and C = sym(Log_12), as
    Omega^-1 = -Omega.  Only the top block row is read, so that row alone,
    2N x (4N + 1), will do.  A stack of logarithms gives stacks of
    generators."""
    n = log_lift.shape[-1] // 2
    omega = symplectic_form(n // 2)
    c = log_lift[..., :n, n:-1]
    a, b = omega @ log_lift[..., :n, :n], log_lift[..., :n, -1] @ -omega
    return a, b, (c + c.swapaxes(-1, -2)) / 2


def _log_ratio(x):
    """x / expm1(x) elementwise, with its limit 1 at x = 0."""
    zero = x == 0
    return np.where(zero, 1.0, x / np.expm1(np.where(zero, 1.0, x)))


# cond(V) of T's eigenvectors past which the generators come from the Schur
# Log of the lift: near a Jordan block the eigenbasis loses ~eps cond(V)^2
EIGENBASIS_COND_MAX = 1e2


def generators_from_channel(channel, dt):
    """Interpolation generators of a discrete channel applied every dt.

    With T = V diag(mu) W, W = V^-1, the principal lambda = Log mu and
    f(x) = x / expm1(x), the generators are, elementwise in that basis,

        Omega A dt = V diag(lambda) W,   Omega b dt = V diag(f(lambda)) W d,
        C dt = V [(W R W^T) * f(lambda_i + lambda_j)] V^T,

    the last being vec C = [Log(T x T) / (T x T - 1)] vec R / dt.  Past
    EIGENBASIS_COND_MAX they are read off scipy's Schur logarithm of the
    channel lift (:func:`channel_lift`, :func:`read_generators`), its R and
    d columns balanced to the size of max(|T|, 1).

    Raises BranchCutError when T has an eigenvalue on the closed negative
    real axis, which signals that dt is too large, and SingularMatrixError
    for T singular to working precision or a logarithm that is not finite.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    t, n = channel.T, channel.T.shape[0]
    mu, v = np.linalg.eig(t)
    mags = np.abs(mu)
    # the lift's spectrum mu^-1, mu, 1 spans a modulus ratio of 1e14 or more
    if mags.min() <= 1e-7 or mags.max() >= 1e7:
        raise SingularMatrixError("generators_from_channel: T is singular to working precision")
    if np.any((mu.real < 0) & (np.abs(mu.imag) <= 1e-12 * np.maximum(mags, 1.0))):
        raise BranchCutError(
            "generators_from_channel: eigenvalue of T on the closed negative real axis; "
            "reduce the step duration and retry"
        )
    if np.linalg.cond(v) <= EIGENBASIS_COND_MAX:
        w, lam = np.linalg.inv(v), np.log(mu.astype(complex))
        m = ((v * lam) @ w).real
        shift = (v @ (_log_ratio(lam) * (w @ channel.d))).real
        c = (v @ ((w @ channel.R @ w.T) * _log_ratio(lam[:, None] + lam)) @ v.T).real
        omega = symplectic_form(channel.n_modes)
        return Generators(A=omega @ m / -dt, b=omega @ shift / -dt, C=(c + c.T) / (2 * dt))
    import scipy.linalg  # only this rare fallback needs scipy

    # R and d enter the lift balanced (linalg.balancing_exponents), and the
    # logarithm's C and b columns leave scaled back.  logm's 1-norm
    # estimator divides by the moduli of entries, which overflows for
    # subnormal ones, and logm rejects an intermediate that overflowed with
    # a ValueError; a logarithm not finite once scaled back is reported below
    exponents = np.repeat((0, *balancing_exponents(t, channel.R, channel.d)), (n, n, 1))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        top = np.ldexp(np.column_stack([np.eye(n), channel.R, -channel.d]), -exponents)
        top = np.linalg.solve(t, top)
        try:
            log = scipy.linalg.logm(channel_lift(top, t, 1.0))[:n].real
            log = np.ldexp(log, exponents) / dt
        except ValueError:
            log = np.array(np.nan)
    if not np.isfinite(log).all():
        raise SingularMatrixError("generators_from_channel: the logarithm is not finite")
    return Generators(*read_generators(log))


# Largest ||Omega A||_1 * s allowed in one exponential of the lift.  Its
# rounding error grows quickly with that norm, because the blocks exp(-M s)
# and exp(M^T s) pull apart, so longer times are reached by doubling.
LIFT_NORM_MAX = 1.0


def propagate(gen, t):
    """Channel produced by running the master equation for time t >= 0.

    With M = Omega A, the exponential E of the generator lift
    [[-M, C, -Omega b], [0, M^T, 0], [0, 0, 0]] s is the channel lift over
    s, so T(s) = E_22^T, R(s) = E_22^T E_12 and d(s) = -E_22^T E_13.  C
    and Omega b enter scaled by powers of two to the size of max(|M|, 1)
    (linalg.balancing_exponents), and E_12 and E_13 leave scaled back: an
    exact similarity, so the exponential's scaling follows M however large
    C and b are.  The step
    s = t / 2^k is short enough that ||M||_1 s <= LIFT_NORM_MAX; as the
    flow is a semigroup, the channel over t is its 2^k-th power, k
    squarings of the step's arrays, bit for bit those of channel_power.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    n = gen.A.shape[0]
    omega = symplectic_form(gen.n_modes)
    m = omega @ gen.A
    norm = np.abs(m).sum(axis=0).max() * t
    doublings = int(np.ceil(np.log2(norm / LIFT_NORM_MAX))) if norm > LIFT_NORM_MAX else 0
    shift = -omega @ gen.b
    kc, kb = balancing_exponents(m, gen.C, shift)
    top = np.column_stack([-m, np.ldexp(gen.C, -kc), np.ldexp(shift, -kb)])
    lifted = mat_exp(channel_lift(top, m, 0.0) * (t / 2**doublings))
    step = lifted[n:-1, n:-1].T
    r = step @ np.ldexp(lifted[:n, n:-1], kc)
    d, r = -step @ np.ldexp(lifted[:n, -1], kb), (r + r.T) / 2
    for _ in range(doublings):
        step, d, r = _square(step, d, r)
    return GaussianChannel(T=step, d=d, R=r)


def gap_runs(gen, marks, unit=1.0):
    """Yield the master-equation flow over the gaps between the times
    `marks[k] * unit` as runs (channel, count): one run per stretch of
    equal consecutive gaps, the channel over that gap and the stretch's
    length.

    The marks are nondecreasing and measured from 0, so the first gap runs
    from 0.  A gap of 0 is carried by the identity channel, and each other
    distinct mark difference is propagated once.  On a grid of integer
    marks, such as the collision counts of an uneven grid, that is one
    exponential per distinct step count, however long the grid; float times
    with unit 1 give one exponential per distinct float gap.  An even grid
    is one run, which a caller can name directly.  The marks are read one
    at a time, and a run is yielded once the gap after it differs or the
    marks end.

    Raises ValueError on reaching a mark that decreases.
    """
    cache = {}
    previous, run_gap, count = 0, None, 0
    for mark in marks:
        gap = mark - previous
        if gap != run_gap:
            if count:
                yield cache[run_gap], count
                if gap < 0:
                    raise ValueError("times must be nondecreasing")
            if gap not in cache:
                cache[gap] = propagate(gen, gap * unit) if gap else identity_channel(gen.n_modes)
            run_gap, count = gap, 0
        count += 1
        previous = mark
    if count:
        yield cache[run_gap], count


def cp_margins(a, c):
    """Differential CP margin of drift a and noise c: the smallest eigenvalue
    of C - i Omega (A - A^T) Omega (:func:`rapidgauss.linalg.psd_margin`).
    Two matrices give a float; two stacks (..., 2N, 2N) give an array (...)
    from one batched eigen-solve, each entry bit for bit its own pair's."""
    omega = symplectic_form(np.shape(a)[-1] // 2)
    return psd_margin(c, omega @ (a - np.swapaxes(a, -1, -2)) @ omega)


def cp_differential_check(gen):
    """Differential complete-positivity test: C - i Omega (A - A^T) Omega >= 0.

    The margin is :func:`cp_margins` of (A, C), and the test passes when it
    is >= -CP_TOL; passing implies C itself is positive semi-definite.
    """
    margin = cp_margins(gen.A, gen.C)
    return CpReport(ok=margin >= -CP_TOL, margin=margin)

