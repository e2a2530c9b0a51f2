"""General Gaussian channels and the reduction of joint system-ancilla
Hamiltonian evolution to a system-only channel.

A channel is a triple (T, d, R) acting as mean -> T mean + d and
cov -> T cov T^T + R.  It is completely positive and trace preserving (CPTP)
exactly when R - i(T Omega T^T - Omega) is positive semi-definite.

A collision's channel is sliced from one exponential of the joint affine
lift, and its Taylor coefficients in dt from that lift's powers; one
function assembles the joint lift for both.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidAncillaStateError,
    InvalidSetupError,
    NonFiniteStateError,
)
from .linalg import balancing_exponents, mat_exp, psd_margin
from .phasespace import (
    GaussianState,
    _PhaseSpaceRecord,
    _check_uncertainty,
    _frozen_array,
    _frozen_arrays,
    affine_lift,
    symplectic_form,
)

# how far below zero every positivity margin (channel or generator) may dip
CP_TOL = 1e-9


@dataclass(frozen=True)
class GaussianChannel(_PhaseSpaceRecord):
    """One Gaussian update step: mean -> T mean + d, cov -> T cov T^T + R."""

    T: np.ndarray
    d: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        _frozen_arrays(self, "d", {"T": False, "R": True})


@dataclass(frozen=True)
class CpReport:
    """Result of a positivity test: flag plus the smallest eigenvalue found."""

    ok: bool
    margin: float


def identity_channel(n_modes):
    n = 2 * n_modes
    return GaussianChannel(T=np.eye(n), d=np.zeros(n), R=np.zeros((n, n)))


def apply(channel, state):
    """Apply a channel to a state: T mean + d and T cov T^T + R symmetrised,
    as the one row of :func:`apply_runs` for the run (channel, 1).

    The result is a GaussianState, so it is checked like any other: finite
    entries and a symmetric covariance.  To push a state through many
    channels, use :func:`apply_runs`, which checks once for the whole
    trajectory.

    Raises NonFiniteStateError("state has non-finite entries") when the
    moments overflow, as :func:`apply_runs` does.
    """
    means, covs = apply_runs([(channel, 1)], state.mean, state.cov)
    return GaussianState(mean=means[0], cov=covs[0])


def apply_runs(runs, mean, cov):
    """Moments after applying runs of channels in turn to (mean, cov).

    Each run is a pair (channel, count): the channel applied count >= 1
    times.  Returns means (K, 2N) and covs (K, 2N, 2N), K the total count,
    taken from any iterable of runs: row k holds the state after the first
    k + 1 applications.  Each update is T mean + d and T cov T^T + R,
    symmetrised.

    A run is filled by state doubling (affine maps compose associatively;
    Blelloch, "Prefix sums and their applications", 1990).  Its first two
    rows are single updates; then, with m rows filled, the channel is
    squared into its m-th power P_m, and P_m applied to rows 1..m gives rows
    m+1..2m in one stacked update.  A run of K rows thus costs about log2(K)
    stacked updates and squarings instead of K single updates.  The products
    are reassociated, so the rows agree with a loop of :func:`apply` to
    rounding, not exactly.
    The start is taken as given.  Dimensions are checked once per run and
    finiteness once over the result; no state is built or validated per
    step.

    Raises ValueError on a count below 1, DimensionMismatchError when a
    channel does not fit the start and NonFiniteStateError("state has
    non-finite entries") when the moments, or the powers of a channel,
    overflow.
    """
    runs = list(runs)
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    n = mean.shape[0]
    if cov.shape != (n, n):
        raise DimensionMismatchError("channel and state dimensions differ")
    counts = [count for _, count in runs]
    if counts and min(counts) < 1:
        raise ValueError("run counts must be positive")
    total = sum(counts)
    means = np.empty((total, n))
    covs = np.empty((total, n, n))
    first = 0
    # overflow is reported below, once, as a non-finite state
    with np.errstate(over="ignore", invalid="ignore"):
        for ch, count in runs:
            t, d, r = ch.T, ch.d, ch.R
            if t.shape[0] != n:
                raise DimensionMismatchError("channel and state dimensions differ")
            end = first + count
            # the run's first one or two rows are single updates
            for row in range(first, min(first + 2, end)):
                mean = t.dot(mean) + d
                c = t.dot(cov).dot(t.T) + r
                cov = (c + c.T) / 2
                means[row], covs[row] = mean, cov
            if count > 2:
                mean, cov = _double_run(t, d, r, means[first:end], covs[first:end])
            first = end
    if not (np.isfinite(means).all() and np.isfinite(covs).all()):
        raise NonFiniteStateError("state has non-finite entries")
    return means, covs


def _double_run(t, d, r, means, covs):
    """Fill a run of rows of one channel (t, d, r) from its first two rows.

    With m rows filled, the channel is squared into its m-th power, which
    maps rows 0..m-1 onto rows m..2m-1 in one stacked update.  Returns the
    last row.
    """
    count, filled, n = len(means), 2, len(d)
    # C T^T of every row, in one product over the rows stacked as (k n, n);
    # preallocated, as fresh temporaries of this size cost page faults
    work = np.empty((count // 2, n, n))
    while filled < count:
        t, d, r = _square(t, d, r)
        k = min(filled, count - filled)
        new_means, new_covs, tc = means[filled : filled + k], covs[filled : filled + k], work[:k]
        np.matmul(means[:k], t.T, out=new_means)
        new_means += d
        np.matmul(covs[:k].reshape(-1, n), t.T, out=tc.reshape(-1, n))
        np.matmul(t, tc, out=new_covs)
        new_covs += r
        np.add(new_covs, new_covs.swapaxes(1, 2), out=tc)
        np.multiply(tc, 0.5, out=new_covs)
        filled += k
    return means[-1], covs[-1]


def _compose(second, first):
    """Two channels given as arrays (t, d, r), `first` then `second`:
    (t2 t1, t2 d1 + d2, sym(t2 r1 t2^T + r2))."""
    (t, d, r), (t1, d1, r1) = second, first
    r = t.dot(r1).dot(t.T) + r
    return t.dot(t1), t.dot(d1) + d, (r + r.T) / 2


def _square(t, d, r):
    """The channel (t, d, r) applied twice, as arrays."""
    return _compose((t, d, r), (t, d, r))


def is_cptp(channel):
    """Complete-positivity test: R - i(T Omega T^T - Omega) >= 0.

    Returns the smallest eigenvalue of that Hermitian matrix
    (:func:`rapidgauss.linalg.psd_margin`) as the margin; the channel is CPTP
    when the margin is >= -CP_TOL.
    """
    omega = symplectic_form(channel.n_modes)
    margin = psd_margin(channel.R, channel.T @ omega @ channel.T.T - omega)
    return CpReport(ok=margin >= -CP_TOL, margin=margin)


def compose(second, first):
    """Channel applying `first` then `second` (fresh-ancilla semantics)."""
    if second.T.shape != first.T.shape:
        raise DimensionMismatchError("channel dimensions differ")
    t, d, r = _compose((second.T, second.d, second.R), (first.T, first.d, first.R))
    return GaussianChannel(T=t, d=d, R=r)


def channel_power(channel, n):
    """n-fold composition of a channel with itself, by binary exponentiation.
    The result starts from its first factor, not the identity, and the
    channel is squared only while bits of n remain: n = 2^k is k squarings."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return identity_channel(channel.n_modes)
    result = None
    while True:
        if n & 1:
            result = channel if result is None else compose(channel, result)
        n >>= 1
        if not n:
            return result
        channel = compose(channel, channel)


@dataclass(frozen=True)
class JointSetup:
    """Bombardment scenario: system and ancilla free Hamiltonians, their
    coupling block G, the initial ancilla state, and the step duration.

    The joint Hamiltonian matrix is [[F_S, G], [G^T, F_A]] with linear part
    (alpha_S, alpha_A); every step the system meets a fresh ancilla prepared
    in (X_A0, sigma_A0).
    """

    F_S: np.ndarray
    F_A: np.ndarray
    G: np.ndarray
    alpha_S: np.ndarray = None
    alpha_A: np.ndarray = None
    X_A0: np.ndarray = None
    sigma_A0: np.ndarray = None
    dt: float = 0.0

    def __post_init__(self):
        _frozen_arrays(self, "alpha_S", {"F_S": True})
        _frozen_arrays(self, "alpha_A", {"F_A": True})
        if self.sigma_A0 is None:
            object.__setattr__(self, "sigma_A0", np.eye(len(self.F_A)))
        _frozen_arrays(self, "X_A0", {"sigma_A0": True}, asymmetric=InvalidAncillaStateError)
        g = _frozen_array(self, "G", self.G)
        if not np.isfinite(g).all():
            raise InvalidSetupError("G has non-finite entries")
        ds, da = len(self.F_S), len(self.F_A)
        if g.shape != (ds, da):
            raise DimensionMismatchError(f"G must be {ds}x{da}, got {g.shape}")
        if len(self.X_A0) != da:
            raise DimensionMismatchError(f"X_A0 and sigma_A0 must match F_A ({da}x{da})")
        if not 0 <= self.dt < np.inf:
            raise InvalidSetupError("dt must be nonnegative and finite")
        check = _check_uncertainty(self.sigma_A0)
        if not check.ok:
            raise InvalidAncillaStateError(check.message)

    @property
    def n_sys(self):
        return self.F_S.shape[0] // 2

    @property
    def n_anc(self):
        return self.F_A.shape[0] // 2


def _joint_lifts(setups):
    """The stack of the affine lifts (phasespace.affine_lift) of the joint
    F_SA = [[F_S, G], [G^T, F_A]] and alpha_SA = (alpha_S, alpha_A) of
    validated setups, which must share their mode counts."""
    first = setups[0]
    if any(s.F_S.shape != first.F_S.shape or s.F_A.shape != first.F_A.shape for s in setups):
        raise DimensionMismatchError("the setups of one stack must share their mode counts")
    stack = lambda name: np.array([getattr(s, name) for s in setups])
    ds, dim = len(first.F_S), len(first.F_S) + len(first.F_A)
    g = stack("G")
    f = np.empty((len(setups), dim, dim))
    f[:, :ds, :ds], f[:, :ds, ds:] = stack("F_S"), g
    f[:, ds:, :ds], f[:, ds:, ds:] = g.swapaxes(1, 2), stack("F_A")
    return affine_lift(f, np.concatenate([stack("alpha_S"), stack("alpha_A")], axis=1))


def reduce_from_joint(setup):
    """Channel on the system alone from one joint evolution of duration
    setup.dt.

    One exponential of the setup's joint affine lift times dt gives the
    joint flow X -> M X + shift; the shift column enters balanced
    (linalg.balancing_exponents) and leaves scaled back, so M keeps its
    digits however large alpha is.  With M split into system/ancilla blocks
    M_SS, M_SA, the channel is T = M_SS, d = M_SA X_A0 + shift_S and
    R = M_SA sigma_A0 M_SA^T.  The output is CPTP whenever the ancilla state
    is valid.
    """
    lift = _joint_lifts([setup])[0]
    n, ds = len(lift) - 1, 2 * setup.n_sys
    (k,) = balancing_exponents(lift[:n, :n], lift[:n, n])
    flow = mat_exp(np.ldexp(lift, np.repeat((0, -k), (n, 1))) * setup.dt)
    m_sa = flow[:ds, ds:n]
    r = m_sa @ setup.sigma_A0 @ m_sa.T
    d = m_sa @ setup.X_A0 + np.ldexp(flow[:ds, n], k)
    return GaussianChannel(T=flow[:ds, :ds], d=d, R=(r + r.T) / 2)


def channel_taylor_stack(setups, order):
    """Taylor coefficients in dt of the reduced channels of same-shape setups.

    Returns stacks T (S, order+1, 2N, 2N), d (S, order+1, 2N) and
    R (S, order+1, 2N, 2N) for the S setups, read off the terms L^k / k! of
    the exponential series of each joint affine lift
    L = [[Omega F_SA, Omega alpha_SA], [0, 0]]; no numerical differentiation
    is involved.  Only the 2N system rows of L^k are read, so only they are
    formed, as (rows of L^(k-1)) L / k.  With M_k the system-ancilla block of
    those rows, T_k is their system block, d_k their last column plus
    M_k X_A0, and R_k = sym(sum_{0<i<k} M_i sigma_A0 M_(k-i)^T).
    T_0 = 1, d_0 = 0, R_0 = 0 always.  The setups are taken as validated;
    they must share their mode counts.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    lift = _joint_lifts(setups)
    ds, dim = 2 * setups[0].n_sys, lift.shape[-1] - 1
    rows = np.empty((len(setups), order + 1, ds, dim + 1))
    rows[:, 0] = np.eye(ds, dim + 1)
    for k in range(1, order + 1):
        rows[:, k] = rows[:, k - 1] @ lift / k

    m_sa = rows[..., ds:dim]
    d = rows[..., dim] + (m_sa @ np.array([s.X_A0 for s in setups])[:, None, :, None])[..., 0]
    r = np.zeros((len(setups), order + 1, ds, ds))
    m_sigma = m_sa[:, 1:order] @ np.array([s.sigma_A0 for s in setups])[:, None]
    for i in range(1, order):
        # the terms of R_(i+1), ..., R_order with left factor M_i, added in
        # increasing i as in a sum over i
        r[:, i + 1 :] += m_sigma[:, i - 1 : i] @ m_sa[:, 1 : order - i + 1].swapaxes(2, 3)
    return rows[..., :ds], d, (r + r.swapaxes(2, 3)) / 2

