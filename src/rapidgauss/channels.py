"""General Gaussian channels and the reduction of joint system-ancilla
Hamiltonian evolution to a system-only channel.

A channel is a triple (T, d, R) acting as mean -> T mean + d and
cov -> T cov T^T + R.  It is completely positive and trace preserving (CPTP)
exactly when R - i(T Omega T^T - Omega) is positive semi-definite.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidAncillaStateError,
    InvalidSetupError,
    InvalidStateError,
    NonFiniteStateError,
)
from .linalg import mat_exp, psd_margin
from .phasespace import (
    GaussianState,
    QuadraticHamiltonian,
    _NoisyAffineMap,
    _check_symmetric,
    _frozen_array,
    symplectic_form,
    validate_state,
)

# how far below zero every positivity margin (channel or generator) may dip
CP_TOL = 1e-9


@dataclass(frozen=True)
class GaussianChannel(_NoisyAffineMap):
    """One Gaussian update step: mean -> T mean + d, cov -> T cov T^T + R."""

    T: np.ndarray
    d: np.ndarray
    R: np.ndarray


@dataclass(frozen=True)
class CpReport:
    """Result of a positivity test: flag plus the smallest eigenvalue found."""

    ok: bool
    margin: float


def identity_channel(n_modes):
    n = 2 * n_modes
    return GaussianChannel(T=np.eye(n), d=np.zeros(n), R=np.zeros((n, n)))


def apply(channel, state):
    """Apply a channel to a state.

    The result is a GaussianState, so it is checked like any other: finite
    entries and a symmetric covariance.  To push a state through many
    channels, :func:`apply_sequence` does the same arithmetic on stacked
    arrays and checks once for the whole run.
    """
    if channel.T.shape[0] != state.mean.size:
        raise DimensionMismatchError("channel and state dimensions differ")
    mean = channel.T @ state.mean + channel.d
    cov = channel.T @ state.cov @ channel.T.T + channel.R
    return GaussianState(mean=mean, cov=(cov + cov.T) / 2)


def apply_sequence(channels, mean, cov):
    """Moments after applying each of the channels in turn to (mean, cov).

    Returns means (K, 2N) and covs (K, 2N, 2N) for K channels, taken from
    any iterable: row k holds the state after channels[0], ..., channels[k].
    Each step is the update of :func:`apply`, T mean + d and T cov T^T + R
    symmetrised, with the same arithmetic, so the rows equal a loop of
    :func:`apply` bit for bit.
    The start is taken as given.  Dimensions are checked once on entry and
    finiteness once over the result; no state is built or validated per
    step.

    Raises DimensionMismatchError when a channel does not fit the start and
    NonFiniteStateError("state has non-finite entries") when the moments
    overflow.
    """
    channels = list(channels)
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    n = mean.shape[0]
    if cov.shape != (n, n) or any(ch.T.shape[0] != n for ch in channels):
        raise DimensionMismatchError("channel and state dimensions differ")
    means = np.empty((len(channels), n))
    covs = np.empty((len(channels), n, n))
    parts = {id(ch): (ch.T, ch.T.T, ch.d, ch.R) for ch in channels}
    tc, c = np.empty((n, n)), np.empty((n, n))
    c_t, add = c.T, np.add
    # overflow is reported below, once, as a non-finite state
    with np.errstate(over="ignore", invalid="ignore"):
        for ch, m, s in zip(channels, means, covs):
            t, t_t, d, r = parts[id(ch)]
            t.dot(mean, m)
            add(m, d, m)
            t.dot(cov, tc)
            tc.dot(t_t, c)
            add(c, r, c)
            add(c, c_t, s)
            s /= 2
            mean, cov = m, s
    if not (np.isfinite(means).all() and np.isfinite(covs).all()):
        raise NonFiniteStateError("state has non-finite entries")
    return means, covs


def is_cptp(channel, tol=CP_TOL):
    """Complete-positivity test: R - i(T Omega T^T - Omega) >= 0.

    Returns the smallest eigenvalue of that Hermitian matrix
    (:func:`rapidgauss.linalg.psd_margin`) as the margin; the channel is CPTP
    when the margin is >= -tol.
    """
    omega = symplectic_form(channel.n_modes)
    margin = psd_margin(channel.R, channel.T @ omega @ channel.T.T - omega)
    return CpReport(ok=margin >= -tol, margin=margin)


def compose(second, first):
    """Channel applying `first` then `second` (fresh-ancilla semantics)."""
    if second.T.shape != first.T.shape:
        raise DimensionMismatchError("channel dimensions differ")
    t = second.T @ first.T
    d = second.T @ first.d + second.d
    r = second.T @ first.R @ second.T.T + second.R
    return GaussianChannel(T=t, d=d, R=(r + r.T) / 2)


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


def trajectory(channel, state, steps):
    """States after 0..steps repeated applications of the channel.

    The steps run in :func:`apply_sequence`; each returned state is then
    built, and so checked, as a GaussianState.
    """
    means, covs = apply_sequence([channel] * steps, state.mean, state.cov)
    return [state] + [GaussianState(mean=m, cov=c) for m, c in zip(means, covs)]


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
        _frozen_array(self, "F_S", self.F_S)
        _frozen_array(self, "F_A", self.F_A)
        _frozen_array(self, "G", self.G)
        ds, da = self.F_S.shape[0], self.F_A.shape[0]
        if ds % 2 or da % 2:
            raise DimensionMismatchError("F_S and F_A must have even dimensions")
        _check_symmetric(self.F_S, "F_S")
        _check_symmetric(self.F_A, "F_A")
        if self.G.shape != (ds, da):
            raise DimensionMismatchError(f"G must be {ds}x{da}, got {self.G.shape}")
        _frozen_array(self, "alpha_S", np.zeros(ds) if self.alpha_S is None else self.alpha_S)
        _frozen_array(self, "alpha_A", np.zeros(da) if self.alpha_A is None else self.alpha_A)
        _frozen_array(self, "X_A0", np.zeros(da) if self.X_A0 is None else self.X_A0)
        sigma = np.eye(da) if self.sigma_A0 is None else self.sigma_A0
        _frozen_array(self, "sigma_A0", sigma)
        if self.alpha_S.shape != (ds,) or self.alpha_A.shape != (da,):
            raise DimensionMismatchError("linear parts must match F_S/F_A")
        if self.X_A0.shape != (da,) or self.sigma_A0.shape != (da, da):
            raise DimensionMismatchError("ancilla state must match F_A")
        if self.dt < 0:
            raise InvalidSetupError("dt must be nonnegative")
        try:
            anc = GaussianState(mean=self.X_A0, cov=self.sigma_A0)
            check = validate_state(anc)
        except InvalidStateError as exc:
            raise InvalidAncillaStateError(str(exc)) from exc
        if not check.ok:
            raise InvalidAncillaStateError(check.message)

    @property
    def n_sys(self):
        return self.F_S.shape[0] // 2

    @property
    def n_anc(self):
        return self.F_A.shape[0] // 2

    @property
    def hamiltonian(self):
        """The joint QuadraticHamiltonian: F_SA = [[F_S, G], [G^T, F_A]] and
        alpha_SA = (alpha_S, alpha_A)."""
        return QuadraticHamiltonian(
            F=np.block([[self.F_S, self.G], [self.G.T, self.F_A]]),
            alpha=np.concatenate([self.alpha_S, self.alpha_A]),
        )


def hamiltonian_flow(hamiltonian, t):
    """Noiseless channel (R = 0) of a quadratic Hamiltonian over time t.

    One exponential of the affine lift (QuadraticHamiltonian.affine_generator)
    times t gives the symplectic T = exp(Omega F t) as its top-left block and
    d = [(exp(Omega F t) - 1)/(Omega F)] Omega alpha as its last column, with
    no special casing of singular Omega F (free or partial Hamiltonians).
    """
    n = hamiltonian.F.shape[0]
    flow = mat_exp(hamiltonian.affine_generator() * t)
    return GaussianChannel(T=flow[:n, :n], d=flow[:n, n], R=np.zeros((n, n)))


def reduce_from_joint(setup, dt=None):
    """Channel on the system alone from one joint evolution of duration dt.

    Takes the joint flow X -> M X + shift of the setup's Hamiltonian over dt
    (:func:`hamiltonian_flow`, M = flow.T), splits M into system/ancilla
    blocks M_SS, M_SA, and returns T = M_SS, d = M_SA X_A0 + shift_S,
    R = M_SA sigma_A0 M_SA^T.  The output is CPTP whenever the ancilla state
    is valid.
    """
    if dt is None:
        dt = setup.dt
    ds = 2 * setup.n_sys
    flow = hamiltonian_flow(setup.hamiltonian, dt)
    m_ss = flow.T[:ds, :ds]
    m_sa = flow.T[:ds, ds:]
    d = m_sa @ setup.X_A0 + flow.d[:ds]
    r = m_sa @ setup.sigma_A0 @ m_sa.T
    return GaussianChannel(T=m_ss, d=d, R=(r + r.T) / 2)


def channel_taylor(setup, order):
    """Taylor coefficients in dt of the reduced channel about dt = 0.

    Returns three lists (T_k, d_k, R_k) for k = 0..order, read off the terms
    L^k / k! of the exponential series of the joint affine lift L
    (QuadraticHamiltonian.affine_generator); no numerical differentiation
    is involved.  T_0 = 1, d_0 = 0, R_0 = 0 always.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    ds = 2 * setup.n_sys
    lift = setup.hamiltonian.affine_generator()
    terms = [np.eye(lift.shape[0])]
    for k in range(1, order + 1):
        terms.append(terms[-1] @ lift / k)

    t_list = [term[:ds, :ds] for term in terms]
    m_sa = [term[:ds, ds:-1] for term in terms]
    d_list = [term[:ds, -1] + m @ setup.X_A0 for term, m in zip(terms, m_sa)]
    r_list = [np.zeros((ds, ds))]
    for k in range(1, order + 1):
        acc = np.zeros((ds, ds))
        for i in range(1, k):
            acc += m_sa[i] @ setup.sigma_A0 @ m_sa[k - i].T
        r_list.append((acc + acc.T) / 2)
    return t_list, d_list, r_list
