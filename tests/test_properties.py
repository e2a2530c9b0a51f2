"""Property tests of the map algebra: every collision is a CPTP channel with
symmetric noise, the interpolating flow meets the collisions at every n*dt,
it is a semigroup, a contractive flow settles where the collisions do, and a
Hamiltonian flow is a noiseless symplectic channel.

Setups have 1-3 system and 1-3 ancilla modes, ancillas squeezed by up to
e^2 in either quadrature, and steps dt up to where the largest |arg mu| of
the reduced T reaches 0.9 pi.
"""

import json
from dataclasses import replace

import numpy as np
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rapidgauss.channels import (
    JointSetup,
    channel_power,
    compose,
    hamiltonian_flow,
    is_cptp,
    reduce_from_joint,
)
from rapidgauss.interpolation import (
    LIFT_NORM_MAX,
    cp_differential_check,
    generators_from_channel,
    propagate,
)
from rapidgauss.phasespace import QuadraticHamiltonian, symplectic_form
from rapidgauss.thermalization import (
    OscillatorBathSetup,
    discrete_asymptote,
    ladder_coupling,
    to_joint_setup,
)

PROPERTY = settings(derandomize=True, deadline=None, max_examples=60)
BRANCH_LIMIT = 0.9 * np.pi
SQUEEZE_MAX = 2.0  # ancilla quadratures squeezed by up to e^(+-2)


def _entries(shape, bound=1.0):
    return arrays(float, shape, elements=st.floats(-bound, bound))


def _symmetric(dim, bound=1.0):
    return _entries((dim, dim), bound).map(lambda m: (m + m.T) / 2)


@st.composite
def _ancilla_cov(draw, n_modes):
    """Thermal covariance per mode, squeezed and rotated: nu S S^T with
    S = rotation(theta) diag(e^r, e^-r)."""
    cov = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        nu = draw(st.floats(1.0, 3.0))
        r = draw(st.floats(-SQUEEZE_MAX, SQUEEZE_MAX))
        theta = draw(st.floats(0.0, np.pi))
        c, s = np.cos(theta), np.sin(theta)
        squeeze = np.array([[c, -s], [s, c]]) @ np.diag([np.exp(r), np.exp(-r)])
        cov[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = nu * squeeze @ squeeze.T
    return (cov + cov.T) / 2


@st.composite
def _collisions(draw):
    """(channel, dt) of a random collision.  A drawn dt is halved until the
    largest |arg mu| of T is below BRANCH_LIMIT."""
    ds, da = 2 * draw(st.integers(1, 3)), 2 * draw(st.integers(1, 3))
    setup = JointSetup(
        F_S=draw(_symmetric(ds)),
        F_A=draw(_symmetric(da)),
        G=draw(_entries((ds, da))),
        alpha_S=draw(_entries(ds)),
        alpha_A=draw(_entries(da)),
        X_A0=draw(_entries(da)),
        sigma_A0=draw(_ancilla_cov(da // 2)),
    )
    return _off_the_cut(setup, draw(st.floats(0.01, 4.0)))


def _off_the_cut(setup, dt):
    """(channel, dt) of one collision, dt halved until the largest |arg mu|
    of T is below BRANCH_LIMIT."""
    channel = reduce_from_joint(setup, dt)
    while np.abs(np.angle(np.linalg.eigvals(channel.T))).max() >= BRANCH_LIMIT:
        dt /= 2
        channel = reduce_from_joint(setup, dt)
    return channel, dt


def _assert_channels_close(got, want, rtol=1e-9):
    for g, w in ((got.T, want.T), (got.d, want.d), (got.R, want.R)):
        assert np.abs(g - w).max() <= rtol * max(1.0, np.abs(w).max())


@PROPERTY
@given(_collisions())
def test_collisions_are_cptp_with_symmetric_noise(collision):
    channel, dt = collision
    gen = generators_from_channel(channel, dt)
    assert np.array_equal(channel.R, channel.R.T)
    assert np.array_equal(gen.C, gen.C.T)
    report = is_cptp(channel)
    assert report.ok and np.isfinite(report.margin)
    assert np.isfinite(cp_differential_check(gen).margin)
    for record in (channel, gen):
        again = type(record).from_dict(json.loads(json.dumps(record.to_dict())))
        assert all(np.array_equal(getattr(again, k), v) for k, v in record.to_dict().items())


@PROPERTY
@given(_collisions())
def test_interpolation_meets_every_collision(collision):
    channel, dt = collision
    gen = generators_from_channel(channel, dt)
    for n in (1, 3, 7):
        _assert_channels_close(propagate(gen, n * dt), channel_power(channel, n))


@PROPERTY
@given(_collisions(), st.floats(2.0, 8.0), st.floats(0.25, 4.0))
def test_flow_is_a_semigroup(collision, t_norms, s_norms):
    # t and s in units of the longest time one exponential covers; t > 1
    # of them, so propagate(t) doubles
    channel, dt = collision
    gen = generators_from_channel(channel, dt)
    omega = symplectic_form(gen.n_modes)
    norm = np.abs(omega @ gen.A).sum(axis=0).max()
    assume(norm > 1e-3)
    t, s = (x * LIFT_NORM_MAX / norm for x in (t_norms, s_norms))
    _assert_channels_close(propagate(gen, t + s), compose(propagate(gen, s), propagate(gen, t)))


@st.composite
def _contractive_baths(draw):
    """Oscillator baths with det G = |g|^2 - |h|^2 > 0 whose collision
    channel is contractive, dt halved as in _collisions."""
    g = draw(st.floats(0.05, 1.0)) * np.exp(1j * draw(st.floats(0.0, 2 * np.pi)))
    h = draw(st.floats(0.0, 0.9)) * abs(g) * np.exp(1j * draw(st.floats(0.0, 2 * np.pi)))
    bath = OscillatorBathSetup(
        E_S=draw(st.floats(0.1, 2.0)),
        E_A=draw(st.floats(0.1, 2.0)),
        nu_A=draw(st.floats(1.0, 10.0)),
        G=ladder_coupling(g, h),
        dt=draw(st.floats(0.01, 4.0)),
    )
    channel, dt = _off_the_cut(to_joint_setup(bath), bath.dt)
    asymptote = discrete_asymptote(replace(bath, dt=dt))
    assume(asymptote is not None)
    return channel, dt, asymptote


@PROPERTY
@given(_contractive_baths())
def test_contractive_flow_settles_at_the_discrete_fixed_point(bath):
    # the flow meets every collision, so its fixed point, M sigma + sigma M^T
    # + C = 0 with M = Omega A, is the channel's sigma = T sigma T^T + R.
    # Both carry relative rounding errors of order eps / (1 - rho), rho the
    # spectral radius of T, so the bound widens as rho nears 1.
    channel, dt, asymptote = bath
    gen = generators_from_channel(channel, dt)
    fixed = scipy.linalg.solve_continuous_lyapunov(symplectic_form(1) @ gen.A, -gen.C)
    rho = np.abs(np.linalg.eigvals(channel.T)).max()
    tol = 1e-9 * max(1.0, 1e-5 / (1.0 - rho))
    assert np.abs(fixed - asymptote).max() <= tol * max(1.0, np.abs(asymptote).max())


@st.composite
def _hamiltonians(draw):
    dim = 2 * draw(st.integers(1, 3))
    return QuadraticHamiltonian(F=draw(_symmetric(dim, 2.0)), alpha=draw(_entries(dim, 2.0)))


@PROPERTY
@given(_hamiltonians(), st.floats(0.0, 3.0))
def test_hamiltonian_flow_is_a_noiseless_symplectic_channel(hamiltonian, t):
    flow = hamiltonian_flow(hamiltonian, t)
    assert not flow.R.any()
    omega = symplectic_form(flow.n_modes)
    residual = np.abs(flow.T @ omega @ flow.T.T - omega).max()
    assert residual <= 1e-9 * max(1.0, np.abs(flow.T).max() ** 2)
