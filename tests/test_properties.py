"""Property tests of the map algebra: the interpolating flow meets the
collisions at every n*dt, it is a semigroup, and a Hamiltonian flow is a
noiseless symplectic channel.

Setups have 1-3 system and 1-3 ancilla modes, ancillas squeezed by up to
e^2 in either quadrature, and steps dt up to where the largest |arg mu| of
the reduced T reaches 0.9 pi.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rapidgauss.channels import (
    JointSetup,
    channel_power,
    compose,
    hamiltonian_flow,
    reduce_from_joint,
)
from rapidgauss.interpolation import LIFT_NORM_MAX, generators_from_channel, propagate
from rapidgauss.phasespace import QuadraticHamiltonian, symplectic_form

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
    dt = draw(st.floats(0.01, 4.0))
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
