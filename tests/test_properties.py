"""Property tests of the map algebra: every collision is a CPTP channel with
symmetric noise, the interpolating flow meets the collisions at every n*dt,
it is a semigroup, a contractive flow settles where the collisions do, a
Hamiltonian flow is a noiseless symplectic channel, and runs of channels
step like the per-row loop however they are grouped and cut into blocks.

Setups have 1-3 system and 1-3 ancilla modes, ancillas squeezed by up to
e^2 in either quadrature, and steps dt up to where the largest |arg mu| of
the reduced T reaches 0.9 pi.  Corners are pinned as explicit examples,
since the floats drawn depend on the literals of the modules loaded: a
collision with subnormal entries, a nearly defective T (cond(V) ~ 1e7),
entries near 1e-300 and 1e300, and shift and noise near 1e300 on a
rotation and on a damped Jordan block.  Weak couplings, down to 1e-6, are
drawn from a seeded numpy table instead, which no literal can shift.
"""

from dataclasses import replace
from itertools import groupby

import numpy as np
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rapidgauss.channels import (
    GaussianChannel,
    JointSetup,
    apply_runs,
    channel_power,
    compose,
    identity_channel,
    is_cptp,
    reduce_from_joint,
)
from rapidgauss.cli import _blocks
from rapidgauss.interpolation import (
    LIFT_NORM_MAX,
    Generators,
    cp_differential_check,
    gap_runs,
    generators_from_channel,
    propagate,
)
from rapidgauss.phasespace import symplectic_form
from rapidgauss.sampling import random_joint_setup
from rapidgauss.thermalization import (
    OscillatorBathSetup,
    discrete_asymptote,
    ladder_coupling,
    to_joint_setup,
)

from helpers import apply_loop, apply_sequence, decoupled_setup, gap_channels, row_errors

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
    channel = reduce_from_joint(replace(setup, dt=dt))
    while np.abs(np.angle(np.linalg.eigvals(channel.T))).max() >= BRANCH_LIMIT:
        dt /= 2
        channel = reduce_from_joint(replace(setup, dt=dt))
    return channel, dt


# Corners pinned as explicit examples, so that they are tried whatever
# floats the strategies happen to draw:
# a collision with a subnormal-scale entry in T and subnormal d
SUBNORMAL = (
    GaussianChannel(
        T=np.array([[1.0, 3.6e-202], [-4.2e-3, 1.0]]),
        d=np.array([2.5e-310, -7e-315]),
        R=np.zeros((2, 2)),
    ),
    0.01,
)
# a nearly free mode, F_S = diag(1, 1e-14), weakly coupled: the eigenvectors
# of T have cond(V) ~ 1e7, so the generators take the Schur route
NEAR_DEFECTIVE = (
    reduce_from_joint(
        JointSetup(
            F_S=np.diag([1.0, 1e-14]), F_A=np.eye(2), G=np.diag([1e-3, 0.0]),
            alpha_S=np.array([0.3, -0.1]), sigma_A0=2.0 * np.eye(2), dt=0.1,
        )
    ),
    0.1,
)
# a rotation whose shift and noise are of order 1e-300, near the float limit
ROTATION = np.array([[np.cos(0.3), np.sin(0.3)], [-np.sin(0.3), np.cos(0.3)]])
TINY = (
    GaussianChannel(
        T=ROTATION, d=np.array([1e-300, -3e-300]), R=np.array([[2.0, 0.5], [0.5, 1.0]]) * 1e-300
    ),
    0.5,
)
# shift and noise of order 1e300 on the same rotation (the eigenbasis route)
# and on a damped Jordan block (the Schur route, through a balanced lift)
HUGE_NOISE = np.array([[2.0, 0.5], [0.5, 1.0]]) * 1e300
HUGE = (GaussianChannel(T=ROTATION, d=np.array([1e300, -3e300]), R=HUGE_NOISE), 0.5)
JORDAN = np.array([[0.5, 0.3], [0.0, 0.5]])
HUGE_JORDAN = (GaussianChannel(T=JORDAN, d=np.array([1e300, -3e300]), R=HUGE_NOISE), 0.5)


def _assert_channels_close(got, want, rtol=1e-9):
    for g, w in ((got.T, want.T), (got.d, want.d), (got.R, want.R)):
        assert np.abs(g - w).max() <= rtol * max(1.0, np.abs(w).max())


@PROPERTY
@given(_collisions())
@example(SUBNORMAL)
@example(NEAR_DEFECTIVE)
@example(TINY)
@example(HUGE)
@example(HUGE_JORDAN)
def test_collisions_are_cptp_with_symmetric_noise(collision):
    channel, dt = collision
    gen = generators_from_channel(channel, dt)
    assert np.array_equal(channel.R, channel.R.T)
    assert np.array_equal(gen.C, gen.C.T)
    report = is_cptp(channel)
    assert report.ok and np.isfinite(report.margin)
    assert np.isfinite(cp_differential_check(gen).margin)


@PROPERTY
@given(_collisions())
@example(SUBNORMAL)
@example(NEAR_DEFECTIVE)
@example(TINY)
@example(HUGE)
@example(HUGE_JORDAN)
def test_interpolation_meets_every_collision(collision):
    channel, dt = collision
    gen = generators_from_channel(channel, dt)
    for n in (1, 3, 7):
        _assert_channels_close(propagate(gen, n * dt), channel_power(channel, n))


def _weak_collisions(count=40, seed=23):
    """(channel, dt, scale) of `count` seeded random 1-3 + 1-3-mode setups,
    each with its coupling G scaled by 1e-2, 1e-4 and 1e-6, and dt drawn in
    [0.05, 1]; a draw whose T comes within 0.9 pi of the cut is skipped."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n_sys, n_anc = (int(k) for k in rng.integers(1, 4, 2))
        setup = random_joint_setup(rng, n_sys=n_sys, n_anc=n_anc, dt=float(rng.uniform(0.05, 1.0)))
        for scale in (1e-2, 1e-4, 1e-6):
            channel = reduce_from_joint(replace(setup, G=setup.G * scale))
            if np.abs(np.angle(np.linalg.eigvals(channel.T))).max() < BRANCH_LIMIT:
                yield channel, setup.dt, scale


def test_weak_coupling_noise_meets_every_collision_relative_to_its_size():
    # the noise R is of order scale^2, so an error relative to T would hide
    # in it; each strobe's R is held to its own largest entry
    scales = set()
    for channel, dt, scale in _weak_collisions():
        gen = generators_from_channel(channel, dt)
        for n in (1, 3, 7):
            got, want = propagate(gen, n * dt), channel_power(channel, n)
            _assert_channels_close(got, want)
            assert np.abs(got.R - want.R).max() <= 1e-12 * np.abs(want.R).max(), (scale, n)
        scales.add(scale)
    assert scales == {1e-2, 1e-4, 1e-6}


@PROPERTY
@given(_collisions(), st.floats(2.0, 8.0), st.floats(0.25, 4.0))
@example(SUBNORMAL, 2.0, 0.25)
@example(NEAR_DEFECTIVE, 8.0, 4.0)
@example(TINY, 3.0, 1.0)
@example(HUGE, 3.0, 1.0)
@example(HUGE_JORDAN, 3.0, 1.0)
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
    return decoupled_setup(draw(_symmetric(dim, 2.0)), draw(_entries(dim, 2.0)))


@PROPERTY
@given(_hamiltonians(), st.floats(0.0, 3.0))
@example(decoupled_setup(np.diag([1e-300, 2e-300]), np.array([1e300, -1e300])), 3.0)
@example(decoupled_setup(np.eye(2), np.array([1e-300, 1e300])), 3.0)
def test_hamiltonian_flow_is_a_noiseless_symplectic_channel(setup, t):
    flow = reduce_from_joint(replace(setup, dt=t))
    assert not flow.R.any()
    omega = symplectic_form(flow.n_modes)
    residual = np.abs(flow.T @ omega @ flow.T.T - omega).max()
    assert residual <= 1e-9 * max(1.0, np.abs(flow.T).max() ** 2)


@st.composite
def _contraction(draw, dim):
    """Channel with T = rho Q, Q orthogonal and 0.8 <= rho <= 1, so that a
    few thousand steps stay in range, and noise R >= 0.01."""
    q, _ = np.linalg.qr(draw(_entries((dim, dim))))
    b = draw(_entries((dim, dim)))
    return GaussianChannel(
        T=draw(st.floats(0.8, 1.0)) * q,
        d=draw(_entries(dim)),
        R=b @ b.T + 0.01 * np.eye(dim),
    )


@st.composite
def _channel_runs(draw):
    """(runs, block size) on 1-3 modes: 1-8 runs of 1-300 rows over 1-4
    channels, the fourth, when drawn, equal to the first but a distinct
    object; consecutive runs may share a channel."""
    dim = 2 * draw(st.integers(1, 3))
    channels = [draw(_contraction(dim)) for _ in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        first = channels[0]
        channels.append(GaussianChannel(T=first.T.copy(), d=first.d.copy(), R=first.R.copy()))
    run = st.tuples(st.sampled_from(channels), st.integers(1, 300))
    return draw(st.lists(run, min_size=1, max_size=8)), draw(st.integers(1, 400))


@PROPERTY
@given(_channel_runs())
@example((
    [(GaussianChannel(T=0.8 * ROTATION, d=np.array([1e300, -1e300]),
                      R=np.array([[2.0, 0.5], [0.5, 1.0]]) * 1e300), 300)],
    128,
))
@example((
    [(GaussianChannel(T=0.8 * ROTATION, d=np.array([1e-300, 0.0]), R=1e-300 * np.eye(2)), 7),
     (GaussianChannel(T=ROTATION, d=np.zeros(2), R=np.zeros((2, 2))), 40)],
    5,
))
def test_runs_step_like_the_per_row_loop_in_any_blocks(drawn):
    runs, size = drawn
    channels = [ch for ch, count in runs for _ in range(count)]
    dim = channels[0].T.shape[0]
    mean, cov = np.linspace(-0.5, 0.5, dim), 1.5 * np.eye(dim)
    want = apply_loop(channels, mean, cov)
    assert row_errors(apply_runs(runs, mean, cov), want).max() <= 1e-12
    # cut at every `size` rows, each block stepped from the last row of the one before
    means, covs, end = [], [], (mean, cov)
    blocks = list(_blocks(iter(runs), size))
    assert [sum(count for _, count in block) for block in blocks[:-1]] == [size] * (len(blocks) - 1)
    cut = [id(ch) for block in blocks for ch, count in block for _ in range(count)]
    assert cut == [id(ch) for ch in channels]
    for block in blocks:
        block_means, block_covs = apply_runs(block, *end)
        means.append(block_means)
        covs.append(block_covs)
        end = block_means[-1], block_covs[-1]
    assert row_errors((np.concatenate(means), np.concatenate(covs)), want).max() <= 1e-12
    # the per-channel view groups by object, merging runs of one object and
    # keeping the equal copy apart
    grouped = [(next(group), 1 + len(list(group))) for _, group in groupby(channels, key=id)]
    assert all(a is not b for (a, _), (b, _) in zip(grouped, grouped[1:]))
    got, expected = apply_sequence(channels, mean, cov), apply_runs(grouped, mean, cov)
    assert all(np.array_equal(g, e) for g, e in zip(got, expected))


@st.composite
def _gap_grids(draw):
    """(generators, marks, unit): 1-3 modes, 1-40 nondecreasing integer
    marks whose gaps, the first from 0, are 0-3."""
    dim = 2 * draw(st.integers(1, 3))
    gen = Generators(A=draw(_entries((dim, dim))), b=draw(_entries(dim)), C=draw(_symmetric(dim)))
    gaps = draw(st.lists(st.integers(0, 3), min_size=1, max_size=40))
    return gen, np.cumsum(gaps).tolist(), draw(st.floats(0.01, 0.5))


@PROPERTY
@given(_gap_grids())
def test_gap_runs_are_the_maximal_runs_of_gap_channels(grid):
    gen, marks, unit = grid
    runs = list(gap_runs(gen, marks, unit))
    gaps = [b - a for a, b in zip([0] + marks, marks)]
    assert [count for _, count in runs] == [len(list(g)) for _, g in groupby(gaps)]
    per_row = list(gap_channels(gen, marks, unit))
    assert len(per_row) == len(marks)
    first = 0
    for channel, count in runs:
        gap = gaps[first]
        want = propagate(gen, gap * unit) if gap else identity_channel(gen.n_modes)
        for row in [channel] + per_row[first : first + count]:
            assert all(np.array_equal(getattr(row, f), getattr(want, f)) for f in ("T", "d", "R"))
        first += count
    # one channel object per distinct gap within a grid
    by_gap = {}
    for gap, channel in zip(gaps, per_row):
        assert by_gap.setdefault(gap, channel) is channel
