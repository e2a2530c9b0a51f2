import warnings
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rapidgauss.channels import (
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
from rapidgauss.errors import (
    DimensionMismatchError,
    InvalidAncillaStateError,
    InvalidSetupError,
    NonFiniteStateError,
)
from rapidgauss.interpolation import Generators, generators_from_channel, propagate
from rapidgauss.phasespace import (
    GaussianState,
    symplectic_form,
    validate_state,
)
from rapidgauss.sampling import random_joint_setup, random_state_cov, random_symplectic
from rapidgauss.thermalization import (
    OscillatorBathSetup,
    first_order_generators,
    rwa_coupling,
    to_joint_setup,
)

from helpers import apply_loop, apply_sequence, decoupled_setup, noiseless_flow, row_errors


def test_apply_identity_and_constant():
    state = GaussianState(mean=np.array([0.5, -1.0]), cov=2.0 * np.eye(2))
    out = apply(identity_channel(1), state)
    assert_allclose(out.mean, state.mean)
    assert_allclose(out.cov, state.cov)

    target = np.diag([3.0, 1.5])
    constant = GaussianChannel(T=np.zeros((2, 2)), d=np.zeros(2), R=target)
    out = apply(constant, state)
    assert_allclose(out.cov, target)
    assert_allclose(out.mean, np.zeros(2))


def test_cptp_channels_preserve_validity(rng):
    # dilation-built channels applied to valid states stay valid
    for _ in range(1000):
        setup = random_joint_setup(rng, dt=float(rng.uniform(0.02, 0.3)))
        channel = reduce_from_joint(setup)
        state = GaussianState(
            mean=rng.uniform(-1, 1, 2 * setup.n_sys),
            cov=random_state_cov(rng, setup.n_sys),
        )
        assert validate_state(apply(channel, state)).ok


def test_is_cptp_examples(rng):
    s = random_symplectic(rng, 1, 0.5)
    symplectic = GaussianChannel(T=s, d=np.zeros(2), R=np.zeros((2, 2)))
    res = is_cptp(symplectic)
    assert res.ok
    assert res.margin == pytest.approx(0.0, abs=1e-12)

    halving = GaussianChannel(T=0.5 * np.eye(2), d=np.zeros(2), R=np.zeros((2, 2)))
    res = is_cptp(halving)
    assert not res.ok
    assert res.margin == pytest.approx(-0.75, abs=1e-12)

    repaired = GaussianChannel(T=0.5 * np.eye(2), d=np.zeros(2), R=np.eye(2))
    res = is_cptp(repaired)
    assert res.ok
    assert res.margin == pytest.approx(0.25, abs=1e-12)


def test_compose_neutral_element(rng):
    setup = random_joint_setup(rng)
    channel = reduce_from_joint(setup)
    left = compose(identity_channel(setup.n_sys), channel)
    right = compose(channel, identity_channel(setup.n_sys))
    for other in (left, right):
        assert_allclose(other.T, channel.T, atol=1e-15)
        assert_allclose(other.d, channel.d, atol=1e-15)
        assert_allclose(other.R, channel.R, atol=1e-15)


def test_compose_of_cptp_is_cptp(rng):
    for _ in range(500):
        a = reduce_from_joint(random_joint_setup(rng, dt=float(rng.uniform(0.02, 0.2))))
        n_sys = a.n_modes
        b = reduce_from_joint(
            random_joint_setup(rng, n_sys=n_sys, dt=float(rng.uniform(0.02, 0.2)))
        )
        assert is_cptp(compose(b, a)).ok


def test_compose_matches_sequential_application(rng):
    setup = random_joint_setup(rng)
    channel = reduce_from_joint(setup)
    state = GaussianState(
        mean=rng.uniform(-1, 1, 2 * setup.n_sys), cov=random_state_cov(rng, setup.n_sys)
    )
    twice = apply(channel, apply(channel, state))
    direct = apply(compose(channel, channel), state)
    assert_allclose(direct.mean, twice.mean, atol=1e-12)
    assert_allclose(direct.cov, twice.cov, atol=1e-12)


def test_channel_power(rng):
    setup = random_joint_setup(rng)
    channel = reduce_from_joint(setup)
    chained = identity_channel(setup.n_sys)
    for _ in range(9):
        chained = compose(channel, chained)
    powered = channel_power(channel, 9)
    assert_allclose(powered.T, chained.T, atol=1e-13)
    assert_allclose(powered.d, chained.d, atol=1e-13)
    assert_allclose(powered.R, chained.R, atol=1e-13)


@pytest.mark.parametrize("n", [64, 65, 100])
def test_channel_power_stops_squaring_at_the_top_bit(n):
    # T^n is finite up to 1e300, but one more squaring past the top bit of n
    # would form 1e384 and overflow
    channel = GaussianChannel(T=np.diag([1e3, 1e-3]), d=np.zeros(2), R=np.zeros((2, 2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        powered = channel_power(channel, n)
    assert_allclose(np.diag(powered.T), [1e3**n, 1e-3**n], rtol=1e-12)
    assert not powered.d.any() and not powered.R.any()


def test_reduce_decoupled_setup(rng):
    f_s = np.array([[1.2, 0.3], [0.3, 0.8]])
    alpha_s = np.array([0.4, -0.2])
    setup = JointSetup(
        F_S=f_s,
        F_A=np.eye(2),
        G=np.zeros((2, 2)),
        alpha_S=alpha_s,
        X_A0=np.array([0.5, 0.5]),
        sigma_A0=2.0 * np.eye(2),
        dt=0.3,
    )
    channel = reduce_from_joint(setup)
    flow = noiseless_flow(f_s, 0.3, alpha_s)
    assert_allclose(channel.T, flow.T, atol=1e-13)
    assert_allclose(channel.d, flow.d, atol=1e-13)
    assert_allclose(channel.R, np.zeros((2, 2)), atol=1e-14)


def test_flow_with_a_shift_near_1e100_is_finite():
    # a shift column left unbalanced makes the exponential's ratio for extra
    # squarings underflow; the flow is the rotation by t and its shift
    # scaled by alpha
    t = 3.0
    flow = reduce_from_joint(decoupled_setup(np.eye(2), (0.0, 1e100), t))
    for m in (flow.T, flow.d, flow.R):
        assert np.isfinite(m).all()
    rotation = np.array([[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]])
    assert np.abs(flow.T - rotation).max() <= 1e-7
    assert_allclose(flow.d, 1e100 * np.array([np.sin(t), np.cos(t) - 1]), rtol=1e-7)


@pytest.mark.parametrize("alpha", [(0.0, 1e16), (0.0, 1e50), (1e-300, 1e300)])
def test_flow_is_symplectic_to_rounding_whatever_its_shift(alpha):
    # the shift column enters the exponential scaled to the size of F, so
    # T = exp(Omega F t), which does not depend on alpha, keeps its digits
    flow = reduce_from_joint(decoupled_setup(np.eye(2), alpha, 3.0))
    omega = symplectic_form(1)
    assert np.abs(flow.T @ omega @ flow.T.T - omega).max() <= 1e-15


@pytest.mark.parametrize("alpha_s", [(0.0, 1e50), (1e-300, 1e300)])
def test_a_decoupled_reduction_keeps_its_rotation_whatever_the_shift(alpha_s):
    t = 3.0
    setup = JointSetup(F_S=np.eye(2), F_A=np.eye(2), G=np.zeros((2, 2)), alpha_S=alpha_s, dt=t)
    channel = reduce_from_joint(setup)
    rotation = np.array([[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]])
    assert np.abs(channel.T - rotation).max() <= 1e-15
    assert_allclose(channel.d, alpha_s[1] * np.array([np.sin(t), np.cos(t) - 1]), rtol=1e-14)


def test_a_reduction_validates_one_channel_and_no_hamiltonian(rng, monkeypatch):
    # the joint lift is exponentiated directly: the only record built, and
    # so validated, is the reduced channel
    built = []
    for cls in (GaussianChannel, GaussianState, Generators):
        post_init = cls.__post_init__

        def counting(self, post_init=post_init):
            built.append(type(self).__name__)
            post_init(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    setup = random_joint_setup(rng, n_sys=2, n_anc=1)
    built.clear()
    reduce_from_joint(setup)
    assert built == ["GaussianChannel"]


def test_propagate_with_shift_and_noise_near_1e100_is_finite():
    # the generator lift's ratio for extra squarings underflows too
    gen = Generators(
        A=np.array([[0.0, 1.0], [1.0, 0.0]]), b=np.array([0.0, 1e100]), C=1e100 * np.eye(2)
    )
    channel = propagate(gen, 0.7)
    for m in (channel.T, channel.d, channel.R):
        assert np.isfinite(m).all()
    assert np.linalg.eigvalsh(channel.R).min() > 0


def test_reduce_zero_duration_is_identity(rng):
    setup = random_joint_setup(rng, dt=0.0)
    channel = reduce_from_joint(setup)
    assert_allclose(channel.T, np.eye(2 * setup.n_sys))
    assert_allclose(channel.d, np.zeros(2 * setup.n_sys), atol=1e-16)
    assert_allclose(channel.R, np.zeros((2 * setup.n_sys,) * 2), atol=1e-16)


def test_reduce_matches_joint_marginal(rng):
    # oracle: evolve the full joint state, then read off the system blocks
    for _ in range(10):
        setup = random_joint_setup(rng, dt=float(rng.uniform(0.05, 0.4)))
        ds = 2 * setup.n_sys
        sys_state = GaussianState(
            mean=rng.uniform(-1, 1, ds), cov=random_state_cov(rng, setup.n_sys)
        )
        joint_mean = np.concatenate([sys_state.mean, setup.X_A0])
        joint_cov = np.zeros((ds + 2 * setup.n_anc,) * 2)
        joint_cov[:ds, :ds] = sys_state.cov
        joint_cov[ds:, ds:] = setup.sigma_A0
        joint_state = GaussianState(mean=joint_mean, cov=joint_cov)
        f_sa = np.block([[setup.F_S, setup.G], [setup.G.T, setup.F_A]])
        alpha_sa = np.concatenate([setup.alpha_S, setup.alpha_A])
        evolved = apply(noiseless_flow(f_sa, setup.dt, alpha_sa), joint_state)

        out = apply(reduce_from_joint(setup), sys_state)
        assert_allclose(out.mean, evolved.mean[:ds], atol=1e-11)
        assert_allclose(out.cov, evolved.cov[:ds, :ds], atol=1e-11)


def test_reduce_output_is_cptp_with_psd_noise(rng):
    for _ in range(50):
        setup = random_joint_setup(rng, dt=float(rng.uniform(0.02, 0.5)))
        channel = reduce_from_joint(setup)
        assert is_cptp(channel).ok
        assert_allclose(channel.R, channel.R.T, atol=1e-13)
        assert np.linalg.eigvalsh(channel.R).min() >= -1e-12


def test_fresh_ancilla_composition_differs_from_continued_contact(rng):
    # two fresh collisions != one joint evolution of twice the duration
    setup = random_joint_setup(rng, n_sys=1, n_anc=1, scale=0.8, dt=0.4)
    step = reduce_from_joint(setup)
    two_fresh = compose(step, step)
    continued = reduce_from_joint(replace(setup, dt=0.8))
    assert np.abs(two_fresh.R - continued.R).max() > 1e-4


def test_channel_taylor_structure(rng):
    setup = random_joint_setup(rng)
    t_list, d_list, r_list = (coeffs[0] for coeffs in channel_taylor_stack([setup], 4))
    omega_s = symplectic_form(setup.n_sys)
    assert_allclose(t_list[0], np.eye(2 * setup.n_sys))
    assert_allclose(d_list[0], np.zeros(2 * setup.n_sys))
    assert_allclose(r_list[0], np.zeros((2 * setup.n_sys,) * 2))
    assert_allclose(t_list[1], omega_s @ setup.F_S, atol=1e-14)
    assert_allclose(r_list[1], np.zeros_like(r_list[1]), atol=1e-16)
    with pytest.raises(ValueError):
        channel_taylor_stack([setup], -1)


@pytest.mark.parametrize(
    "order,steps",
    [(1, (0.02, 0.01, 0.005)), (2, (0.02, 0.01, 0.005)), (3, (0.04, 0.02, 0.01)), (4, (0.08, 0.04, 0.02))],
)
def test_channel_taylor_remainder_scaling(rng, order, steps):
    # truncation error must shrink like dt^(order+1)
    setup = random_joint_setup(rng, n_sys=1, n_anc=1, scale=0.8)
    t_list, d_list, r_list = (coeffs[0] for coeffs in channel_taylor_stack([setup], order))
    residuals = []
    for dt in steps:
        channel = reduce_from_joint(replace(setup, dt=dt))
        t_hat = sum(t_list[k] * dt**k for k in range(order + 1))
        d_hat = sum(d_list[k] * dt**k for k in range(order + 1))
        r_hat = sum(r_list[k] * dt**k for k in range(order + 1))
        residuals.append(
            max(
                np.abs(channel.T - t_hat).max(),
                np.abs(channel.d - d_hat).max(),
                np.abs(channel.R - r_hat).max(),
            )
        )
    expected = 2.0 ** (order + 1)
    for lo, hi in zip(residuals[1:], residuals[:-1]):
        assert hi / lo == pytest.approx(expected, rel=0.35)


def test_trajectory_length(rng):
    setup = random_joint_setup(rng)
    channel = reduce_from_joint(setup)
    state = GaussianState(
        mean=np.zeros(2 * setup.n_sys), cov=np.eye(2 * setup.n_sys)
    )
    means, covs = apply_sequence([channel] * 7, state.mean, state.cov)
    assert means.shape == (7, 2 * setup.n_sys)
    assert covs.shape == (7, 2 * setup.n_sys, 2 * setup.n_sys)


def _damped_one_mode_channel():
    bath = OscillatorBathSetup(
        E_S=1.3, E_A=0.8, nu_A=2.0, G=np.array([[0.3, 0.1], [-0.1, 0.2]]), dt=0.05
    )
    return reduce_from_joint(to_joint_setup(bath))


def _two_mode_channel():
    setup = JointSetup(
        F_S=np.array(
            [[1.1, 0.2, 0.1, 0.0], [0.2, 0.9, 0.0, 0.1], [0.1, 0.0, 1.4, 0.3], [0.0, 0.1, 0.3, 1.2]]
        ),
        F_A=np.eye(4),
        G=0.6 * np.eye(4),
        alpha_S=np.array([0.3, -0.1, 0.2, 0.0]),
        sigma_A0=2.0 * np.eye(4),
        dt=0.05,
    )
    return reduce_from_joint(setup)


@pytest.mark.parametrize("make_channel", [_damped_one_mode_channel, _two_mode_channel])
def test_trajectory_equals_a_loop_of_apply(make_channel):
    # state doubling reassociates the products, so rows agree to rounding
    channel = make_channel()
    n = channel.T.shape[0]
    state = GaussianState(mean=np.linspace(-0.5, 0.5, n), cov=1.5 * np.eye(n))
    means, covs = apply_sequence([channel] * 300, state.mean, state.cov)
    assert len(means) == len(covs) == 300
    reference = [state]
    for _ in range(300):
        reference.append(apply(channel, reference[-1]))
    want = (np.array([s.mean for s in reference[1:]]), np.array([s.cov for s in reference[1:]]))
    assert row_errors((means, covs), want).max() <= 1e-12


def _bath_channel(g, dt):
    bath = OscillatorBathSetup(E_S=1.0, E_A=1.3, nu_A=3.0, G=rwa_coupling(g, 0.3 * g), dt=dt)
    return reduce_from_joint(to_joint_setup(bath))


def _thermalize_gap():
    bath = OscillatorBathSetup(E_S=1.2, E_A=1.0, nu_A=2.0, G=rwa_coupling(0.3, 0.1), dt=0.05)
    return propagate(first_order_generators(bath), 10 * bath.dt)


def _interpolated_substep():
    return propagate(generators_from_channel(_bath_channel(0.3, 0.37), 0.37), 0.037)


def _weak_coupling_channel():
    channel = _bath_channel(1e-3, 0.05)
    # the spectral radius of T sits within 1e-7 of one: the noise piles up
    # over the whole run instead of settling
    assert 1 - 1e-7 < np.abs(np.linalg.eigvals(channel.T)).max() < 1
    return channel


ACCURACY_CHANNELS = {
    "damped_one_mode": _damped_one_mode_channel,
    "thermalize_gap": _thermalize_gap,
    "interpolated_substep": _interpolated_substep,
    "weak_coupling": _weak_coupling_channel,
    "two_mode": _two_mode_channel,
    "E_S_dt_1.6": lambda: _bath_channel(0.3, 1.6),
}


@pytest.mark.parametrize("name", sorted(ACCURACY_CHANNELS))
def test_doubled_trajectory_is_accurate_over_4000_steps(name):
    # against the same float channel applied row by row in extended precision
    channel = ACCURACY_CHANNELS[name]()
    n = channel.T.shape[0]
    mean, cov = np.linspace(-0.5, 0.5, n), 1.5 * np.eye(n)
    got = apply_sequence([channel] * 4000, mean, cov)
    want = apply_loop([channel] * 4000, mean, cov, dtype=np.longdouble)
    assert row_errors(got, want).max() <= 1e-12
    assert np.array_equal(got[1], got[1].swapaxes(1, 2))  # symmetrised exactly


def test_apply_sequence_checks_dimensions_and_finiteness():
    state = GaussianState(mean=np.zeros(2), cov=np.eye(2))
    with pytest.raises(DimensionMismatchError):
        apply_sequence([identity_channel(1), identity_channel(2)], state.mean, state.cov)
    means, covs = apply_sequence([], state.mean, state.cov)
    assert means.shape == (0, 2) and covs.shape == (0, 2, 2)
    # a hyperbolic step grows the covariance by e^6 per step, past the
    # float range within 120 steps
    stretch = GaussianChannel(T=np.diag([np.e**3, np.e**-3]), d=np.zeros(2), R=np.zeros((2, 2)))
    with pytest.raises(ValueError, match="state has non-finite entries"):
        apply_sequence([stretch] * 200, state.mean, state.cov)


def test_apply_and_apply_sequence_report_overflow_alike():
    # the covariance entry 1e200^2 leaves the float range
    stretch = GaussianChannel(T=np.diag([1e200, 1e-200]), d=np.zeros(2), R=np.zeros((2, 2)))
    vacuum = GaussianState(mean=np.zeros(2), cov=np.eye(2))
    with pytest.raises(NonFiniteStateError, match="state has non-finite entries"):
        apply(stretch, apply(stretch, vacuum))
    with pytest.raises(NonFiniteStateError, match="state has non-finite entries"):
        apply_sequence([stretch] * 2, vacuum.mean, vacuum.cov)
    # in the single updates of a run, and in the squarings of a longer one
    for count in (2, 5):
        with pytest.raises(NonFiniteStateError, match="state has non-finite entries"):
            apply_runs([(stretch, count)], vacuum.mean, vacuum.cov)


def test_joint_setup_validation():
    with pytest.raises(InvalidSetupError):
        JointSetup(
            F_S=np.array([[1.0, 0.5], [0.0, 1.0]]),
            F_A=np.eye(2),
            G=np.zeros((2, 2)),
        )
    with pytest.raises(InvalidAncillaStateError):
        JointSetup(
            F_S=np.eye(2),
            F_A=np.eye(2),
            G=np.zeros((2, 2)),
            sigma_A0=0.2 * np.eye(2),
        )
    with pytest.raises(InvalidAncillaStateError, match="sigma_A0 must be symmetric"):
        JointSetup(
            F_S=np.eye(2),
            F_A=np.eye(2),
            G=np.zeros((2, 2)),
            sigma_A0=np.array([[2.0, 0.5], [0.0, 2.0]]),
        )
    with pytest.raises(DimensionMismatchError):
        JointSetup(F_S=np.eye(2), F_A=np.eye(2), G=np.zeros((2, 4)))
    for dt in (np.nan, np.inf, -0.5):
        with pytest.raises(InvalidSetupError, match="dt"):
            JointSetup(F_S=np.eye(2), F_A=np.eye(2), G=np.zeros((2, 2)), dt=dt)
    # an ancilla state of consistent but wrong size
    with pytest.raises(DimensionMismatchError, match="must match F_A"):
        JointSetup(
            F_S=np.eye(2), F_A=np.eye(2), G=np.zeros((2, 2)), X_A0=np.zeros(4), sigma_A0=np.eye(4)
        )


def test_apply_dimension_mismatch(rng):
    channel = identity_channel(2)
    state = GaussianState(mean=np.zeros(2), cov=np.eye(2))
    with pytest.raises(DimensionMismatchError):
        apply(channel, state)
