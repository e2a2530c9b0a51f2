import numpy as np
import pytest
from numpy.testing import assert_allclose

from rapidgauss.channels import (
    GaussianChannel,
    JointSetup,
    apply,
    apply_sequence,
    channel_power,
    channel_taylor,
    compose,
    identity_channel,
    is_cptp,
    reduce_from_joint,
    trajectory,
)
from rapidgauss.errors import (
    DimensionMismatchError,
    InvalidAncillaStateError,
    InvalidSetupError,
)
from rapidgauss.phasespace import (
    GaussianState,
    QuadraticHamiltonian,
    apply_affine,
    hamiltonian_flow,
    symplectic_form,
    validate_state,
)
from rapidgauss.sampling import random_joint_setup, random_state_cov, random_symplectic
from rapidgauss.thermalization import OscillatorBathSetup, to_joint_setup


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
        assert is_cptp(compose(b, a), tol=1e-9).ok


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
    flow = hamiltonian_flow(QuadraticHamiltonian(F=f_s, alpha=alpha_s), 0.3)
    assert_allclose(channel.T, flow.S, atol=1e-13)
    assert_allclose(channel.d, flow.d, atol=1e-13)
    assert_allclose(channel.R, np.zeros((2, 2)), atol=1e-14)


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
        ham = QuadraticHamiltonian(F=f_sa, alpha=alpha_sa)
        evolved = apply_affine(joint_state, hamiltonian_flow(ham, setup.dt))

        out = apply(reduce_from_joint(setup), sys_state)
        assert_allclose(out.mean, evolved.mean[:ds], atol=1e-11)
        assert_allclose(out.cov, evolved.cov[:ds, :ds], atol=1e-11)


def test_reduce_output_is_cptp_with_psd_noise(rng):
    for _ in range(50):
        setup = random_joint_setup(rng, dt=float(rng.uniform(0.02, 0.5)))
        channel = reduce_from_joint(setup)
        assert is_cptp(channel, tol=1e-9).ok
        assert_allclose(channel.R, channel.R.T, atol=1e-13)
        assert np.linalg.eigvalsh(channel.R).min() >= -1e-12


def test_fresh_ancilla_composition_differs_from_continued_contact(rng):
    # two fresh collisions != one joint evolution of twice the duration
    setup = random_joint_setup(rng, n_sys=1, n_anc=1, scale=0.8, dt=0.4)
    step = reduce_from_joint(setup)
    two_fresh = compose(step, step)
    continued = reduce_from_joint(setup, dt=0.8)
    assert np.abs(two_fresh.R - continued.R).max() > 1e-4


def test_channel_taylor_structure(rng):
    setup = random_joint_setup(rng)
    t_list, d_list, r_list = channel_taylor(setup, 4)
    omega_s = symplectic_form(setup.n_sys)
    assert_allclose(t_list[0], np.eye(2 * setup.n_sys))
    assert_allclose(d_list[0], np.zeros(2 * setup.n_sys))
    assert_allclose(r_list[0], np.zeros((2 * setup.n_sys,) * 2))
    assert_allclose(t_list[1], omega_s @ setup.F_S, atol=1e-14)
    assert_allclose(r_list[1], np.zeros_like(r_list[1]), atol=1e-16)
    with pytest.raises(ValueError):
        channel_taylor(setup, 5)


@pytest.mark.parametrize(
    "order,steps",
    [(1, (0.02, 0.01, 0.005)), (2, (0.02, 0.01, 0.005)), (3, (0.04, 0.02, 0.01)), (4, (0.08, 0.04, 0.02))],
)
def test_channel_taylor_remainder_scaling(rng, order, steps):
    # truncation error must shrink like dt^(order+1)
    setup = random_joint_setup(rng, n_sys=1, n_anc=1, scale=0.8)
    t_list, d_list, r_list = channel_taylor(setup, order)
    residuals = []
    for dt in steps:
        channel = reduce_from_joint(setup, dt=dt)
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
    states = trajectory(channel, state, 7)
    assert len(states) == 8


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
    # the stacked-array steps keep apply's arithmetic, so they agree bit for bit
    channel = make_channel()
    n = channel.T.shape[0]
    state = GaussianState(mean=np.linspace(-0.5, 0.5, n), cov=1.5 * np.eye(n))
    states = trajectory(channel, state, 300)
    assert len(states) == 301
    reference = state
    for got in states[1:]:
        reference = apply(channel, reference)
        assert np.array_equal(got.mean, reference.mean)
        assert np.array_equal(got.cov, reference.cov)


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
    with pytest.raises(DimensionMismatchError):
        JointSetup(F_S=np.eye(2), F_A=np.eye(2), G=np.zeros((2, 4)))


def test_channel_json_round_trip(rng):
    channel = reduce_from_joint(random_joint_setup(rng))
    again = GaussianChannel.from_dict(channel.to_dict())
    assert_allclose(again.T, channel.T)
    assert_allclose(again.d, channel.d)
    assert_allclose(again.R, channel.R)


def test_apply_dimension_mismatch(rng):
    channel = identity_channel(2)
    state = GaussianState(mean=np.zeros(2), cov=np.eye(2))
    with pytest.raises(DimensionMismatchError):
        apply(channel, state)
