import ast
import json
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import rapidgauss
from rapidgauss.channels import (
    GaussianChannel,
    JointSetup,
    apply,
    apply_runs,
    channel_power,
    identity_channel,
    is_cptp,
    reduce_from_joint,
)
from rapidgauss.cli import _write_trajectory, main
from rapidgauss.errors import BranchCutError, SingularMatrixError
from rapidgauss.interpolation import (
    EIGENBASIS_COND_MAX,
    LIFT_NORM_MAX,
    Generators,
    channel_lift,
    cp_differential_check,
    gap_runs,
    generators_from_channel,
    propagate,
)
from rapidgauss.linalg import mat_exp
from rapidgauss.phasespace import GaussianState, symplectic_form
from rapidgauss.sampling import random_joint_setup, random_state_cov
from rapidgauss.thermalization import (
    OscillatorBathSetup,
    decompose_cov,
    first_order_generators,
    ladder_coupling,
    rwa_coupling,
    to_joint_setup,
)

from helpers import (
    apply_loop,
    central_difference,
    fresh_python,
    gap_channels,
    gauss_legendre_integral,
    logm_div_series,
    master_rhs,
    noiseless_flow,
    random_generators,
    row_errors,
    two_lift_generators,
    two_lift_propagate,
)

OMEGA2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _same_channel(a, b):
    # equal arrays of equal bits, signs of zero included
    return all(getattr(a, k).tobytes() == getattr(b, k).tobytes() for k in "TdR")


def test_channel_lift_is_the_block_matrix_and_stacks_member_by_member(rng):
    for n in (2, 4, 6):
        top = rng.normal(size=(3, 2, n, 2 * n + 1))
        forward = rng.normal(size=(3, 2, n, n))
        for corner in (0.0, 1.0):
            lifts = channel_lift(top, forward, corner)
            assert lifts.shape == (3, 2, 2 * n + 1, 2 * n + 1)
            for i in np.ndindex(3, 2):
                one = channel_lift(top[i], forward[i], corner)
                want = np.block([
                    [top[i]],
                    [np.zeros((n, n)), forward[i].T, np.zeros((n, 1))],
                    [np.zeros((1, 2 * n)), np.full((1, 1), corner)],
                ])
                assert one.tobytes() == want.tobytes()
                assert lifts[i].tobytes() == one.tobytes()


def test_propagate_is_the_power_of_its_short_step_bit_for_bit(rng):
    # t chosen so that propagate takes exactly k squarings of the channel
    # over t / 2^k; channel_power takes the same squarings through compose
    for n_modes in (1, 2):
        gen = random_generators(rng, n_modes)
        norm = np.abs(symplectic_form(n_modes) @ gen.A).sum(axis=0).max()
        for k in range(7):
            t = 0.75 * LIFT_NORM_MAX / norm * 2**k
            short = propagate(gen, t / 2**k)
            assert _same_channel(propagate(gen, t), channel_power(short, 2**k))


def test_evolve_runs_are_the_gap_runs_of_the_row_indices(rng):
    # evolve hands over [(identity, 1), (channel over one row, rows - 1)],
    # the runs gap_runs finds on the row indices 0..steps * substeps
    gen = generators_from_channel(reduce_from_joint(random_joint_setup(rng, dt=0.2)), 0.2)
    for steps, substeps in ((1, 1), (40, 1), (3, 7), (40, 10)):
        unit = 0.2 / substeps
        found = list(gap_runs(gen, range(steps * substeps + 1), unit))
        explicit = [(identity_channel(gen.n_modes), 1), (propagate(gen, unit), steps * substeps)]
        assert [count for _, count in found] == [count for _, count in explicit]
        assert all(_same_channel(a, b) for (a, _), (b, _) in zip(found, explicit))
        cov, mean = random_state_cov(rng, gen.n_modes), rng.normal(size=2 * gen.n_modes)
        got, want = apply_runs(explicit, mean, cov), apply_runs(found, mean, cov)
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


def test_generators_invert_pure_hamiltonian_flow(rng):
    f = rng.uniform(-1, 1, (4, 4))
    f, alpha = (f + f.T) / 2, rng.uniform(-1, 1, 4)
    dt = 0.05
    gens = generators_from_channel(noiseless_flow(f, dt, alpha), dt)
    assert_allclose(gens.A, f, atol=1e-11)
    assert_allclose(gens.b, alpha, atol=1e-11)
    assert_allclose(gens.C, np.zeros((4, 4)), atol=1e-13)


def test_generators_of_identity_channel():
    gens = generators_from_channel(identity_channel(2), 0.1)
    assert_allclose(gens.A, np.zeros((4, 4)))
    assert_allclose(gens.b, np.zeros(4))
    assert_allclose(gens.C, np.zeros((4, 4)))


def test_round_trip_channel_to_generators(rng):
    for _ in range(20):
        setup = random_joint_setup(rng, dt=float(rng.uniform(0.02, 0.2)))
        channel = reduce_from_joint(setup)
        gens = generators_from_channel(channel, setup.dt)
        back = propagate(gens, setup.dt)
        assert_allclose(back.T, channel.T, atol=1e-9)
        assert_allclose(back.d, channel.d, atol=1e-9)
        assert_allclose(back.R, channel.R, atol=1e-9)


def test_propagate_zero_time_is_identity(rng):
    gens = random_generators(rng, 2)
    channel = propagate(gens, 0.0)
    assert_allclose(channel.T, np.eye(4))
    assert_allclose(channel.d, np.zeros(4), atol=1e-16)
    assert_allclose(channel.R, np.zeros((4, 4)), atol=1e-16)


def test_negative_times_and_steps_are_rejected(rng):
    with pytest.raises(ValueError, match="t must be nonnegative"):
        propagate(random_generators(rng, 1), -0.1)
    channel = reduce_from_joint(random_joint_setup(rng, dt=0.1))
    for dt in (0.0, -0.1):
        with pytest.raises(ValueError, match="dt must be positive"):
            generators_from_channel(channel, dt)


def test_propagate_unitary_matches_hamiltonian_flow(rng):
    f = rng.uniform(-1, 1, (4, 4))
    f, alpha = (f + f.T) / 2, rng.uniform(-1, 1, 4)
    gens = Generators(A=f, b=alpha, C=np.zeros((4, 4)))
    t = 0.9
    channel = propagate(gens, t)
    flow = noiseless_flow(f, t, alpha)
    assert_allclose(channel.T, flow.T, atol=1e-12)
    assert_allclose(channel.d, flow.d, atol=1e-12)
    assert_allclose(channel.R, np.zeros((4, 4)), atol=1e-14)


def test_propagate_derivative_matches_master_equation(rng):
    # d/dt of the flowed state equals the master-equation right-hand side
    gens = random_generators(rng, 2, scale=0.5)
    state = GaussianState(mean=rng.uniform(-1, 1, 4), cov=random_state_cov(rng, 2))

    def mean_at(t):
        ch = propagate(gens, t)
        return ch.T @ state.mean + ch.d

    def cov_at(t):
        ch = propagate(gens, t)
        return ch.T @ state.cov @ ch.T.T + ch.R

    t0 = 0.4
    ch = propagate(gens, t0)
    there = GaussianState(
        mean=ch.T @ state.mean + ch.d,
        cov=ch.T @ state.cov @ ch.T.T + ch.R,
    )
    dmean, dcov = master_rhs(gens, there)
    assert_allclose(central_difference(mean_at, t0), dmean, atol=1e-6)
    assert_allclose(central_difference(cov_at, t0), dcov, atol=1e-6)


def test_master_rhs_special_cases():
    zero = Generators(A=np.zeros((2, 2)), b=np.zeros(2), C=np.zeros((2, 2)))
    state = GaussianState(mean=np.array([1.0, 2.0]), cov=3.0 * np.eye(2))
    dmean, dcov = master_rhs(zero, state)
    assert_allclose(dmean, np.zeros(2))
    assert_allclose(dcov, np.zeros((2, 2)))

    pure_noise = Generators(A=np.zeros((2, 2)), b=np.zeros(2), C=np.eye(2))
    vacuum = GaussianState(mean=np.zeros(2), cov=np.eye(2))
    dmean, dcov = master_rhs(pure_noise, vacuum)
    assert_allclose(dmean, np.zeros(2))
    assert_allclose(dcov, np.eye(2))


def test_master_rhs_unitary_reduction(rng):
    f = rng.uniform(-1, 1, (2, 2))
    f, alpha = (f + f.T) / 2, rng.uniform(-1, 1, 2)
    gens = Generators(A=f, b=alpha, C=np.zeros((2, 2)))
    state = GaussianState(mean=rng.uniform(-1, 1, 2), cov=2.0 * np.eye(2))
    omega = symplectic_form(1)
    dmean, dcov = master_rhs(gens, state)
    assert_allclose(dmean, omega @ (f @ state.mean + alpha), atol=1e-14)
    gen = omega @ f
    assert_allclose(dcov, gen @ state.cov + state.cov @ gen.T, atol=1e-14)


def test_cp_differential_check_cases():
    unitary = Generators(A=np.diag([1.0, 2.0]), b=np.zeros(2), C=np.zeros((2, 2)))
    res = cp_differential_check(unitary)
    assert res.ok and res.margin == pytest.approx(0.0, abs=1e-14)

    # amplification balanced by enough thermal noise stays completely positive
    det_g = 0.04
    nu_a = 1.7
    g = 0.2 * np.eye(2)
    balanced = Generators(
        A=0.5 * det_g * OMEGA2,
        b=np.zeros(2),
        C=nu_a * OMEGA2 @ g @ g.T @ OMEGA2.T,
    )
    res = cp_differential_check(balanced)
    assert res.ok
    assert res.margin == pytest.approx(det_g * (nu_a - 1.0), rel=1e-10)

    bare = Generators(A=0.3 * OMEGA2, b=np.zeros(2), C=np.zeros((2, 2)))
    res = cp_differential_check(bare)
    assert not res.ok
    assert res.margin == pytest.approx(-0.6, abs=1e-12)


def test_cp_check_implies_psd_noise(rng):
    for _ in range(200):
        gens = random_generators(rng, 1, scale=0.8)
        if cp_differential_check(gens).ok:
            assert np.linalg.eigvalsh((gens.C + gens.C.T) / 2).min() >= -1e-9


def test_stroboscopic_exactness(rng):
    # interpolated channel == n-fold discrete composition at t = n dt
    for _ in range(10):
        setup = random_joint_setup(rng, dt=float(rng.uniform(0.02, 0.15)))
        channel = reduce_from_joint(setup)
        gens = generators_from_channel(channel, setup.dt)
        for n in (1, 3, 12, 20):
            target = channel_power(channel, n)
            interp = propagate(gens, n * setup.dt)
            assert np.abs(interp.T - target.T).max() < 1e-8
            assert np.abs(interp.d - target.d).max() < 1e-8
            assert np.abs(interp.R - target.R).max() < 1e-8


def test_stroboscopic_exactness_beyond_quarter_turn(rng):
    # T with an eigenvalue of |arg| in (pi/2, pi): Log(T x T) leaves the branch
    # of Log(T) + Log(T), but the lifted generators stay exact
    found = 0
    while found < 12:
        n_modes = 1 + found % 2
        setup = random_joint_setup(
            rng, n_sys=n_modes, n_anc=n_modes, dt=float(rng.uniform(1.0, 4.0))
        )
        channel = reduce_from_joint(setup)
        angle = np.abs(np.angle(np.linalg.eigvals(channel.T))).max()
        if not np.pi / 2 < angle < 0.98 * np.pi:
            continue
        found += 1
        gens = generators_from_channel(channel, setup.dt)
        for n in (1, 3, 7):
            target = channel_power(channel, n)
            interp = propagate(gens, n * setup.dt)
            for got, want in ((interp.T, target.T), (interp.d, target.d), (interp.R, target.R)):
                assert np.abs(got - want).max() <= 1e-9 * max(1.0, np.abs(want).max())


def test_generator_convergence_in_dt(rng):
    # generators at dt and dt/2 differ by O(dt)
    setup = random_joint_setup(rng, n_sys=1, n_anc=1, scale=0.6)
    ratios = []
    for dt in (0.2, 0.1, 0.05):
        g1 = generators_from_channel(reduce_from_joint(replace(setup, dt=dt)), dt)
        g2 = generators_from_channel(reduce_from_joint(replace(setup, dt=dt / 2)), dt / 2)
        diff = max(
            np.abs(g1.A - g2.A).max(),
            np.abs(g1.b - g2.b).max(),
            np.abs(g1.C - g2.C).max(),
        )
        ratios.append(diff / dt)
    assert max(ratios) < 10 * min(ratios)


def test_semigroup_positivity(rng):
    # a generator passing the differential test yields CPTP channels for all t
    for _ in range(10):
        setup = random_joint_setup(rng, dt=0.05)
        channel = reduce_from_joint(setup)
        gens = generators_from_channel(channel, setup.dt)
        if cp_differential_check(gens).margin < -1e-12:
            continue
        for t in np.linspace(0.01, 2.0, 8):
            assert is_cptp(propagate(gens, t)).ok


def test_noise_flow_matches_quadrature(rng):
    # R(t) from propagate vs direct integration of e^{As} C e^{A^T s}
    for _ in range(5):
        gens = random_generators(rng, 1, scale=0.8)
        omega = symplectic_form(1)
        drift = omega @ gens.A
        t_end = float(rng.uniform(0.3, 1.5))

        def integrand(s):
            e = mat_exp(drift * s)
            return e @ gens.C @ e.T

        expected = gauss_legendre_integral(integrand, 0.0, t_end)
        got = propagate(gens, t_end).R
        assert_allclose(got, expected, atol=1e-10)


def test_drift_generator_cross_check_via_embedding(rng):
    # production route (Log of the affine embedding) vs the divided-difference
    # series: Omega b = [Log(T)/(T - 1)] d / dt
    for _ in range(10):
        setup = random_joint_setup(rng, dt=float(rng.uniform(0.03, 0.2)))
        channel = reduce_from_joint(setup)
        gens = generators_from_channel(channel, setup.dt)
        omega = symplectic_form(channel.n_modes)
        alt = -omega @ logm_div_series(channel.T) @ channel.d / setup.dt
        assert_allclose(gens.b, alt, atol=1e-9)


def test_branch_cut_surfaces_for_large_steps():
    # a half-turn per step puts the eigenvalues of T exactly on the cut
    channel = noiseless_flow(np.eye(2), np.pi)
    with pytest.raises(BranchCutError):
        generators_from_channel(channel, np.pi)


def test_singular_transfer_matrix_raises():
    # T^-1 enters the lift, so a singular T has no generators; a subnormal
    # pivot inverts to inf and counts as singular too
    for tiny in (0.0, 1e-310):
        channel = GaussianChannel(T=np.diag([1.0, tiny]), d=np.zeros(2), R=np.eye(2))
        with pytest.raises(SingularMatrixError):
            generators_from_channel(channel, 1.0)


def _oracle_channels(rng, plain=24, wide=8):
    """(channel, dt) of random setups with 1-4 system and 1-4 ancilla modes:
    `plain` draws whose T has every eigenvalue within a quarter turn,
    `wide` with the largest |arg mu| in (pi/2, 0.98 pi)."""
    found = {False: [], True: []}
    while len(found[False]) < plain or len(found[True]) < wide:
        n_sys, n_anc = (int(k) for k in rng.integers(1, 5, 2))
        dt = float(rng.uniform(0.02, 4.0))
        setup = random_joint_setup(rng, n_sys=n_sys, n_anc=n_anc, dt=dt)
        channel = reduce_from_joint(setup)
        angle = np.abs(np.angle(np.linalg.eigvals(channel.T))).max()
        if angle < 0.98 * np.pi:
            found[angle > np.pi / 2].append((channel, dt))
    return found[False][:plain] + found[True][:wide]


def _assert_entrywise_close(got, want, rtol=1e-10):
    assert np.all(np.abs(got - want) <= rtol * np.maximum(1.0, np.abs(want)))


def test_generators_match_the_two_lift_oracle(rng):
    for channel, dt in _oracle_channels(rng):
        got, want = generators_from_channel(channel, dt), two_lift_generators(channel, dt)
        for g, w in ((got.A, want.A), (got.b, want.b), (got.C, want.C)):
            _assert_entrywise_close(g, w)


def _damped_modes(rng, n_modes):
    # exchange couplings with a thermal ancilla relax every mode
    setup = JointSetup(
        F_S=np.eye(2 * n_modes) + 0.3 * random_state_cov(rng, n_modes),
        F_A=np.eye(2 * n_modes),
        G=0.5 * np.eye(2 * n_modes),
        alpha_S=rng.uniform(-1, 1, 2 * n_modes),
        sigma_A0=random_state_cov(rng, n_modes),
        dt=0.1,
    )
    channel = reduce_from_joint(setup)
    assert np.abs(np.linalg.eigvals(channel.T)).max() < 1
    return generators_from_channel(channel, setup.dt)


def test_propagate_matches_the_two_lift_oracle(rng):
    # the same generators through one exponential or two: at a few
    # collisions for random setups, and out to t = 1e4 for relaxing ones
    runs = [(two_lift_generators(ch, dt), (0.0, dt, 7 * dt)) for ch, dt in _oracle_channels(rng)]
    long_times = (0.37, 10.0, 1e2, 1e3, 1e4)
    runs += [(_damped_modes(rng, n), long_times) for n in (1, 2, 3, 4)]
    runs += [(_damped_one_mode(), long_times), (_heating_one_mode(), long_times)]
    for gen, times in runs:
        for t in times:
            got, want = propagate(gen, t), two_lift_propagate(gen, t)
            for g, w in ((got.T, want.T), (got.d, want.d), (got.R, want.R)):
                _assert_entrywise_close(g, w)


@pytest.mark.parametrize("g", [1e-2, 1e-4, 1e-6])
def test_weak_ladder_bath_noise_is_relatively_exact(g):
    # a nearly symplectic T: the noise R, of order g^2, is held to its own size
    bath = OscillatorBathSetup(E_S=1.0, E_A=1.3, nu_A=3.0, G=ladder_coupling(g, 0.3 * g), dt=0.1)
    channel = reduce_from_joint(to_joint_setup(bath))
    gen = generators_from_channel(channel, bath.dt)
    for n in (1, 3, 7):
        got, want = propagate(gen, n * bath.dt).R, channel_power(channel, n).R
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("nu_a", [1e7, 1e60, 1e150, 1e300])
def test_hot_bath_strobes_are_exact_relative_to_the_noise(nu_a):
    # W R W^T carries the scale of R into C, and propagate's balanced lift
    # carries it back out, so nothing depends on nu_A but the noise itself
    bath = OscillatorBathSetup(E_S=1.0, E_A=1.0, nu_A=nu_a, G=rwa_coupling(0.3, 0.0), dt=0.1)
    channel = reduce_from_joint(to_joint_setup(bath))
    gen = generators_from_channel(channel, bath.dt)
    got, want = propagate(gen, 7 * bath.dt), channel_power(channel, 7)
    assert np.abs(got.R - want.R).max() <= 1e-14 * np.abs(want.R).max()
    assert np.abs(got.T - want.T).max() <= 1e-14


@pytest.mark.parametrize("eps", [1e-6, 1e-8, 1e-10])
def test_a_nearly_defective_t_meets_its_strobes_through_the_schur_route(eps):
    # a nearly free, weakly damped mode: cond(V) of T is 1e3 to 5e4, where
    # the eigenbasis would lose about eps * cond(V)^2, up to 1e-7
    setup = JointSetup(
        F_S=np.diag([1.0, eps]), F_A=np.eye(2), G=1e-3 * np.array([[1.0, 0.3], [0.2, 0.5]]),
        alpha_S=np.array([0.3, -0.1]), sigma_A0=2.0 * np.eye(2), dt=0.1,
    )
    channel = reduce_from_joint(setup)
    assert np.linalg.cond(np.linalg.eig(channel.T)[1]) > 1e3
    gen = generators_from_channel(channel, setup.dt)
    for n in (1, 3, 7):
        got, want = propagate(gen, n * setup.dt), channel_power(channel, n)
        for g, w in ((got.T, want.T), (got.d, want.d), (got.R, want.R)):
            assert np.abs(g - w).max() <= 1e-13 * np.abs(w).max()


@pytest.mark.parametrize("nu", [1e100, 1e200, 1e300])
def test_a_damped_jordan_block_with_large_noise_takes_a_balanced_schur_log(nu):
    # a Jordan block in T goes to linalg.mat_log of the lift, whose R and d
    # enter scaled by powers of two to the size of T: the Log neither warns
    # nor overflows, and one propagate gives the channel back
    jordan = np.array([[0.5, 0.3], [0.0, 0.5]])
    channel = GaussianChannel(T=jordan, d=nu * np.array([1.0, -0.5]), R=nu * np.eye(2))
    assert np.linalg.cond(np.linalg.eig(jordan)[1]) > EIGENBASIS_COND_MAX
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        again = propagate(generators_from_channel(channel, 0.1), 0.1)
    assert np.abs(again.T - jordan).max() <= 1e-14 * np.abs(jordan).max()
    for g, w in ((again.d, channel.d), (again.R, channel.R)):
        assert np.abs(g - w).max() <= 1e-14 * nu


def test_random_near_jordan_channels_meet_their_strobes(rng):
    # a block [[lam, a], [delta, lam]] with delta down to 1e-14, in a random
    # basis of condition at most 4, puts cond(V) of T past
    # EIGENBASIS_COND_MAX.  mat_log updates E = X^(1/2^s) - I by a solve at
    # each root rather than forming it, or these strobes lose a digit.
    reached = 0
    while reached < 24:
        n = 2 * int(rng.integers(1, 4))
        jordan = np.diag(rng.uniform(0.3, 1.5, n))
        lam = rng.uniform(0.3, 1.5)
        jordan[:2, :2] = [[lam, rng.uniform(0.2, 2.0)], [10.0 ** rng.uniform(-14, -4), lam]]
        basis = np.linalg.qr(rng.normal(size=(n, n)))[0] * rng.uniform(0.5, 2.0, n)
        t = basis @ jordan @ np.linalg.inv(basis)
        if np.linalg.cond(np.linalg.eig(t)[1]) <= EIGENBASIS_COND_MAX:
            continue
        reached += 1
        noise = rng.normal(size=(n, n))
        channel = GaussianChannel(T=t, d=rng.normal(size=n), R=noise @ noise.T)
        gen = generators_from_channel(channel, 0.1)
        for k in (1, 3, 7):
            got, want = propagate(gen, k * 0.1), channel_power(channel, k)
            for g, w in ((got.T, want.T), (got.d, want.d), (got.R, want.R)):
                assert np.abs(g - w).max() <= 1e-13 * np.abs(w).max()


def test_no_module_of_the_package_imports_scipy():
    modules = sorted(Path(rapidgauss.__file__).parent.glob("*.py"))
    assert len(modules) > 10
    for module in modules:
        for node in ast.walk(ast.parse(module.read_text(), str(module))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(name.split(".")[0] == "scipy" for name in names), module.name


def test_one_log_and_one_exponential_of_one_lift(rng, monkeypatch):
    # the generators take one eigendecomposition of the 2N x 2N T and no
    # logarithm of the lift; each propagate takes one exponential of it
    import rapidgauss.interpolation as interpolation

    calls = []

    def counting(name, kernel):
        return lambda m: calls.append((name, m.shape)) or kernel(m)

    monkeypatch.setattr(interpolation, "mat_exp", counting("mat_exp", interpolation.mat_exp))
    monkeypatch.setattr(np.linalg, "eig", counting("eig", np.linalg.eig))
    monkeypatch.setattr(interpolation, "read_generators", counting("read_generators", None))
    monkeypatch.setattr(interpolation, "mat_log", counting("mat_log", None))
    setup = random_joint_setup(rng, n_sys=3, n_anc=2, dt=0.3)
    channel = reduce_from_joint(setup)
    calls.clear()
    gen = generators_from_channel(channel, setup.dt)
    assert calls == [("eig", (6, 6))]
    for t in (0.0, 0.3, 30.0):  # 30 takes doublings
        calls.clear()
        propagate(gen, t)
        assert calls == [("mat_exp", (13, 13))]


def _damped_one_mode():
    bath = OscillatorBathSetup(
        E_S=1.3, E_A=0.8, nu_A=2.0, G=np.array([[0.3, 0.1], [-0.1, 0.2]]), dt=0.05
    )
    return first_order_generators(bath)


def _heating_one_mode():
    # det G = 0: no fixed point, the covariance grows without bound
    bath = OscillatorBathSetup(E_S=1.0, E_A=1.0, nu_A=3.0, G=np.diag([0.1, 0.0]), dt=0.05)
    return first_order_generators(bath)


def _damped_two_mode():
    f_s = np.array(
        [[1.1, 0.2, 0.1, 0.0], [0.2, 0.9, 0.0, 0.1], [0.1, 0.0, 1.4, 0.3], [0.0, 0.1, 0.3, 1.2]]
    )
    setup = JointSetup(
        F_S=f_s,
        F_A=np.eye(4),
        G=0.6 * np.eye(4),
        alpha_S=np.array([0.3, -0.1, 0.2, 0.0]),
        sigma_A0=2.0 * np.eye(4),
        dt=0.05,
    )
    return generators_from_channel(reduce_from_joint(setup), setup.dt)


FLOW_GRIDS = {
    "uniform": [k * 0.05 / 10 for k in range(401)],
    "thermalize": list(np.unique(np.linspace(0, 4000, 401).round()) * 0.05),
    "repeated": [0.0, 0.0, 0.1, 0.1, 0.1, 0.35, 0.35, 1.0, 1.0],
    "heating_horizons": [0.0, 1e3, 1e4, 1e5],
}


@pytest.mark.parametrize("grid", sorted(FLOW_GRIDS))
@pytest.mark.parametrize("make_gen", [_damped_one_mode, _heating_one_mode, _damped_two_mode])
def test_flow_states_match_propagation_from_the_start(grid, make_gen):
    # the flow's states at the times: the runs of gap_runs, applied in turn
    gen = make_gen()
    n = 2 * gen.n_modes
    state0 = GaussianState(mean=np.linspace(-0.5, 0.5, n), cov=1.5 * np.eye(n))
    times = FLOW_GRIDS[grid]
    means, covs = apply_runs(gap_runs(gen, times), state0.mean, state0.cov)
    assert len(means) == len(times)
    for t, mean, cov in zip(times, means, covs):
        direct = apply(propagate(gen, t), state0)
        for got, want in ((mean, direct.mean), (cov, direct.cov)):
            assert np.all(np.abs(got - want) <= 1e-10 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("grid", ["uniform", "thermalize"])
@pytest.mark.parametrize("make_gen", [_damped_one_mode, _damped_two_mode])
def test_flow_states_equal_a_loop_of_apply(grid, make_gen):
    # state doubling reassociates the products, so rows agree to rounding
    gen = make_gen()
    n = 2 * gen.n_modes
    state = GaussianState(mean=np.linspace(-0.5, 0.5, n), cov=1.5 * np.eye(n))
    times = FLOW_GRIDS[grid]
    got = apply_runs(gap_runs(gen, times), state.mean, state.cov)
    want, previous = [], 0.0
    for t in times:
        state = apply(propagate(gen, t - previous), state)
        want.append(state)
        previous = t
    moments = lambda states: (np.array([s.mean for s in states]), np.array([s.cov for s in states]))
    assert row_errors(got, moments(want)).max() <= 1e-12


def test_flow_states_reject_decreasing_times():
    state0 = GaussianState(mean=np.zeros(2), cov=np.eye(2))
    with pytest.raises(ValueError, match="times must be nondecreasing"):
        apply_runs(gap_runs(_damped_one_mode(), [0.0, 1.0, 0.5]), state0.mean, state0.cov)


def _distinct_gaps(times):
    return len({t - s for s, t in zip([0.0] + list(times), times)})


def test_cli_trajectories_propagate_once_per_distinct_gap(tmp_path, monkeypatch, capsys):
    calls = []

    def counting(gen, t):
        calls.append(t)
        return propagate(gen, t)

    monkeypatch.setattr("rapidgauss.interpolation.propagate", counting)
    monkeypatch.setattr("rapidgauss.cli.propagate", counting)
    dt = 0.37
    setup = {"kind": "oscillator_bath", "E_S": 1.2, "E_A": 1.0, "nu_A": 2.0,
             "G": {"rwa": {"g1": 0.3, "gw": 0.1}}}
    runs = [
        ("evolve", {"steps": 40, "substeps": 10, "mode": "interpolated"},
         [k * dt / 10 for k in range(401)]),
        ("thermalize", {"steps": 4000, "max_rows": 401},
         [int(n) * dt for n in np.unique(np.linspace(0, 4000, 401).round().astype(int))]),
    ]
    for command, extra, grid in runs:
        calls.clear()
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(dict({"setup": setup, "dt": dt}, **extra)))
        out = tmp_path / f"{command}.csv"
        assert main([command, "--config", str(path), "--out", str(out)]) == 0
        assert len(grid) == 401
        assert 0 < len(calls) <= _distinct_gaps(grid) <= 16
    capsys.readouterr()


_CLI_BATH = {"kind": "oscillator_bath", "E_S": 1.2, "E_A": 1.0, "nu_A": 2.0,
             "G": {"rwa": {"g1": 0.3, "gw": 0.1}}}


def test_cli_trajectories_propagate_once_per_step_size(tmp_path, monkeypatch, capsys):
    # on an evenly spaced grid every row is carried by the one-step channel,
    # so a run needs the channel over one step; the first row, over no
    # time, is carried by the identity
    calls = []

    def counting(gen, t):
        calls.append(t)
        return propagate(gen, t)

    monkeypatch.setattr("rapidgauss.interpolation.propagate", counting)
    monkeypatch.setattr("rapidgauss.cli.propagate", counting)
    runs = [
        ("evolve", {"steps": 40, "substeps": 10, "mode": "interpolated"}),
        ("evolve", {"steps": 400, "mode": "both"}),
        ("thermalize", {"steps": 4000, "max_rows": 401}),
    ]
    for command, extra in runs:
        calls.clear()
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(dict({"setup": _CLI_BATH, "dt": 0.37}, **extra)))
        out = tmp_path / f"{command}.csv"
        assert main([command, "--config", str(path), "--out", str(out)]) == 0
        assert len(calls) == 1
    capsys.readouterr()


def _loop_rows(channels):
    # CSV state columns of the flow from the vacuum, the channels applied by
    # the per-row loop
    _, covs = apply_loop(channels, np.zeros(2), np.eye(2))
    coeffs = decompose_cov(covs)
    return np.column_stack([coeffs.nu, coeffs.s_cross, coeffs.s_plus, 1.0 / np.linalg.det(covs)])


def _bath_rows(gen, step, count):
    # one step channel per row
    return _loop_rows([propagate(gen, 0.0)] + [propagate(gen, step)] * (count - 1))


def _read_rows(path):
    # 17 significant digits read back to the same doubles
    lines = path.read_text().splitlines()[1:]
    return np.array([[float(x) for x in line.split(",")] for line in lines])


def test_cli_trajectory_rows_are_the_one_step_channel_repeated(tmp_path, monkeypatch, capsys):
    # strings of 128 rows of 5 columns, and blocks of as many rows, so the
    # 211 and 401 rows cross block boundaries
    monkeypatch.setattr("rapidgauss.cli.BLOCK_VALUES", 128 * 5)
    dt, steps, substeps = 0.37, 30, 7
    bath = OscillatorBathSetup(E_S=1.2, E_A=1.0, nu_A=2.0, G=rwa_coupling(0.3, 0.1), dt=dt)

    cfg = tmp_path / "evolve.json"
    cfg.write_text(json.dumps({"setup": _CLI_BATH, "dt": dt, "steps": steps,
                               "mode": "interpolated", "substeps": substeps}))
    out = tmp_path / "evolve.csv"
    assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
    rows = _read_rows(out)
    gen = generators_from_channel(reduce_from_joint(to_joint_setup(bath)), dt)
    count = steps * substeps + 1
    assert rows[:, 0].tolist() == [k * dt / substeps for k in range(count)]
    assert row_errors(rows[:, 1:], _bath_rows(gen, dt / substeps, count)).max() <= 1e-12

    cfg = tmp_path / "thermalize.json"
    cfg.write_text(json.dumps({"setup": _CLI_BATH, "dt": dt, "steps": 4000, "max_rows": 401}))
    out = tmp_path / "thermalize.csv"
    assert main(["thermalize", "--config", str(cfg), "--out", str(out)]) == 0
    rows = _read_rows(out)
    assert rows[:, 0].tolist() == [int(n) * dt for n in range(0, 4001, 10)]
    want = _bath_rows(first_order_generators(bath), 10 * dt, 401)
    assert row_errors(rows[:, 1:], want).max() <= 1e-12
    capsys.readouterr()


def test_cli_evolve_bytes_are_those_of_the_gap_runs_of_the_row_indices(tmp_path, capsys):
    # evolve names its runs; the CSV is the one that gap_runs on the row
    # indices 0..steps * substeps gives through the same writer
    dt, steps, substeps = 0.37, 30, 7
    bath = OscillatorBathSetup(E_S=1.2, E_A=1.0, nu_A=2.0, G=rwa_coupling(0.3, 0.1), dt=dt)
    channel = reduce_from_joint(to_joint_setup(bath))
    gen = generators_from_channel(channel, dt)
    for mode, sub in (("interpolated", substeps), ("both", 1)):
        cfg = tmp_path / f"{mode}.json"
        cfg.write_text(json.dumps({"setup": _CLI_BATH, "dt": dt, "steps": steps,
                                   "mode": mode, "substeps": substeps}))
        out = tmp_path / f"{mode}.csv"
        assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
        count = steps * sub + 1
        trajectories = [gap_runs(gen, range(count), unit=dt / sub)]
        if mode == "both":
            trajectories.insert(0, [(identity_channel(1), 1), (channel, steps)])
        times = lambda first, stop: np.arange(first, stop) * dt / sub
        # the bath's columns, from the vacuum
        want = tmp_path / f"{mode}_gap_runs.csv"
        _write_trajectory(want, "oscillator_bath", count, times, np.zeros(2), np.eye(2), trajectories)
        assert out.read_bytes() == want.read_bytes()
    capsys.readouterr()


def test_cli_thermalize_rows_on_an_uneven_grid_match_the_per_row_loop(tmp_path, capsys):
    # 1000 steps over 301 rows: gaps of 3 and 4 collisions, so the channel
    # changes every one or two rows
    dt = 0.37
    bath = OscillatorBathSetup(E_S=1.2, E_A=1.0, nu_A=2.0, G=rwa_coupling(0.3, 0.1), dt=dt)
    cfg = tmp_path / "thermalize.json"
    cfg.write_text(json.dumps({"setup": _CLI_BATH, "dt": dt, "steps": 1000, "max_rows": 301}))
    out = tmp_path / "thermalize.csv"
    assert main(["thermalize", "--config", str(cfg), "--out", str(out)]) == 0
    rows = _read_rows(out)
    marks = np.unique(np.linspace(0, 1000, 301).round().astype(int)).tolist()
    assert {b - a for a, b in zip(marks, marks[1:])} == {3, 4}
    assert rows[:, 0].tolist() == [n * dt for n in marks]
    want = _loop_rows(list(gap_channels(first_order_generators(bath), marks, unit=dt)))
    assert row_errors(rows[:, 1:], want).max() <= 1e-12
    assert json.loads(capsys.readouterr().out)["t_final"] == marks[-1] * dt


def test_a_defective_channel_reaches_the_schur_logarithm_by_its_lazy_import(tmp_path):
    # the free mode F_S = diag(1, 0) gives T = [[1, 0], [-dt, 1]], a Jordan
    # block: its eigenvector matrix has cond(V) ~ 9e15, past
    # EIGENBASIS_COND_MAX, so the generators come from linalg.mat_log of the
    # lift, and scipy is never loaded
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from rapidgauss.channels import JointSetup, reduce_from_joint\n"
        "from rapidgauss.interpolation import generators_from_channel, propagate\n"
        "setup = JointSetup(F_S=np.diag([1.0, 0.0]), F_A=np.eye(2), G=np.zeros((2, 2)),\n"
        "                   alpha_S=np.array([0.3, -0.1]), dt=0.1)\n"
        "channel = reduce_from_joint(setup)\n"
        "gen = generators_from_channel(channel, setup.dt)\n"
        "again = propagate(gen, setup.dt)\n"
        "err = max(np.abs(getattr(again, k) - getattr(channel, k)).max() for k in 'TdR')\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'), err)\n"
    )
    loaded, err = fresh_python(code, tmp_path).split()
    assert loaded == "[]"
    assert float(err) <= 1e-14
