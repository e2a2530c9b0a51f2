import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rapidgauss.channels import (
    GaussianChannel,
    JointSetup,
    apply,
    channel_power,
    identity_channel,
    is_cptp,
    reduce_from_joint,
)
from rapidgauss.cli import main
from rapidgauss.errors import BranchCutError
from rapidgauss.interpolation import (
    Generators,
    cp_differential_check,
    flow_states,
    generators_from_channel,
    master_rhs,
    propagate,
)
from rapidgauss.linalg import mat_exp
from rapidgauss.phasespace import (
    GaussianState,
    QuadraticHamiltonian,
    hamiltonian_flow,
    symplectic_form,
)
from rapidgauss.sampling import random_generators, random_joint_setup, random_state_cov
from rapidgauss.thermalization import OscillatorBathSetup, first_order_generators

from helpers import central_difference, gauss_legendre_integral, logm_div_series

OMEGA2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _flow_channel(hamiltonian, t):
    flow = hamiltonian_flow(hamiltonian, t)
    n = flow.S.shape[0]
    return GaussianChannel(T=flow.S, d=flow.d, R=np.zeros((n, n)))


def test_generators_invert_pure_hamiltonian_flow(rng):
    f = rng.uniform(-1, 1, (4, 4))
    ham = QuadraticHamiltonian(F=(f + f.T) / 2, alpha=rng.uniform(-1, 1, 4))
    dt = 0.05
    gens = generators_from_channel(_flow_channel(ham, dt), dt)
    assert_allclose(gens.A, ham.F, atol=1e-11)
    assert_allclose(gens.b, ham.alpha, atol=1e-11)
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


def test_propagate_unitary_matches_hamiltonian_flow(rng):
    f = rng.uniform(-1, 1, (4, 4))
    ham = QuadraticHamiltonian(F=(f + f.T) / 2, alpha=rng.uniform(-1, 1, 4))
    gens = Generators(A=ham.F, b=ham.alpha, C=np.zeros((4, 4)))
    t = 0.9
    channel = propagate(gens, t)
    flow = hamiltonian_flow(ham, t)
    assert_allclose(channel.T, flow.S, atol=1e-12)
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
    ham = QuadraticHamiltonian(F=(f + f.T) / 2, alpha=rng.uniform(-1, 1, 2))
    gens = Generators(A=ham.F, b=ham.alpha, C=np.zeros((2, 2)))
    state = GaussianState(mean=rng.uniform(-1, 1, 2), cov=2.0 * np.eye(2))
    omega = symplectic_form(1)
    dmean, dcov = master_rhs(gens, state)
    assert_allclose(dmean, omega @ (ham.F @ state.mean + ham.alpha), atol=1e-14)
    gen = omega @ ham.F
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
        g1 = generators_from_channel(reduce_from_joint(setup, dt=dt), dt)
        g2 = generators_from_channel(reduce_from_joint(setup, dt=dt / 2), dt / 2)
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
        if not cp_differential_check(gens, tol=1e-12).ok:
            continue
        for t in np.linspace(0.01, 2.0, 8):
            assert is_cptp(propagate(gens, t), tol=1e-9).ok


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
    ham = QuadraticHamiltonian(F=np.eye(2))
    channel = _flow_channel(ham, np.pi)
    with pytest.raises(BranchCutError):
        generators_from_channel(channel, np.pi)


def test_generators_json_round_trip(rng):
    gens = random_generators(rng, 2)
    again = Generators.from_dict(gens.to_dict())
    assert_allclose(again.A, gens.A)
    assert_allclose(again.b, gens.b)
    assert_allclose(again.C, gens.C)


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
    gen = make_gen()
    n = 2 * gen.n_modes
    state0 = GaussianState(mean=np.linspace(-0.5, 0.5, n), cov=1.5 * np.eye(n))
    times = FLOW_GRIDS[grid]
    states = list(flow_states(gen, state0, times))
    assert len(states) == len(times)
    for t, state in zip(times, states):
        direct = apply(propagate(gen, t), state0)
        for got, want in ((state.mean, direct.mean), (state.cov, direct.cov)):
            assert np.all(np.abs(got - want) <= 1e-10 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("grid", ["uniform", "thermalize"])
@pytest.mark.parametrize("make_gen", [_damped_one_mode, _damped_two_mode])
def test_flow_states_equal_a_loop_of_apply(grid, make_gen):
    # the stacked-array steps keep apply's arithmetic, so they agree bit for bit
    gen = make_gen()
    n = 2 * gen.n_modes
    state = GaussianState(mean=np.linspace(-0.5, 0.5, n), cov=1.5 * np.eye(n))
    times = FLOW_GRIDS[grid]
    previous = 0.0
    for t, got in zip(times, flow_states(gen, state, times)):
        state = apply(propagate(gen, t - previous), state)
        previous = t
        assert np.array_equal(got.mean, state.mean)
        assert np.array_equal(got.cov, state.cov)


def test_flow_states_reject_decreasing_times():
    state0 = GaussianState(mean=np.zeros(2), cov=np.eye(2))
    with pytest.raises(ValueError, match="times must be nondecreasing"):
        list(flow_states(_damped_one_mode(), state0, [0.0, 1.0, 0.5]))


def _distinct_gaps(times):
    return len({t - s for s, t in zip([0.0] + list(times), times)})


def test_cli_trajectories_propagate_once_per_distinct_gap(tmp_path, monkeypatch, capsys):
    calls = []

    def counting(gen, t):
        calls.append(t)
        return propagate(gen, t)

    monkeypatch.setattr("rapidgauss.interpolation.propagate", counting)
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
