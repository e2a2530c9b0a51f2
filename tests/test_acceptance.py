"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test finishes by printing a single PASS line (visible under -s); a
failing criterion fails its test.
"""

from dataclasses import replace

import numpy as np
import pytest

from rapidgauss.bombardment import (
    can_purify,
    closed_form_series,
    first_order_purify,
    generator_series_from_joint,
    rank_one_coupling,
    truncated_cp_check,
)
from rapidgauss.channels import (
    JointSetup,
    channel_power,
    reduce_from_joint,
)
from rapidgauss.classifier import allowed_types, table_availability
from rapidgauss.interpolation import generators_from_channel, propagate
from rapidgauss.linalg import mat_exp
from rapidgauss.phasespace import GaussianState, symplectic_form
from rapidgauss.sampling import random_joint_setup
from rapidgauss.thermalization import (
    OscillatorBathSetup,
    analyze,
    decompose_cov,
    discrete_asymptote,
    first_order_generators,
    ladder_coupling,
    rwa_coupling,
    simulate_first_order,
    to_joint_setup,
)

from helpers import fit_power_series, gauss_legendre_integral, random_generators


def _passed(number, text):
    print(f"ACCEPTANCE {number:02d} PASS: {text}")


def test_criterion_01_interpolation_exactness():
    # interpolated channel at t = n dt equals the n-fold discrete composition
    rng = np.random.default_rng(101)
    worst = 0.0
    for trial in range(100):
        setup = random_joint_setup(rng)
        for dt in (0.01, 0.1):
            channel = reduce_from_joint(replace(setup, dt=dt))
            gens = generators_from_channel(channel, dt)
            running = channel
            for n in range(1, 21):
                interp = propagate(gens, n * dt)
                err = max(
                    np.abs(interp.T - running.T).max(),
                    np.abs(interp.d - running.d).max(),
                    np.abs(interp.R - running.R).max(),
                )
                worst = max(worst, err)
                assert err <= 1e-8
                if n < 20:
                    running = channel_power(channel, n + 1)
    _passed(1, f"stroboscopic exactness over 100 setups, worst error {worst:.2e}")


def test_criterion_02_series_cross_route():
    rng = np.random.default_rng(202)
    worst_route = 0.0
    worst_fit = 0.0
    for trial in range(50):
        setup = random_joint_setup(rng, scale=0.1, squeeze=0.3)
        closed = closed_form_series(setup, 2)
        mech = generator_series_from_joint(setup, 2)
        for k in range(3):
            for lhs, rhs in (
                (closed.A[k], mech.A[k]),
                (closed.b[k], mech.b[k]),
                (closed.C[k], mech.C[k]),
            ):
                err = np.abs(lhs - rhs).max()
                worst_route = max(worst_route, err)
                assert err <= 1e-10

        steps = [1e-2, 5e-3, 2.5e-3]
        sampled = []
        for dt in steps:
            gens = generators_from_channel(reduce_from_joint(replace(setup, dt=dt)), dt)
            sampled.append(
                np.concatenate([gens.A.reshape(-1), gens.b, gens.C.reshape(-1)])
            )
        fitted = fit_power_series(sampled, steps, 2)
        for k in range(3):
            packed = np.concatenate(
                [closed.A[k].reshape(-1), closed.b[k], closed.C[k].reshape(-1)]
            )
            err = np.abs(fitted[k] - packed).max()
            worst_fit = max(worst_fit, err)
            assert err <= 1e-5
    _passed(
        2,
        f"cross-route {worst_route:.2e} <= 1e-10, numeric-derivative fit {worst_fit:.2e} <= 1e-5",
    )


def test_criterion_03_rwa_fixed_point():
    bath = OscillatorBathSetup(E_S=1.0, E_A=1.0, nu_A=3.0, G=rwa_coupling(0.1, 0.0), dt=0.05)
    report = analyze(bath)
    assert report.has_fixed_point
    assert report.nu_infinity == pytest.approx(3.0, rel=1e-12)
    assert report.cooling_saturated

    det_g = float(np.linalg.det(bath.G))
    horizon = 10.0 / (bath.dt * det_g)
    rows = simulate_first_order(bath, np.eye(2), [horizon])
    final_nu = rows[0][1].nu
    assert abs(final_nu - 3.0) <= 1e-2
    _passed(3, f"exchange coupling settles at nu = {final_nu:.6f} (formula 3)")


def test_criterion_04_effective_temperature_scaling():
    formula = 3.75  # Tr(G^T G)/(2 det G) * nu_A for G = diag(0.2, 0.1), nu_A = 3
    gaps = {}
    sims = {}
    for dt in (0.05, 0.025):
        bath = OscillatorBathSetup(E_S=1.0, E_A=1.0, nu_A=3.0, G=np.diag([0.2, 0.1]), dt=dt)
        report = analyze(bath)
        assert report.nu_infinity == pytest.approx(formula, rel=1e-12)
        sigma = discrete_asymptote(bath)
        assert sigma is not None
        # long-run composition of the exact step lands on the solved asymptote
        channel = reduce_from_joint(to_joint_setup(bath))
        far = channel_power(channel, 2**22)
        state = GaussianState(mean=np.zeros(2), cov=np.eye(2))
        settled = far.T @ state.cov @ far.T.T + far.R
        assert np.abs(settled - sigma).max() < 1e-6
        sims[dt] = decompose_cov(sigma).nu
        gaps[dt] = np.abs(sigma - formula * np.eye(2)).max()
        assert abs(sims[dt] - formula) <= 0.1 * formula
    assert gaps[0.025] <= 0.65 * gaps[0.05]
    _passed(
        4,
        f"asymptote {sims[0.05]:.4f} vs formula {formula}; gap {gaps[0.05]:.2e} -> "
        f"{gaps[0.025]:.2e} under dt halving",
    )


def test_criterion_05_position_coupling_never_settles():
    bath = OscillatorBathSetup(E_S=1.0, E_A=1.0, nu_A=3.0, G=np.diag([0.1, 0.0]), dt=0.05)
    report = analyze(bath)
    assert not report.has_fixed_point
    assert report.nu_infinity is None

    channel = reduce_from_joint(to_joint_setup(bath))
    cov = np.eye(2)
    previous = np.trace(cov)
    for _ in range(10_000):
        cov = channel.T @ cov @ channel.T.T + channel.R
        current = np.trace(cov)
        assert current > previous
        previous = current
    _passed(5, f"no fixed point reported; trace rose to {previous:.3f} over 1e4 steps")


def test_criterion_06_rank_one_no_purification():
    rng = np.random.default_rng(606)
    worst = 0.0
    for trial in range(1000):
        n_sys = int(rng.integers(1, 3))
        n_anc = int(rng.integers(1, 3))
        u = rng.normal(size=2 * n_sys)
        v = rng.normal(size=2 * n_anc)
        flag, value = first_order_purify(rank_one_coupling(u, v))
        worst = max(worst, abs(value))
        assert abs(value) <= 1e-12
        assert not flag
    _passed(6, f"1000 product couplings, largest |trace value| {worst:.2e}")


def test_criterion_07_cp_through_second_order():
    rng = np.random.default_rng(707)
    worst = np.inf
    for trial in range(100):
        setup = random_joint_setup(rng)
        series = closed_form_series(setup, 2)
        for order in (0, 1, 2):
            res = truncated_cp_check(series, order, 0.01)
            worst = min(worst, res.margin)
            assert res.ok
    _passed(7, f"orders 0-2 completely positive on 100 setups, worst margin {worst:.2e}")


def test_criterion_08_third_order_cp_failure():
    # scan position-position couplings to ground-state ancillae
    found = []
    for g in (0.5, 0.9, 1.2):
        for e_s in (0.7, 1.0, 1.3):
            for e_a in (0.5, 0.7, 1.0):
                setup = JointSetup(
                    F_S=e_s * np.eye(2),
                    F_A=e_a * np.eye(2),
                    G=np.array([[g, 0.0], [0.0, 0.0]]),
                    sigma_A0=np.eye(2),
                )
                series = generator_series_from_joint(setup, 3)
                for dt in (0.1, 0.2, 0.4):
                    res = truncated_cp_check(series, 3, dt)
                    if res.margin < -1e-6:
                        found.append((g, e_s, e_a, dt, res.margin))
    assert found, "no third-order violation found in the scan"

    # regression fixture frozen from the scan
    fixture = JointSetup(
        F_S=1.3 * np.eye(2),
        F_A=0.7 * np.eye(2),
        G=np.array([[0.9, 0.0], [0.0, 0.0]]),
        sigma_A0=np.eye(2),
    )
    series = generator_series_from_joint(fixture, 3)
    res = truncated_cp_check(series, 3, 0.2)
    assert res.margin < -1e-6
    _passed(
        8,
        f"{len(found)} violating (setup, dt) pairs; fixture margin {res.margin:.3e}",
    )


def test_criterion_09_purification_consistency():
    # cooling run: start above the fixed point, purity must rise throughout
    bath = OscillatorBathSetup(E_S=1.0, E_A=1.0, nu_A=3.0, G=np.diag([0.2, 0.1]), dt=0.05)
    report = analyze(bath)
    rate = report.rate
    start = 2.0 * report.nu_tilde * np.eye(2)
    times = np.linspace(0.0, 5.0 / rate, 200)
    purities = [p for _, _, p in simulate_first_order(bath, start, times)]
    assert np.all(np.diff(purities) > 0)
    gens = first_order_generators(bath)
    assert can_purify(gens.A)

    # heating run: negative determinant, purity must fall
    heating = OscillatorBathSetup(
        E_S=1.0, E_A=1.0, nu_A=3.0, G=ladder_coupling(0.5, 0.8), dt=0.05
    )
    start = 2.0 * report.nu_tilde * np.eye(2)
    times = np.linspace(0.0, 5.0 / abs(analyze(heating).rate), 200)
    heat_purities = [p for _, _, p in simulate_first_order(heating, start, times)]
    assert np.all(np.diff(heat_purities) < 0)
    assert not can_purify(first_order_generators(heating).A)
    _passed(
        9,
        f"purity rose {purities[0]:.4f} -> {purities[-1]:.4f} cooling, "
        f"fell {heat_purities[0]:.4f} -> {heat_purities[-1]:.2e} heating",
    )


def test_criterion_10_availability_table_conformance():
    rng = np.random.default_rng(1010)
    for trial in range(500):
        setup = random_joint_setup(rng)
        series = closed_form_series(setup, 2)
        for order in range(3):
            a = series.A[order]
            residual = a - a.T if order % 2 == 0 else a + a.T
            assert np.abs(residual).max() <= 1e-12 * max(1.0, np.abs(a).max())
            report = table_availability(series, order)
            assert report.present <= allowed_types(order)
    _passed(10, "500 setups x orders 0-2 stay inside the availability table")


def test_criterion_11_noise_flow_generator_decision():
    # R(t) must match the direct integral of e^{Omega A s} C e^{(Omega A)^T s}
    rng = np.random.default_rng(1111)
    worst = 0.0
    for trial in range(50):
        n_modes = int(rng.integers(1, 3))
        gens = random_generators(rng, n_modes, scale=0.8)
        omega = symplectic_form(n_modes)
        drift = omega @ gens.A
        t_end = float(rng.uniform(0.3, 1.5))

        def integrand(s):
            e = mat_exp(drift * s)
            return e @ gens.C @ e.T

        expected = gauss_legendre_integral(integrand, 0.0, t_end, nodes=80)
        got = propagate(gens, t_end).R
        err = np.abs(got - expected).max()
        worst = max(worst, err)
        assert err <= 1e-8
    _passed(11, f"lifted noise flow matches quadrature, worst error {worst:.2e}")
