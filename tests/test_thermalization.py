import numpy as np
import pytest
from numpy.testing import assert_allclose

from rapidgauss.channels import reduce_from_joint, trajectory
from rapidgauss.errors import InvalidSetupError
from rapidgauss.interpolation import master_rhs
from rapidgauss.phasespace import GaussianState
from rapidgauss.thermalization import (
    CovCoefficients,
    OscillatorBathSetup,
    analyze,
    coefficient_rhs,
    decompose_cov,
    discrete_asymptote,
    first_order_generators,
    ladder_coupling,
    rwa_coupling,
    simulate_first_order,
    to_joint_setup,
)

OMEGA2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
X2 = np.array([[0.0, 1.0], [1.0, 0.0]])
Z2 = np.array([[1.0, 0.0], [0.0, -1.0]])


def _bath(G, nu_A=3.0, dt=0.05, E_S=1.0, E_A=1.0):
    return OscillatorBathSetup(E_S=E_S, E_A=E_A, nu_A=nu_A, G=np.asarray(G, float), dt=dt)


def test_decompose_cov_cases(rng):
    c = decompose_cov(2.5 * np.eye(2))
    assert (c.nu, c.s_cross, c.s_plus) == (2.5, 0.0, 0.0)
    c = decompose_cov(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert (c.nu, c.s_cross, c.s_plus) == (2.0, 1.0, 0.0)
    for _ in range(20):
        m = rng.uniform(-2, 2, (2, 2))
        sigma = (m + m.T) / 2
        back = decompose_cov(sigma).to_cov()
        assert np.abs(back - sigma).max() < 1e-14


def test_coefficient_rhs_free_rotation():
    bath = _bath(np.zeros((2, 2)), E_S=1.7)
    c = CovCoefficients(nu=2.0, s_cross=0.3, s_plus=-0.4)
    d = coefficient_rhs(c, bath)
    assert d.nu == 0.0
    assert d.s_cross == pytest.approx(-2 * 1.7 * c.s_plus)
    assert d.s_plus == pytest.approx(2 * 1.7 * c.s_cross)


def test_coefficient_rhs_rwa_fixed_point():
    bath = _bath(rwa_coupling(0.2, 0.0), nu_A=2.5)
    c = CovCoefficients(nu=2.5, s_cross=0.0, s_plus=0.0)
    d = coefficient_rhs(c, bath)
    assert d.nu == pytest.approx(0.0, abs=1e-15)
    assert d.s_cross == pytest.approx(0.0, abs=1e-15)
    assert d.s_plus == pytest.approx(0.0, abs=1e-15)


def test_coefficient_rhs_matches_master_equation(rng):
    # the three coefficient equations are the block decomposition of the
    # full first-order master equation
    for _ in range(10):
        bath = _bath(rng.uniform(-0.5, 0.5, (2, 2)), nu_A=float(rng.uniform(1, 3)))
        gens = first_order_generators(bath)
        sigma = decompose_cov(np.eye(2) * 2.0).to_cov()
        c0 = CovCoefficients(
            nu=float(rng.uniform(1.5, 3.0)),
            s_cross=float(rng.uniform(-0.3, 0.3)),
            s_plus=float(rng.uniform(-0.3, 0.3)),
        )
        state = GaussianState(mean=np.zeros(2), cov=c0.to_cov())
        _, dcov = master_rhs(gens, state)
        expected = decompose_cov(dcov)
        got = coefficient_rhs(c0, bath)
        assert got.nu == pytest.approx(expected.nu, abs=1e-12)
        assert got.s_cross == pytest.approx(expected.s_cross, abs=1e-12)
        assert got.s_plus == pytest.approx(expected.s_plus, abs=1e-12)


def test_analyze_rwa_saturates():
    report = analyze(_bath(rwa_coupling(0.1, 0.05), nu_A=3.0))
    assert report.has_fixed_point
    assert report.nu_infinity == pytest.approx(3.0, rel=1e-12)
    assert report.cooling_saturated
    assert report.passivity_ok
    assert report.rate == pytest.approx(0.05 * (0.1**2 + 0.05**2), rel=1e-12)


def test_analyze_position_coupling_does_not_thermalize():
    report = analyze(_bath(np.diag([0.1, 0.0]), nu_A=3.0))
    assert not report.has_fixed_point
    assert report.nu_infinity is None
    assert report.nu_tilde is None
    assert report.rate == 0.0
    assert not report.cooling_saturated


def test_analyze_effective_temperature():
    report = analyze(_bath(np.diag([0.2, 0.1]), nu_A=3.0))
    assert report.has_fixed_point
    assert report.nu_infinity == pytest.approx(3.75, rel=1e-12)
    assert not report.cooling_saturated
    assert report.passivity_ok


def test_rwa_coupling_form(rng):
    assert_allclose(rwa_coupling(0.7, 0.0), 0.7 * np.eye(2))
    assert_allclose(rwa_coupling(0.0, 0.7), 0.7 * OMEGA2)
    for _ in range(10):
        g1, gw = rng.uniform(-1, 1, 2)
        g = rwa_coupling(g1, gw)
        assert np.linalg.det(g) == pytest.approx(g1**2 + gw**2, rel=1e-12, abs=1e-15)
        if g1**2 + gw**2 > 1e-4:
            report = analyze(_bath(g, nu_A=2.0))
            assert report.nu_infinity == pytest.approx(2.0, rel=1e-12)
            assert report.cooling_saturated


def test_ladder_coupling_identities(rng):
    for _ in range(30):
        g = complex(rng.normal(), rng.normal())
        h = complex(rng.normal(), rng.normal())
        mat = ladder_coupling(g, h)
        assert abs(np.linalg.det(mat) - (abs(g) ** 2 - abs(h) ** 2)) < 1e-12
        assert abs(np.trace(mat.T @ mat) - 2 * (abs(g) ** 2 + abs(h) ** 2)) < 1e-12


def test_ladder_coupling_special_cases():
    assert_allclose(ladder_coupling(0.4 + 0.3j, 0.0), rwa_coupling(0.4, 0.3))
    report = analyze(_bath(ladder_coupling(0.5, 0.8), nu_A=2.0))
    assert not report.has_fixed_point  # |h| > |g| never equilibrates
    report = analyze(_bath(ladder_coupling(1.0, 0.5), nu_A=3.0))
    assert report.nu_infinity == pytest.approx(5.0, rel=1e-12)  # (5/3) * 3


def test_ladder_coupling_trajectory_cross_check():
    # discrete dynamics settles at the formula value up to O(dt)
    bath = _bath(ladder_coupling(1.0, 0.5), nu_A=3.0, dt=0.01)
    sigma = discrete_asymptote(bath)
    assert sigma is not None
    assert decompose_cov(sigma).nu == pytest.approx(5.0, rel=1e-3)


def test_gram_trace_dominates_determinant(rng):
    for _ in range(10000):
        g = rng.uniform(-2, 2, (2, 2))
        assert np.trace(g.T @ g) >= 2 * np.linalg.det(g) - 1e-12


def test_simulated_asymptote_reaches_effective_temperature():
    bath = _bath(np.diag([0.2, 0.1]), nu_A=3.0)
    report = analyze(bath)
    horizon = 20.0 / report.rate
    rows = simulate_first_order(bath, 1.0 * np.eye(2), [0.0, horizon])
    _, coeffs, _ = rows[-1]
    assert coeffs.nu == pytest.approx(report.nu_infinity, rel=1e-6)
    assert abs(coeffs.s_cross) < 0.05
    assert abs(coeffs.s_plus) < 0.05


def test_squeeze_coefficients_decay_while_rotating():
    # with an exchange coupling the squeeze pair spirals to zero:
    # amplitude e^{-rate t}, phase 2 E_S t
    bath = _bath(rwa_coupling(0.3, 0.0), nu_A=2.0, dt=0.05, E_S=1.3)
    rate = analyze(bath).rate
    z0 = complex(0.2, -0.1)
    start = CovCoefficients(nu=2.0, s_cross=z0.real, s_plus=z0.imag).to_cov()
    times = np.linspace(0.0, 8.0, 9)
    rows = simulate_first_order(bath, start, times)
    for t, coeffs, _ in rows:
        expected = z0 * np.exp((-rate + 2j * bath.E_S) * t)
        assert coeffs.s_cross == pytest.approx(expected.real, abs=1e-10)
        assert coeffs.s_plus == pytest.approx(expected.imag, abs=1e-10)


def test_no_equilibration_trace_grows(rng):
    # det G <= 0 with G != 0: total uncertainty grows without bound along the
    # first-order flow, and the discrete steps raise it monotonically
    bath = _bath(np.diag([0.1, 0.0]), nu_A=3.0)
    channel = reduce_from_joint(to_joint_setup(bath))
    state = GaussianState(mean=np.zeros(2), cov=np.eye(2))
    traces = [np.trace(s.cov) for s in trajectory(channel, state, 2000)]
    assert np.all(np.diff(traces) > 0)

    horizons = [0.0, 1e3, 1e4, 1e5]
    nus = [c.nu for _, c, _ in simulate_first_order(bath, np.eye(2), horizons)]
    assert np.all(np.diff(nus) > 0)
    assert nus[-1] > 50.0  # linear growth, no plateau

    # negative determinant: exponential growth, no discrete fixed point either
    runaway = _bath(ladder_coupling(0.5, 0.8), nu_A=3.0)
    assert discrete_asymptote(runaway) is None
    gens = first_order_generators(runaway)
    _, dcov = master_rhs(gens, GaussianState(mean=np.zeros(2), cov=50.0 * np.eye(2)))
    assert np.trace(dcov) > 0  # still growing far from the origin


def test_setup_validation():
    with pytest.raises(InvalidSetupError):
        _bath(np.eye(2), nu_A=0.5)
    with pytest.raises(InvalidSetupError):
        OscillatorBathSetup(E_S=-1.0, E_A=1.0, nu_A=2.0, G=np.eye(2), dt=0.1)
    with pytest.raises(InvalidSetupError):
        OscillatorBathSetup(E_S=1.0, E_A=1.0, nu_A=2.0, G=np.eye(2), dt=0.0)


def test_to_joint_setup_round_trip():
    bath = _bath(rwa_coupling(0.2, 0.1), nu_A=2.0, dt=0.07, E_S=1.1, E_A=0.9)
    joint = to_joint_setup(bath)
    assert_allclose(joint.F_S, 1.1 * np.eye(2))
    assert_allclose(joint.F_A, 0.9 * np.eye(2))
    assert_allclose(joint.sigma_A0, 2.0 * np.eye(2))
    assert joint.dt == 0.07


def test_report_json():
    report = analyze(_bath(rwa_coupling(0.1, 0.0)))
    obj = report.to_dict()
    assert obj["has_fixed_point"] is True
    assert obj["nu_infinity"] == pytest.approx(3.0)


def test_decompose_cov_of_a_stack_matches_each_matrix(rng):
    stack = rng.normal(size=(5, 2, 2))
    stack = stack + np.swapaxes(stack, 1, 2)
    coeffs = decompose_cov(stack)
    for k, sigma in enumerate(stack):
        single = decompose_cov(sigma)
        assert (coeffs.nu[k], coeffs.s_cross[k], coeffs.s_plus[k]) == (
            single.nu, single.s_cross, single.s_plus,
        )
