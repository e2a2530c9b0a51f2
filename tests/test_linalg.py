import math

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

import rapidgauss.linalg as linalg
from rapidgauss.channels import GaussianChannel, identity_channel, reduce_from_joint
from rapidgauss.errors import BranchCutError, DimensionMismatchError, SingularMatrixError
from rapidgauss.interpolation import channel_lift, generators_from_channel, propagate
from rapidgauss.linalg import balancing_exponents, mat_exp, psd_margin
from rapidgauss.phasespace import symplectic_form
from rapidgauss.sampling import random_symmetric
from rapidgauss.thermalization import (
    OscillatorBathSetup,
    ladder_coupling,
    rwa_coupling,
    to_joint_setup,
)

from helpers import expm1_div_series, logm_div_series

OMEGA2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
EPS = np.finfo(float).eps


def _rotation(theta):
    return np.array([[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]])


def test_mat_exp_zero_and_rotation():
    assert_allclose(mat_exp(np.zeros((3, 3))), np.eye(3))
    theta = 0.7
    expected = np.array(
        [[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]]
    )
    assert_allclose(mat_exp(theta * OMEGA2), expected, atol=1e-14)


def test_mat_exp_inverse_identity(rng):
    for _ in range(10):
        m = rng.uniform(-1.5, 1.5, (4, 4))
        assert_allclose(mat_exp(m) @ mat_exp(-m), np.eye(4), atol=1e-12)


def test_mat_exp_of_zero_is_exactly_the_identity():
    for n in (1, 2, 5, 13):
        assert np.array_equal(mat_exp(np.zeros((n, n))), np.eye(n))


def test_mat_exp_of_an_integer_matrix_is_that_of_its_floats():
    for m in (np.array([[0, 1], [0, 0]]), np.array([[1, 2], [-3, 0]])):
        got = mat_exp(m)
        assert got.dtype == np.float64
        assert np.array_equal(got, mat_exp(m.astype(float)))
    assert np.array_equal(mat_exp(np.array([[0, 1], [0, 0]])), [[1.0, 1.0], [0.0, 1.0]])


def test_mat_exp_rotations_through_many_squarings():
    # theta = 1e3 is scaled by 2^8 and squared back; the error stays at the
    # rounding of the angle, about eps * theta
    for theta in np.concatenate([np.logspace(-3, 3, 61), [1e3]]):
        err = np.abs(mat_exp(theta * OMEGA2) - _rotation(theta)).max()
        assert err <= 10 * EPS * max(1.0, theta)


def test_mat_exp_jordan_block():
    lam, n = 0.5, 5
    nil = np.eye(n, k=1)
    expected = np.exp(lam) * sum(
        np.linalg.matrix_power(nil, k) / math.factorial(k) for k in range(n)
    )
    got = mat_exp(lam * np.eye(n) + nil)
    assert_allclose(got, expected, rtol=1e-14, atol=0)


def test_mat_exp_is_not_overscaled_by_a_large_off_diagonal():
    # A^2 = I, so the exact norms of the powers of A keep the degree at 9
    # with no scaling however large b is; scaling by ||A|| would lose about
    # log2(b) bits (Al-Mohy & Higham 2009, Sec. 1)
    for b in 10.0 ** np.arange(9):
        got = mat_exp(np.array([[1.0, b], [0.0, -1.0]]))
        expected = np.array([[np.e, b * np.sinh(1.0)], [0.0, 1.0 / np.e]])
        assert got[1, 0] == 0.0
        assert_allclose(got, expected, rtol=4 * EPS, atol=0)


@pytest.mark.parametrize("nu_a", [1.0, 1e3, 1e6])
def test_mat_exp_of_the_generator_lift(nu_a):
    bath = OscillatorBathSetup(E_S=1.0, E_A=0.8, nu_A=nu_a, G=ladder_coupling(0.3, 0.1), dt=0.2)
    gen = generators_from_channel(reduce_from_joint(to_joint_setup(bath)), bath.dt)
    omega = symplectic_form(1)
    m = omega @ gen.A
    top = np.column_stack([-m, gen.C, -omega @ gen.b])
    for t in (0.1, 1.0, 10.0):
        lift = channel_lift(top, m, 0.0) * t
        got, oracle = mat_exp(lift), scipy.linalg.expm(lift)
        assert np.abs(got - oracle).max() <= 1e-13 * np.abs(oracle).max()
        # the zero blocks of the block upper-triangular lift stay exact
        assert not got[2:, :2].any() and not got[4, :4].any() and got[4, 4] == 1.0


def test_mat_exp_matches_scipy_on_random_matrices(rng):
    for n in (1, 2, 3, 5, 9, 13, 25, 49):
        for norm in 10.0 ** np.arange(-8, 3):
            m = rng.normal(size=(n, n))
            m *= norm / np.abs(m).sum(axis=0).max()
            oracle = scipy.linalg.expm(m)
            err = np.abs(mat_exp(m) - oracle).max() / np.abs(oracle).max()
            assert err <= 2000 * EPS * max(1.0, norm), (n, norm, err)


@pytest.mark.parametrize(
    "m, degree, squarings",
    [
        (0.01 * OMEGA2, 3, 0),
        (0.2 * OMEGA2, 5, 0),
        (0.9 * OMEGA2, 7, 0),
        (2.0 * OMEGA2, 9, 0),
        (3.0 * OMEGA2, 13, 0),
        (50.0 * OMEGA2, 13, 4),
        # eta = 0.014 admits degree 3, but the backward error of its first
        # omitted term (ell) does not; with A^2 = a^2 I the result is exact
        (np.array([[0.014, 10.0], [0.0, -0.014]]), 5, 0),
    ],
)
def test_mat_exp_each_pade_degree(monkeypatch, m, degree, squarings):
    tried, used = [], []
    extra, quotient = linalg._extra_squarings, linalg._pade_quotient
    monkeypatch.setattr(
        linalg, "_extra_squarings", lambda *args: tried.append(args[2]) or extra(*args)
    )
    monkeypatch.setattr(
        linalg, "_pade_quotient", lambda u, v, s: used.append(s) or quotient(u, v, s)
    )
    got = mat_exp(m)
    assert (tried[-1], used) == (degree, [squarings])
    if m[1, 0]:
        expected = _rotation(m[0, 1])
    else:
        a, b = m[0, 0], m[0, 1]
        expected = np.array([[np.exp(a), b * np.sinh(a) / a], [0.0, np.exp(-a)]])
    assert np.abs(got - expected).max() <= 10 * EPS * max(1.0, np.abs(m).max())


def test_balancing_exponents_bring_each_block_to_the_size_of_the_core():
    core = np.array([[0.0, 3.0], [-1.0, 0.0]])
    blocks = (np.array([1e300, -2.0]), np.array([[1e-300]]), np.array([-1.5, 0.5]))
    for block, k in zip(blocks, balancing_exponents(core, *blocks)):
        assert 0.5 <= np.abs(np.ldexp(block, -k)).max() / 3.0 <= 1.0
    # a zero block stays, and a core below 1 counts as 1
    assert balancing_exponents(core, np.zeros(2)) == (0,)
    assert balancing_exponents(0.25 * core, np.array([0.75])) == (0,)


def test_gauss_legendre_nodes_and_weights_match_leggauss():
    nodes, weights = np.polynomial.legendre.leggauss(8)
    assert np.abs(linalg._NODES - (1.0 + nodes) / 2).max() <= 2 * EPS
    assert np.abs(linalg._WEIGHTS - weights / 2).max() <= 2 * EPS


def test_mat_log_of_the_identity_is_exactly_zero():
    for n in (1, 2, 5):
        got = linalg.mat_log(np.eye(n))
        assert got.shape == (n, n) and not got.any()


def test_mat_log_matches_scipy_on_random_exponentials(rng):
    for n in range(2, 7):
        for scale in (0.1, 0.5, 1.0):
            x = mat_exp(scale * rng.normal(size=(n, n)))
            oracle = scipy.linalg.logm(x).real
            got = linalg.mat_log(x)
            assert np.abs(got - oracle).max() <= 1e-13 * max(1.0, np.abs(oracle).max())


def test_mat_log_of_rotations_up_to_near_the_cut():
    for theta in np.array([-0.98, -0.6, 0.1, 0.5, 0.9, 0.98]) * np.pi:
        rot = _rotation(theta)
        oracle = scipy.linalg.logm(rot).real
        assert np.abs(oracle - theta * OMEGA2).max() <= 1e-13
        assert np.abs(linalg.mat_log(rot) - oracle).max() <= 1e-13 * abs(theta)


@pytest.mark.parametrize("delta", [0.0, 1e-12, 1e-6])
def test_mat_log_of_near_jordan_lifts_matches_scipy(rng, delta):
    # the lifts generators_from_channel takes past EIGENBASIS_COND_MAX: a free
    # mode's T = [[1, 0], [-dt, 1]] and Jordan blocks that damp or grow, with
    # noise and a shift
    for lam, dt in ((1.0, 0.1), (0.5, 0.3), (1.3, 0.7)):
        t = np.array([[lam, delta], [-dt, lam]])
        r = random_symmetric(rng, 2) + 2.0 * np.eye(2)
        top = np.linalg.solve(t, np.column_stack([np.eye(2), r, rng.normal(size=2)]))
        lift = channel_lift(top, t, 1.0)
        oracle = scipy.linalg.logm(lift).real
        assert np.abs(linalg.mat_log(lift) - oracle).max() <= 1e-14 * np.abs(oracle).max()


def test_mat_log_raises_when_its_iterations_run_out(monkeypatch):
    # a real matrix with a negative eigenvalue has no real square root, so
    # the Denman-Beavers iteration never settles
    with pytest.raises(SingularMatrixError, match="a square root did not converge"):
        linalg.mat_log(np.diag([-2.0, 1.0]))
    # I + N, N nilpotent, has the root I + N/2, which the iteration reaches
    # in one step, but ||N||_1 = 1e6 takes 22 roots to come within _THETA8
    shear = np.array([[1.0, 1e6], [0.0, 1.0]])
    assert np.abs(linalg.mat_log(shear) - (shear - np.eye(2))).max() <= 1e-15 * 1e6
    monkeypatch.setattr(linalg, "_ROOTS_MAX", 3)
    with pytest.raises(SingularMatrixError, match="did not reach the identity"):
        linalg.mat_log(shear)


# generators_from_channel takes the principal logarithm in the eigenbasis of
# T, or as linalg.mat_log of the channel lift for a nearly defective T.  The
# tests below reach it there.


def _log(t):
    """Principal Log of T, read off the generators of the noiseless channel
    (T, 0, 0) over dt = 1: Omega A = Log T."""
    n = len(t)
    gen = generators_from_channel(GaussianChannel(T=t, d=np.zeros(n), R=np.zeros((n, n))), 1.0)
    return symplectic_form(n // 2) @ gen.A


def test_mat_log_identity_exact():
    gen = generators_from_channel(identity_channel(2), 0.1)
    assert not gen.A.any() and not gen.b.any() and not gen.C.any()


def test_mat_log_rotation():
    for theta in [-2.5, -0.3, 0.0, 1.0, 3.0]:
        rot = mat_exp(theta * OMEGA2)
        assert_allclose(_log(rot), theta * OMEGA2, atol=1e-12)


def test_mat_log_branch_cut_and_singular():
    with pytest.raises(BranchCutError, match="reduce the step duration"):
        _log(mat_exp(np.pi * OMEGA2))  # rotation by pi: eigenvalues -1
    with pytest.raises(BranchCutError):
        _log(np.diag([-1.0, 2.0]))
    with pytest.raises(SingularMatrixError):
        _log(np.diag([0.0, 1.0]))


@pytest.mark.parametrize("nu_a", [1e307, 1.7e308])
def test_mat_log_of_an_overflowing_schur_fallback_is_not_finite(nu_a):
    # a damped Jordan block in T takes the mat_log fallback; the lift is
    # balanced, but with noise this near the float limit C itself,
    # about 19 nu_a, overflows once scaled back
    jordan = np.array([[0.5, 0.3], [0.0, 0.5]])
    channel = GaussianChannel(T=jordan, d=np.zeros(2), R=nu_a * np.eye(2))
    with pytest.raises(SingularMatrixError, match="the logarithm is not finite"):
        generators_from_channel(channel, 0.1)


def test_exp_log_round_trip(rng):
    for _ in range(20):
        t = mat_exp(rng.uniform(-0.6, 0.6, (4, 4)))
        channel = GaussianChannel(T=t, d=rng.normal(size=4), R=random_symmetric(rng, 4))
        again = propagate(generators_from_channel(channel, 1.0), 1.0)
        for key in "TdR":
            assert_allclose(getattr(again, key), getattr(channel, key), atol=1e-10)


def test_mat_log_defective_input():
    jordan = np.array([[1.0, 1.0], [0.0, 1.0]])
    assert_allclose(_log(jordan), [[0.0, 1.0], [0.0, 0.0]], atol=1e-12)


def expm1_div(x, t):
    """(exp(x*t) - 1)/x, read off the exponential of the lift [[x, 1], [0, 0]].

    This is the block identity the affine flows rely on: the top-right block
    of exp([[Omega F, Omega alpha], [0, 0]] t) is [(exp(Omega F t) - 1)/(Omega F)]
    Omega alpha.
    """
    n = x.shape[0]
    return mat_exp(np.block([[x, np.eye(n)], [np.zeros((n, 2 * n))]]) * t)[:n, n:]


def test_expm1_div_zero_matrix():
    assert_allclose(expm1_div(np.zeros((3, 3)), 0.7), 0.7 * np.eye(3))


def test_expm1_div_invertible_oracle(rng):
    for _ in range(10):
        x = rng.uniform(-1.0, 1.0, (3, 3)) + 0.5 * np.eye(3)
        t = rng.uniform(0.1, 2.0)
        expected = np.linalg.solve(x, mat_exp(x * t) - np.eye(3))
        assert_allclose(expm1_div(x, t), expected, atol=1e-10)


def test_expm1_div_nilpotent_exact():
    x = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert_allclose(expm1_div(x, 1.0), np.eye(2) + x / 2, atol=1e-15)


def test_expm1_div_series_oracle_including_singular(rng):
    for _ in range(10):
        x = rng.uniform(-1.0, 1.0, (3, 3))
        x[:, 0] = 0.0  # force singular
        t = rng.uniform(0.1, 1.5)
        got = expm1_div(x, t)
        assert_allclose(got, expm1_div_series(x, t), atol=1e-12)
        assert_allclose(got @ x, mat_exp(x * t) - np.eye(3), atol=1e-10)


def logm_div(x):
    """Log(x)/(x - 1), read off the drift of generators_from_channel: with
    T = x and R = 0, Omega b dt = [Log(T)/(T - 1)] d, so the unit shifts d
    give its columns."""
    n = len(x)
    omega = symplectic_form(n // 2)
    return np.column_stack([
        omega @ generators_from_channel(GaussianChannel(T=x, d=d, R=np.zeros((n, n))), 1.0).b
        for d in np.eye(n)
    ])


def test_logm_div_identity_and_diagonal():
    assert_allclose(logm_div(np.eye(4)), np.eye(4), atol=1e-14)
    got = logm_div(np.diag([np.e, 1.0]))
    assert_allclose(got, np.diag([1.0 / (np.e - 1.0), 1.0]), atol=1e-12)


def test_logm_div_series_oracle(rng):
    for _ in range(10):
        x = np.eye(4) + rng.uniform(-0.1, 0.1, (4, 4))
        assert_allclose(logm_div(x), logm_div_series(x), atol=1e-10)


def test_logm_div_branch_cut():
    with pytest.raises(BranchCutError):
        logm_div(np.diag([-0.5, 1.0]))


def test_logm_div_defective_input():
    jordan = np.eye(2) + 0.3 * np.array([[0.0, 1.0], [0.0, 0.0]])
    assert_allclose(logm_div(jordan), logm_div_series(jordan), atol=1e-12)


def test_tensor_log_identity(rng):
    # Log(T x T) = Log T x 1 + 1 x Log T is what lets generators_from_channel
    # take vec C dt = [Log(T x T)/(T x T - 1)] vec R elementwise in the
    # eigenbasis of T; scipy's Schur logm is the oracle
    eye = np.eye(4)
    for _ in range(5):
        t = eye + rng.uniform(-0.15, 0.15, (4, 4))
        tt = np.kron(t, t)
        lhs = scipy.linalg.logm(tt).real
        log_t = _log(t)
        assert_allclose(lhs, np.kron(log_t, eye) + np.kron(eye, log_t), atol=1e-10)
        r = random_symmetric(rng, 4)
        gen = generators_from_channel(GaussianChannel(T=t, d=np.zeros(4), R=r), 0.1)
        vec_c = lhs @ np.linalg.solve(tt - np.eye(16), r.ravel()) / 0.1
        assert_allclose(gen.C.ravel(), vec_c, atol=1e-10)


def test_psd_margin():
    assert psd_margin(np.eye(3), np.zeros((3, 3))) == pytest.approx(1.0)
    assert psd_margin(np.diag([2.0, -3.0]), np.zeros((2, 2))) == pytest.approx(-3.0)
    # vacuum uncertainty matrix 1 + i Omega: eigenvalues 1 +- 1
    assert psd_margin(np.eye(2), -OMEGA2) == pytest.approx(0.0, abs=1e-12)
    # only sym(noise) and antisym(twist) count
    assert psd_margin(np.eye(2) + OMEGA2, -OMEGA2 + np.eye(2)) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(DimensionMismatchError):
        psd_margin(np.eye(2), np.zeros((4, 4)))
    with pytest.raises(DimensionMismatchError):
        psd_margin(np.ones((2, 3)), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        psd_margin(np.eye(2), np.full((2, 2), np.nan))


def test_psd_margin_does_not_overflow_near_the_float_limit():
    # the vacuum bound scaled to the largest floats: the sums cov + cov^T
    # and twist - twist^T would overflow, their halves do not
    big = 1.5e308
    assert psd_margin(big * np.eye(2), -big * OMEGA2) == pytest.approx(0.0, abs=1e-12 * big)
    assert psd_margin(big * np.eye(2), -OMEGA2) == pytest.approx(big)


def test_batched_psd_margin_equals_the_per_matrix_call_bit_for_bit(rng):
    for n in (1, 2, 4, 7):
        for shape in ((5,), (2, 3)):
            scales = 10.0 ** rng.uniform(-4, 4, size=shape + (1, 1))
            noise = rng.normal(size=shape + (n, n)) * scales
            twist = rng.normal(size=shape + (n, n))
            margins = psd_margin(noise, twist)
            assert isinstance(margins, np.ndarray) and margins.shape == shape
            for index in np.ndindex(*shape):
                single = psd_margin(noise[index], twist[index])
                assert isinstance(single, float) and single == margins[index]
    with pytest.raises(DimensionMismatchError):
        psd_margin(np.zeros((3, 2, 2)), np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        psd_margin(np.zeros((3, 2, 2)), np.full((3, 2, 2), np.inf))


def test_stacks_have_no_exponential_and_no_principal_log(rng):
    # the principal logarithm of a matrix is mat_log, of one matrix only
    assert not hasattr(linalg, "mat_log_principal")
    stack = mat_exp(rng.normal(size=(4, 4)))[None].repeat(3, axis=0)
    with pytest.raises(DimensionMismatchError):
        mat_exp(stack)
    with pytest.raises(DimensionMismatchError):
        linalg.mat_log(stack)
    with pytest.raises(DimensionMismatchError):
        mat_exp(np.ones((2, 3)))
    with pytest.raises(DimensionMismatchError):
        mat_exp(np.zeros((0, 0)))
