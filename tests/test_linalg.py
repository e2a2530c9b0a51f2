import numpy as np
import pytest
from numpy.testing import assert_allclose

from rapidgauss.errors import BranchCutError, DimensionMismatchError, SingularMatrixError
from rapidgauss.linalg import block_upper, mat_exp, mat_log_principal, psd_margin

from helpers import expm1_div_series, logm_div_series

OMEGA2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


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


def test_mat_log_identity_exact():
    out = mat_log_principal(np.eye(4))
    assert np.all(out == 0.0)


def test_mat_log_rotation():
    for theta in [-2.5, -0.3, 0.0, 1.0, 3.0]:
        rot = mat_exp(theta * OMEGA2)
        assert_allclose(mat_log_principal(rot), theta * OMEGA2, atol=1e-12)


def test_mat_log_branch_cut_and_singular():
    with pytest.raises(BranchCutError):
        mat_log_principal(mat_exp(np.pi * OMEGA2))  # rotation by pi: eigenvalues -1
    with pytest.raises(BranchCutError):
        mat_log_principal(np.diag([-1.0, 2.0]))
    with pytest.raises(SingularMatrixError):
        mat_log_principal(np.diag([0.0, 1.0]))


def test_exp_log_round_trip(rng):
    for _ in range(20):
        m = mat_exp(rng.uniform(-0.6, 0.6, (4, 4)))
        assert_allclose(mat_exp(mat_log_principal(m)), m, atol=1e-10)


def test_mat_log_defective_input():
    jordan = np.array([[1.0, 1.0], [0.0, 1.0]])
    assert_allclose(mat_log_principal(jordan), [[0.0, 1.0], [0.0, 0.0]], atol=1e-12)


def expm1_div(x, t):
    """(exp(x*t) - 1)/x, read off the exponential of the lift [[x, 1], [0, 0]].

    This is the block identity the affine flows rely on: the top-right block
    of exp([[Omega F, Omega alpha], [0, 0]] t) is [(exp(Omega F t) - 1)/(Omega F)]
    Omega alpha.
    """
    n = x.shape[0]
    return mat_exp(block_upper(x, np.eye(n), np.zeros((n, n))) * t)[:n, n:]


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
    """Log(x)/(x - 1), read off the principal Log of the lift [[x, 1], [0, 1]].

    This is the block identity generators_from_channel uses for the drift:
    the top-right block of Log([[T, d], [0, 1]]) is [Log(T)/(T - 1)] d.
    """
    n = x.shape[0]
    eye = np.eye(n)
    lift = np.block([[x, eye], [np.zeros((n, n)), eye]])
    return mat_log_principal(lift)[:n, n:]


def test_logm_div_identity_and_diagonal():
    assert_allclose(logm_div(np.eye(3)), np.eye(3), atol=1e-14)
    got = logm_div(np.diag([np.e, 1.0]))
    assert_allclose(got, np.diag([1.0 / (np.e - 1.0), 1.0]), atol=1e-12)


def test_logm_div_series_oracle(rng):
    for _ in range(10):
        x = np.eye(3) + rng.uniform(-0.1, 0.1, (3, 3))
        assert_allclose(logm_div(x), logm_div_series(x), atol=1e-10)


def test_logm_div_branch_cut():
    with pytest.raises(BranchCutError):
        logm_div(np.diag([-0.5, 1.0]))


def test_logm_div_defective_input():
    jordan = np.eye(2) + 0.3 * np.array([[0.0, 1.0], [0.0, 0.0]])
    assert_allclose(logm_div(jordan), logm_div_series(jordan), atol=1e-12)


def test_tensor_log_identity(rng):
    for _ in range(5):
        t = np.eye(3) + rng.uniform(-0.15, 0.15, (3, 3))
        lhs = mat_log_principal(np.kron(t, t))
        log_t = mat_log_principal(t)
        rhs = np.kron(log_t, np.eye(3)) + np.kron(np.eye(3), log_t)
        assert_allclose(lhs, rhs, atol=1e-10)


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


def test_stacks_exponentiate_matrix_by_matrix_and_have_no_principal_log(rng):
    stack = rng.normal(size=(3, 4, 4))
    exps = mat_exp(stack)
    for m, e in zip(stack, exps):
        assert_allclose(e, mat_exp(m), rtol=1e-14, atol=1e-14)
    with pytest.raises(DimensionMismatchError):
        mat_log_principal(exps)
