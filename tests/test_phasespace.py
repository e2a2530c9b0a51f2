import numpy as np
import pytest
from numpy.testing import assert_allclose

from rapidgauss.channels import GaussianChannel, JointSetup, apply, compose
from rapidgauss.errors import DimensionMismatchError, InvalidSetupError, InvalidStateError
from rapidgauss.interpolation import Generators
from rapidgauss.phasespace import (
    GaussianState,
    affine_lift,
    beta_from_nu,
    nu_from_beta,
    purity,
    symplectic_form,
    thermal_state,
    validate_state,
)
from rapidgauss.sampling import random_symplectic

from helpers import central_difference, noiseless_flow

OMEGA2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _bits(a):
    # equal arrays of equal bits, signs of zero included
    return np.asarray(a, dtype=float).tobytes()


def test_affine_lift_is_the_block_matrix_signs_of_zero_included(rng):
    for n_modes in (1, 2, 3):
        n = 2 * n_modes
        omega = symplectic_form(n_modes)
        for _ in range(5):
            f = rng.normal(size=(n, n))
            alpha = rng.normal(size=n)
            # zeros of both signs in F and alpha
            f[rng.random((n, n)) < 0.3] = 0.0
            f[rng.random((n, n)) < 0.3] = -0.0
            alpha[rng.random(n) < 0.3] = -0.0
            want = np.block([[omega @ f, (omega @ alpha)[:, None]], [np.zeros((1, n + 1))]])
            assert _bits(affine_lift(f, alpha)) == _bits(want)


def test_affine_lift_of_a_stack_is_its_members_lifts(rng):
    f = rng.normal(size=(3, 4, 4, 4))
    alpha = rng.normal(size=(3, 4, 4))
    lifts = affine_lift(f, alpha)
    assert lifts.shape == (3, 4, 5, 5)
    for i in np.ndindex(3, 4):
        assert _bits(lifts[i]) == _bits(affine_lift(f[i], alpha[i]))


def test_symplectic_form_shapes():
    assert_allclose(symplectic_form(1), OMEGA2)
    expected = np.zeros((4, 4))
    expected[:2, :2] = OMEGA2
    expected[2:, 2:] = OMEGA2
    assert_allclose(symplectic_form(2), expected)
    for n in [1, 2, 3, 5]:
        omega = symplectic_form(n)
        assert_allclose(omega @ omega.T, np.eye(2 * n))
        assert_allclose(omega.T, -omega)


def test_validate_state_vacuum_and_below():
    vacuum = GaussianState(mean=np.zeros(2), cov=np.eye(2))
    check = validate_state(vacuum)
    assert check.ok and check.min_eig == pytest.approx(0.0, abs=1e-12)

    squeezed_too_far = GaussianState(mean=np.zeros(2), cov=0.5 * np.eye(2))
    check = validate_state(squeezed_too_far)
    assert not check.ok
    assert check.min_eig == pytest.approx(-0.5, abs=1e-12)


@pytest.mark.parametrize("nu", [1.0, 1.5, 2.0, 5.0, 40.0])
def test_validate_state_thermal_sweep(nu):
    # eigenvalues of nu*1 + i omega are nu +- 1
    state = GaussianState(mean=np.zeros(2), cov=nu * np.eye(2))
    check = validate_state(state)
    assert check.ok
    assert check.min_eig == pytest.approx(nu - 1.0, rel=1e-12, abs=1e-12)


def test_purity_values():
    assert purity(thermal_state(1.0)) == pytest.approx(1.0)
    assert purity(thermal_state(3.0)) == pytest.approx(1.0 / 9.0)
    two_mode = GaussianState(mean=np.zeros(4), cov=np.diag([1.0, 1.0, 2.0, 2.0]))
    assert purity(two_mode) == pytest.approx(0.25)
    with pytest.raises(InvalidStateError):
        purity(GaussianState(mean=np.zeros(2), cov=0.25 * np.eye(2)))


def test_thermal_state_guard():
    with pytest.raises(InvalidSetupError):
        thermal_state(0.5)


def test_nu_beta_conversions():
    assert nu_from_beta(50.0, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert nu_from_beta(np.log(3.0), 1.0) == pytest.approx(2.0, rel=1e-14)
    for be in np.linspace(0.1, 10.0, 25):
        nu = nu_from_beta(be, 1.0)
        assert beta_from_nu(nu, 1.0) == pytest.approx(be, rel=1e-12, abs=1e-12)
    assert beta_from_nu(1.0, 2.0) == np.inf
    with pytest.raises(InvalidSetupError):
        nu_from_beta(-1.0, 1.0)
    with pytest.raises(InvalidSetupError):
        beta_from_nu(0.9, 1.0)


def test_nu_monotone_decreasing():
    grid = np.linspace(0.05, 12.0, 60)
    values = [nu_from_beta(be, 1.0) for be in grid]
    assert np.all(np.diff(values) < 0)


def test_hamiltonian_flow_rotation():
    flow = noiseless_flow(2.0 * np.eye(2), 0.4)
    theta = 0.8
    expected = np.array(
        [[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]]
    )
    assert_allclose(flow.T, expected, atol=1e-14)
    assert_allclose(flow.d, np.zeros(2), atol=1e-15)


def test_hamiltonian_flow_pure_drift():
    alpha = np.array([0.3, -1.2])
    flow = noiseless_flow(np.zeros((2, 2)), 2.5, alpha)
    assert_allclose(flow.T, np.eye(2))
    assert_allclose(flow.d, 2.5 * OMEGA2 @ alpha, atol=1e-15)


def test_hamiltonian_flow_matches_equations_of_motion(rng):
    # d/dt X = Omega (F X + alpha), d/dt cov = (Omega F) cov + cov (Omega F)^T
    f = rng.uniform(-1, 1, (4, 4))
    f, alpha = (f + f.T) / 2, rng.uniform(-1, 1, 4)
    omega = symplectic_form(2)
    state = GaussianState(mean=rng.uniform(-1, 1, 4), cov=2.0 * np.eye(4))

    def mean_at(t):
        return apply(noiseless_flow(f, t, alpha), state).mean

    def cov_at(t):
        return apply(noiseless_flow(f, t, alpha), state).cov

    t0 = 0.6
    middle = apply(noiseless_flow(f, t0, alpha), state)
    expected_dmean = omega @ (f @ middle.mean + alpha)
    gen = omega @ f
    expected_dcov = gen @ middle.cov + middle.cov @ gen.T
    assert_allclose(central_difference(mean_at, t0), expected_dmean, atol=1e-6)
    assert_allclose(central_difference(cov_at, t0), expected_dcov, atol=1e-6)


def test_flow_is_symplectic(rng):
    for _ in range(10):
        f = rng.uniform(-1, 1, (4, 4))
        flow = noiseless_flow((f + f.T) / 2, rng.uniform(0.1, 2.0))
        omega = symplectic_form(2)
        assert np.abs(flow.T @ omega @ flow.T.T - omega).max() < 1e-9


def test_flow_composition_group_property(rng):
    f = rng.uniform(-1, 1, (4, 4))
    f, alpha = (f + f.T) / 2, rng.uniform(-1, 1, 4)
    one = noiseless_flow(f, 0.7, alpha)
    two = noiseless_flow(f, 0.5, alpha)
    both = noiseless_flow(f, 1.2, alpha)
    composed = compose(two, one)
    assert_allclose(composed.T, both.T, atol=1e-10)
    assert_allclose(composed.d, both.d, atol=1e-10)


def test_apply_flow_identity_and_rotation():
    state = GaussianState(mean=np.array([1.0, -2.0]), cov=np.eye(2))
    ident = GaussianChannel(T=np.eye(2), d=np.zeros(2), R=np.zeros((2, 2)))
    same = apply(ident, state)
    assert_allclose(same.mean, state.mean)
    assert_allclose(same.cov, state.cov)

    rot = noiseless_flow(np.eye(2), 1.3)
    vacuum = GaussianState(mean=np.zeros(2), cov=np.eye(2))
    rotated = apply(rot, vacuum)
    assert_allclose(rotated.cov, np.eye(2), atol=1e-14)


def test_apply_flow_preserves_purity_and_validity(rng):
    state = GaussianState(mean=np.zeros(4), cov=np.diag([1.0, 1.0, 3.0, 3.0]))
    for _ in range(10):
        s = random_symplectic(rng, 2, 0.8)
        flow = GaussianChannel(T=s, d=rng.uniform(-1, 1, 4), R=np.zeros((4, 4)))
        moved = apply(flow, state)
        assert validate_state(moved).ok
        assert purity(moved) == pytest.approx(purity(state), rel=1e-10)


def test_state_shape_checks():
    with pytest.raises(DimensionMismatchError):
        GaussianState(mean=np.zeros(3), cov=np.eye(3))
    with pytest.raises(DimensionMismatchError):
        GaussianState(mean=np.zeros(2), cov=np.eye(4))
    with pytest.raises(DimensionMismatchError):
        apply(
            GaussianChannel(T=np.eye(2), d=np.zeros(2), R=np.zeros((2, 2))),
            GaussianState(mean=np.zeros(4), cov=np.eye(4)),
        )


# Each record checks its (matrix, vector) pairs in one order: finite, then
# shapes, then symmetry.  The malformed matrix goes where it must be
# symmetric: the covariance, the noise R or C, and F_S.
_RECORDS = {
    "GaussianState": (lambda m, v: GaussianState(mean=v, cov=m), ValueError, InvalidStateError),
    "GaussianChannel": (
        lambda m, v: GaussianChannel(T=np.eye(len(v)), d=v, R=m),
        InvalidSetupError,
        InvalidSetupError,
    ),
    "Generators": (
        lambda m, v: Generators(A=np.eye(len(v)), b=v, C=m),
        InvalidSetupError,
        InvalidSetupError,
    ),
    "JointSetup": (
        lambda m, v: JointSetup(F_S=m, alpha_S=v, F_A=np.eye(2), G=np.zeros((2, 2))),
        InvalidSetupError,
        InvalidSetupError,
    ),
}

_MALFORMED = {
    "0-d-matrix": (np.array(5.0), np.zeros(2), "shape"),
    "1-d-matrix": (np.ones(2), np.zeros(2), "shape"),
    "odd-dimension": (np.eye(3), np.zeros(3), "shape"),
    "mismatched-vector": (np.eye(2), np.zeros(4), "shape"),
    "nan": (np.array([[1.0, np.nan], [np.nan, 1.0]]), np.zeros(2), "nonfinite"),
    # m - m^T overflows; the symmetry test must not
    "asymmetric-near-float-limit": (
        np.array([[1.0, 1e308], [-1e308, 1.0]]),
        np.zeros(2),
        "asymmetric",
    ),
}


@pytest.mark.parametrize("case", list(_MALFORMED))
@pytest.mark.parametrize("record", list(_RECORDS))
def test_records_reject_the_same_malformed_pairs(record, case):
    build, nonfinite, asymmetric = _RECORDS[record]
    matrix, vector, kind = _MALFORMED[case]
    expected = {"shape": DimensionMismatchError, "nonfinite": nonfinite, "asymmetric": asymmetric}
    with pytest.raises(expected[kind]) as caught:
        build(matrix, vector)
    assert type(caught.value) is expected[kind]
    if kind == "asymmetric":
        assert "must be symmetric" in str(caught.value)
