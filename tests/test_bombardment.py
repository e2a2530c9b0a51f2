from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rapidgauss.bombardment import (
    GeneratorSeries,
    _log_series_rows,
    _series_of_stacks,
    can_purify,
    closed_form_series,
    first_order_purify,
    generator_series_from_joint,
    generator_series_stack,
    rank_one_coupling,
    truncated_cp_check,
    truncated_cp_margins,
)
from rapidgauss.channels import JointSetup, reduce_from_joint
from rapidgauss.classifier import allowed_types, table_availability
from rapidgauss.errors import MalformedSeriesError
from rapidgauss.interpolation import cp_differential_check, generators_from_channel
from rapidgauss.phasespace import symplectic_form
from rapidgauss.sampling import random_joint_setup
from rapidgauss.thermalization import to_joint_setup, OscillatorBathSetup

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    channel_taylor_lists,
    fit_power_series,
    log_series_cauchy,
    series_from_joint_lists,
)

PROPERTY = settings(derandomize=True, deadline=None, max_examples=30)

OMEGA2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _zero_series(n, orders):
    zm = np.zeros((n, n))
    zv = np.zeros(n)
    t = [np.eye(n)] + [zm] * orders
    d = [zv] * (orders + 1)
    r = [zm] * (orders + 1)
    return t, d, r


def _series_kernel(t_series, d_series, r_series, order):
    """The series kernel on one channel series (T_k, d_k, R_k), given as
    lists, as a GeneratorSeries."""
    stacks = (np.array([series[: order + 2]]) for series in (t_series, d_series, r_series))
    return GeneratorSeries(*(coeffs[0] for coeffs in _series_of_stacks(*stacks, order)))


def test_series_from_t1_only(rng):
    # a channel series with only T_1 set reproduces the alternating-power form
    n = 4
    t1 = rng.uniform(-1, 1, (n, n))
    t, d, r = _zero_series(n, 4)
    t[1] = t1
    series = _series_kernel(t, d, r, order=3)
    omega = symplectic_form(n // 2)
    assert_allclose(omega @ series.A[0], t1, atol=1e-13)
    assert_allclose(omega @ series.A[1], -0.5 * t1 @ t1, atol=1e-13)
    assert_allclose(omega @ series.A[2], t1 @ t1 @ t1 / 3, atol=1e-13)
    assert_allclose(series.b[1], np.zeros(n))
    assert_allclose(series.C[2], np.zeros((n, n)))


def test_series_all_zero_beyond_leading():
    t, d, r = _zero_series(2, 3)
    series = _series_kernel(t, d, r, order=2)
    for k in range(3):
        assert_allclose(series.A[k], np.zeros((2, 2)))
        assert_allclose(series.b[k], np.zeros(2))
        assert_allclose(series.C[k], np.zeros((2, 2)))


def test_series_order_cap(rng):
    # no order is capped from above; a negative order is still refused
    setup = random_joint_setup(rng)
    with pytest.raises(ValueError, match="nonnegative"):
        generator_series_from_joint(setup, -1)
    assert generator_series_from_joint(setup, 12).order == 12


def test_log_series_equals_full_cauchy_products_bit_for_bit(rng):
    # X = T - 1 has no dt^0 term, so X^m starts at dt^m; the products below
    # that order are exact zeros, and skipping them must change no bit; nor
    # may stacking the products of one left factor into one matmul
    for order in range(5):
        for n in (1, 3, 5):
            for _ in range(4):
                t_series = [np.eye(n)] + [
                    rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-3, 3) for _ in range(order)
                ]
                want = log_series_cauchy(t_series, order)
                got = _log_series_rows(np.array([t_series]), n)[0]
                assert len(got) == order + 1
                assert all(np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("order", range(9))
def test_series_truncation_error_falls_like_dt_to_the_order_plus_one(rng, order):
    # halving dt divides the error of the order-k partial sum in A by 2^(k+1)
    for _ in range(3):
        setup = random_joint_setup(rng, n_sys=2, n_anc=2)
        series = generator_series_from_joint(setup, 8)
        errors = []
        for dt in (0.4, 0.2):
            exact = generators_from_channel(reduce_from_joint(replace(setup, dt=dt)), dt)
            errors.append(np.abs(series.truncate(order, dt).A - exact.A).max())
        assert abs(np.log2(errors[0] / errors[1]) - (order + 1)) < 0.5


def test_series_parity_through_order_8(rng):
    # even orders of A are symmetric (unitary), odd ones antisymmetric
    for _ in range(10):
        series = generator_series_from_joint(random_joint_setup(rng), 8)
        for k, a in enumerate(series.A):
            sign = 1 if k % 2 == 0 else -1
            assert np.abs(a - sign * a.T).max() <= 1e-12 * max(1.0, np.abs(a).max())


def test_series_availability_through_order_8(rng):
    # every order drives only the dynamics types the table allows it
    for _ in range(50):
        series = generator_series_from_joint(random_joint_setup(rng), 8)
        for k in range(9):
            assert table_availability(series, k).present <= allowed_types(k)


def test_series_is_one_log_series_of_one_lift(rng, monkeypatch):
    import rapidgauss.bombardment as bombardment

    shapes = []

    def counting(x, rows):
        shapes.append((x.shape, rows))
        return _log_series_rows(x, rows)

    monkeypatch.setattr(bombardment, "_log_series_rows", counting)
    setup = random_joint_setup(rng, n_sys=3, n_anc=2)
    series = generator_series_from_joint(setup, 5)
    assert series.order == 5
    assert shapes == [((1, 7, 13, 13), 6)]
    # a stack of setups is one logarithm series of one stack of lifts
    shapes.clear()
    setups = [random_joint_setup(rng, n_sys=3, n_anc=2) for _ in range(4)]
    a, b, c = generator_series_stack(setups, 5)
    assert a.shape == (4, 6, 6, 6) and b.shape == (4, 6, 6) and c.shape == (4, 6, 6, 6)
    assert shapes == [((4, 7, 13, 13), 6)]


def test_cross_route_equality(rng):
    # closed forms == log-series composition of the exact channel Taylor series
    for _ in range(20):
        setup = random_joint_setup(rng)
        closed = closed_form_series(setup, 2)
        mech = _series_kernel(*channel_taylor_lists(setup, 3), order=2)
        for k in range(3):
            assert_allclose(closed.A[k], mech.A[k], atol=1e-10)
            assert_allclose(closed.b[k], mech.b[k], atol=1e-10)
            assert_allclose(closed.C[k], mech.C[k], atol=1e-10)


def test_series_against_richardson_extraction(rng):
    # coefficients recovered from generators at shrinking dt; weak couplings
    # keep the unfitted third-order tail below the comparison tolerance
    for _ in range(6):
        setup = random_joint_setup(rng, scale=0.1, squeeze=0.3)
        series = generator_series_from_joint(setup, 3)
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
                [series.A[k].reshape(-1), series.b[k], series.C[k].reshape(-1)]
            )
            assert np.abs(fitted[k] - packed).max() < 1e-5


def test_oscillator_bath_first_order_forms():
    bath = OscillatorBathSetup(E_S=1.0, E_A=1.3, nu_A=2.0, G=np.array([[0.3, 0.1], [-0.2, 0.4]]), dt=0.05)
    setup = to_joint_setup(bath)
    series = closed_form_series(setup, 2)
    det_g = np.linalg.det(bath.G)
    assert_allclose(series.A[0], bath.E_S * np.eye(2), atol=1e-14)
    assert_allclose(series.A[1], 0.5 * det_g * OMEGA2, atol=1e-14)
    assert_allclose(series.b[1], np.zeros(2), atol=1e-15)
    expected_c1 = bath.nu_A * OMEGA2 @ bath.G @ bath.G.T @ OMEGA2.T
    assert_allclose(series.C[1], expected_c1, atol=1e-14)


def test_decoupled_setup_has_free_terms_only(rng):
    f_s = np.array([[1.5, 0.2], [0.2, 0.7]])
    alpha_s = np.array([0.3, -0.5])
    setup = JointSetup(
        F_S=f_s, F_A=np.eye(2), G=np.zeros((2, 2)), alpha_S=alpha_s,
        alpha_A=np.array([0.4, 0.4]), X_A0=np.array([1.0, -1.0]),
        sigma_A0=2.0 * np.eye(2),
    )
    series = closed_form_series(setup, 2)
    assert_allclose(series.A[0], f_s)
    assert_allclose(series.b[0], alpha_s)
    for k in (1, 2):
        assert_allclose(series.A[k], np.zeros((2, 2)))
        assert_allclose(series.b[k], np.zeros(2))
        assert_allclose(series.C[k], np.zeros((2, 2)))


def test_parity_alternation(rng):
    for _ in range(20):
        setup = random_joint_setup(rng)
        series = generator_series_from_joint(setup, 3)
        for k in range(4):
            a = series.A[k]
            residual = a - a.T if k % 2 == 0 else a + a.T
            assert np.abs(residual).max() < 1e-12 * max(1.0, np.abs(a).max())


def test_dependence_audit(rng):
    # A depends only on (F_S, F_A, G); b is blind to sigma_A0; C is blind to
    # the linear parts and the ancilla mean
    base = random_joint_setup(rng, n_sys=1, n_anc=1)
    changed_linear = JointSetup(
        F_S=base.F_S, F_A=base.F_A, G=base.G,
        alpha_S=base.alpha_S + 1.0, alpha_A=base.alpha_A - 2.0,
        X_A0=base.X_A0 + 0.5, sigma_A0=base.sigma_A0,
    )
    changed_cov = JointSetup(
        F_S=base.F_S, F_A=base.F_A, G=base.G,
        alpha_S=base.alpha_S, alpha_A=base.alpha_A,
        X_A0=base.X_A0, sigma_A0=base.sigma_A0 + np.eye(2),
    )
    s0 = closed_form_series(base, 2)
    s_lin = closed_form_series(changed_linear, 2)
    s_cov = closed_form_series(changed_cov, 2)
    for k in range(3):
        assert np.array_equal(s0.A[k], s_lin.A[k])
        assert np.array_equal(s0.A[k], s_cov.A[k])
        assert np.array_equal(s0.b[k], s_cov.b[k])
        assert np.array_equal(s0.C[k], s_lin.C[k])


def test_first_noise_coefficient_is_psd(rng):
    for _ in range(50):
        setup = random_joint_setup(rng)
        series = closed_form_series(setup, 1)
        assert np.linalg.eigvalsh(series.C[1]).min() >= -1e-12


def test_can_purify():
    assert not can_purify(np.diag([1.0, 2.0]))  # symmetric never purifies
    assert can_purify(OMEGA2)  # trace(omega @ omega) = -2
    assert not can_purify(-OMEGA2)


def test_first_order_purify_examples(rng):
    flag, value = first_order_purify(rank_one_coupling(rng.normal(size=2), rng.normal(size=2)))
    assert not flag and value == pytest.approx(0.0, abs=1e-14)

    g = 0.7
    flag, value = first_order_purify(g * np.eye(2))
    assert flag and value == pytest.approx(-g * g, rel=1e-12)

    z = np.array([[1.0, 0.0], [0.0, -1.0]])
    flag, value = first_order_purify(g * z)
    assert not flag and value == pytest.approx(g * g, rel=1e-12)


def test_rank_one_couplings_never_purify_at_leading_order(rng):
    for _ in range(300):
        n_sys = int(rng.integers(1, 3))
        n_anc = int(rng.integers(1, 3))
        u = rng.normal(size=2 * n_sys)
        v = rng.normal(size=2 * n_anc)
        g = rank_one_coupling(u, v)
        assert np.linalg.matrix_rank(g) <= 1
        flag, value = first_order_purify(g)
        assert not flag
        assert abs(value) <= 1e-12


def test_rank_one_coupling_shapes():
    g = rank_one_coupling([1.0, 0.0], [1.0, 0.0])
    assert_allclose(g, [[1.0, 0.0], [0.0, 0.0]])
    assert_allclose(rank_one_coupling([0.0, 0.0], [1.0, 2.0]), np.zeros((2, 2)))


def test_truncated_cp_check_orders(rng):
    for _ in range(20):
        setup = random_joint_setup(rng)
        series = closed_form_series(setup, 2)
        res0 = truncated_cp_check(series, 0, 0.01)
        assert res0.ok and res0.margin == pytest.approx(0.0, abs=1e-13)
        assert truncated_cp_check(series, 1, 0.01).ok
        assert truncated_cp_check(series, 2, 0.01).ok
    with pytest.raises(ValueError, match="series only carries orders up to 2"):
        truncated_cp_check(series, 3, 0.01)


def test_third_order_cp_violation_fixture():
    # position-position coupling to ground-state ancillae: regression values
    # found by scanning step durations
    setup = JointSetup(
        F_S=1.3 * np.eye(2),
        F_A=0.7 * np.eye(2),
        G=np.array([[0.9, 0.0], [0.0, 0.0]]),
        sigma_A0=np.eye(2),
    )
    series = generator_series_from_joint(setup, 3)
    res = truncated_cp_check(series, 3, 0.2)
    assert not res.ok
    assert res.margin < -1e-4
    # the lower truncations of the same setup stay completely positive
    for order in (0, 1, 2):
        assert truncated_cp_check(series, order, 0.2).ok


def test_closed_form_order_cap(rng):
    setup = random_joint_setup(rng)
    with pytest.raises(ValueError):
        closed_form_series(setup, 3)
    with pytest.raises(ValueError, match="nonnegative"):
        generator_series_from_joint(setup, -1)


def test_series_json_shape(rng):
    series = closed_form_series(random_joint_setup(rng, n_sys=1), 2)
    obj = series.to_json_obj()
    assert [entry["k"] for entry in obj] == [0, 1, 2]
    assert np.asarray(obj[1]["A"]).shape == (2, 2)


def test_truncate_is_the_sum_over_orders_signs_of_zero_included(rng):
    # the cumulative route equals a Python sum over k of coeff_k dt^k, a sum
    # started from 0, on coefficients seeded with zeros of both signs
    for _ in range(200):
        order, n = int(rng.integers(0, 6)), 2 * int(rng.integers(1, 3))

        def draw(shape):
            x = rng.normal(size=shape) * (rng.random(shape) < 0.5)
            x[rng.random(shape) < 0.4] = -0.0
            return x

        a, b, c = draw((order + 1, n, n)), draw((order + 1, n)), draw((order + 1, n, n))
        series = GeneratorSeries(A=a, b=b, C=c)
        for k in range(order + 1):
            for dt in (0.3, -0.7, 0.0, 1e-200):
                got = series.truncate(k, dt)
                want_c = sum(c[j] * dt**j for j in range(k + 1))
                want = (
                    sum(a[j] * dt**j for j in range(k + 1)),
                    sum(b[j] * dt**j for j in range(k + 1)),
                    (want_c + want_c.T) / 2,
                )
                for g, w in zip((got.A, got.b, got.C), want):
                    assert g.tobytes() == np.asarray(w, dtype=float).tobytes()


def test_truncate_guard(rng):
    series = closed_form_series(random_joint_setup(rng), 1)
    with pytest.raises(ValueError):
        series.truncate(2, 0.01)


_MODES = st.integers(1, 3)


@PROPERTY
@given(n_sys=_MODES, n_anc=_MODES, order=st.integers(0, 10), seed=st.integers(0, 2**32 - 1))
def test_series_kernel_matches_the_list_route(n_sys, n_anc, order, seed):
    # every order of every coefficient family within 1e-14 of its largest
    # entry, orders 0 and 1 (no products of powers) included
    setup = random_joint_setup(np.random.default_rng(seed), n_sys=n_sys, n_anc=n_anc)
    series = generator_series_from_joint(setup, order)
    want = series_from_joint_lists(setup, order)
    for got, expected in zip((series.A, series.b, series.C), want):
        assert got.shape == expected.shape == (order + 1,) + expected.shape[1:]
        scale = np.abs(expected).max()
        assert np.abs(got - expected).max() <= 1e-14 * scale


@PROPERTY
@given(
    n_sys=_MODES, n_anc=_MODES, order=st.integers(0, 6), size=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_series_and_margins_equal_each_setups_own_bit_for_bit(
    n_sys, n_anc, order, size, seed
):
    rng = np.random.default_rng(seed)
    setups = [random_joint_setup(rng, n_sys=n_sys, n_anc=n_anc) for _ in range(size)]
    dt = float(rng.uniform(0.01, 0.3))
    stacks = generator_series_stack(setups, order)
    margins = truncated_cp_margins(stacks[0], stacks[2], dt)
    assert margins.shape == (size, order + 1)
    for i, setup in enumerate(setups):
        series = generator_series_from_joint(setup, order)
        for stack, own in zip(stacks, (series.A, series.b, series.C)):
            assert np.array_equal(stack[i], own)
        assert np.array_equal(margins[i], truncated_cp_margins(series.A, series.C, dt))


@PROPERTY
@given(n_sys=_MODES, n_anc=_MODES, order=st.integers(0, 10), seed=st.integers(0, 2**32 - 1))
def test_truncated_cp_margins_equal_the_check_of_each_truncation_bit_for_bit(
    n_sys, n_anc, order, seed
):
    # entry k is the margin of the generators summed through order k, taken
    # one truncation at a time, to the sign of a zero
    rng = np.random.default_rng(seed)
    setup = random_joint_setup(rng, n_sys=n_sys, n_anc=n_anc)
    series = generator_series_from_joint(setup, order)
    dt = float(rng.uniform(0.01, 0.3))
    margins = truncated_cp_margins(series.A, series.C, dt)
    for k in range(order + 1):
        want = cp_differential_check(series.truncate(k, dt)).margin
        assert float(margins[k]).hex() == want.hex()
        assert truncated_cp_check(series, k, dt).margin.hex() == want.hex()


def test_stack_orders_zero_and_one_and_the_order_check(rng):
    setups = [random_joint_setup(rng, n_sys=2, n_anc=1) for _ in range(3)]
    for order in (0, 1):
        a, b, c = generator_series_stack(setups, order)
        assert a.shape == (3, order + 1, 4, 4)
        closed = [closed_form_series(setup, order) for setup in setups]
        for i, want in enumerate(closed):
            assert_allclose(a[i], want.A, atol=1e-13)
            assert_allclose(b[i], want.b, atol=1e-13)
            assert_allclose(c[i], want.C, atol=1e-13)
    with pytest.raises(ValueError, match="nonnegative"):
        generator_series_stack(setups, -1)
    with pytest.raises(ValueError, match="mode counts"):
        generator_series_stack(setups + [random_joint_setup(rng, n_sys=1, n_anc=1)], 2)


def test_series_stacks_are_read_only(rng):
    series = generator_series_from_joint(random_joint_setup(rng), 3)
    assert series.A.shape[0] == len(series.b) == len(series.C) == 4
    for stack in (series.A, series.b, series.C):
        with pytest.raises(ValueError):
            stack[0] = 0.0
    with pytest.raises(MalformedSeriesError):
        GeneratorSeries(A=series.A, b=series.b[:2], C=series.C)


def test_truncated_cp_margins_see_signed_zeros_as_a_sum_from_zero(rng):
    # a sum started from 0 turns a -0.0 coefficient entry into +0.0; the
    # sign of a zero can steer the eigen-solve, so the margins see +0.0 too
    for n in (2, 4, 6):
        for _ in range(20):
            a = rng.normal(size=(2, n, n))
            c = rng.normal(size=(2, n, n))
            c = c + c.swapaxes(1, 2)
            a[0][rng.random((n, n)) < 0.5] = -0.0
            zeros = rng.random((n, n)) < 0.5
            c[0][zeros | zeros.T] = -0.0
            series = GeneratorSeries(A=a, b=np.zeros((2, n)), C=c)
            margins = truncated_cp_margins(series.A, series.C, 0.1)
            for k in range(2):
                want = cp_differential_check(series.truncate(k, 0.1)).margin
                assert float(margins[k]).hex() == want.hex()
