import numpy as np
import pytest
from numpy.testing import assert_allclose

from rapidgauss.bombardment import closed_form_series
from rapidgauss.classifier import (
    CLASSIFY_EPS,
    DYNAMICS_TYPES,
    allowed_types,
    block_decompose,
    classify,
    table_availability,
)
from rapidgauss.errors import DimensionMismatchError
from rapidgauss.interpolation import Generators
from rapidgauss.sampling import random_joint_setup
from rapidgauss.thermalization import OscillatorBathSetup, to_joint_setup

from helpers import block_sum, block_trace_projection, classify_flags_loop

OMEGA2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def test_block_decompose_basis_elements():
    # coefficients over {1, omega, X, Z}, in that order
    assert block_decompose(OMEGA2)[0, 0].tolist() == [0.0, 1.0, 0.0, 0.0]
    assert block_decompose(np.eye(2))[0, 0].tolist() == [1.0, 0.0, 0.0, 0.0]


def test_block_decompose_round_trip(rng):
    for n in range(1, 13):
        for _ in range(5):
            m = rng.uniform(-3, 3, (2 * n, 2 * n))
            dec = block_decompose(m)
            assert dec.shape == (n, n, 4)
            assert_allclose(block_sum(dec), m, atol=1e-14)


def test_block_decompose_equals_trace_projection_bit_for_bit(rng):
    for n in range(1, 13):
        m = rng.normal(size=(2 * n, 2 * n)) * 10.0 ** rng.uniform(-8, 8, (2 * n, 2 * n))
        for mat in (m, (m + m.T) / 2, (m - m.T) / 2):
            assert np.array_equal(block_decompose(mat), block_trace_projection(mat))


def test_block_decompose_rejects_odd_dimension():
    with pytest.raises(DimensionMismatchError):
        block_decompose(np.eye(3))


def _gen(a=None, b=None, c=None, n=2):
    return Generators(
        A=np.zeros((n, n)) if a is None else np.asarray(a, float),
        b=np.zeros(n) if b is None else np.asarray(b, float),
        C=np.zeros((n, n)) if c is None else np.asarray(c, float),
    )


def test_classify_free_oscillator():
    report = classify(_gen(a=1.5 * np.eye(2)))
    assert report.present == {"single_mode_rotation"}


def test_classify_first_order_exchange_generators():
    # A ~ omega with thermal noise: amplification plus thermal noise only
    g = 0.3 * np.eye(2)
    report = classify(
        _gen(a=0.5 * np.linalg.det(g) * OMEGA2, c=2.0 * OMEGA2 @ g @ g.T @ OMEGA2.T)
    )
    assert report.present == {"amplification_relaxation", "thermal_noise"}


def test_classify_displacement_only():
    report = classify(_gen(b=[0.0, 0.7]))
    assert report.present == {"displacement"}


def test_classify_zero_generators():
    report = classify(_gen())
    assert report.present == set()


def test_classify_squeezed_noise_and_multimode():
    z = np.array([[1.0, 0.0], [0.0, -1.0]])
    report = classify(_gen(c=np.eye(2) + 0.3 * z))
    assert report.present == {"thermal_noise", "single_mode_squeezed_noise"}

    c = np.zeros((4, 4))
    c[:2, 2:] = 0.2 * np.eye(2)
    c[2:, :2] = 0.2 * np.eye(2)
    report = classify(_gen(c=c, n=4))
    assert report.present == {"multi_mode_noise"}

    a = np.zeros((4, 4))
    a[:2, 2:] = 0.4 * np.eye(2)
    a[2:, :2] = 0.4 * np.eye(2)  # symmetric off-diagonal: beam-splitter mixing
    report = classify(_gen(a=a, n=4))
    assert report.present == {"multi_mode_rotation"}

    a[2:, :2] = -0.4 * np.eye(2)  # antisymmetric: counter-rotation
    report = classify(_gen(a=a, n=4))
    assert report.present == {"multi_mode_counter_rotation"}

    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    a = np.zeros((4, 4))
    a[:2, 2:] = 0.4 * x
    a[2:, :2] = 0.4 * x
    report = classify(_gen(a=a, n=4))
    assert report.present == {"multi_mode_squeezing"}
    a[2:, :2] = -0.4 * x
    report = classify(_gen(a=a, n=4))
    assert report.present == {"multi_mode_counter_squeezing"}


def test_threshold_is_relative():
    a = 1e6 * np.eye(2) + 1e-6 * np.array([[0.0, 1.0], [-1.0, 0.0]])
    report = classify(_gen(a=a))
    # the omega admixture sits below CLASSIFY_EPS * scale and must not raise a flag
    assert report.present == {"single_mode_rotation"}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_classify_matches_block_loop_at_the_threshold(n):
    # b sets the generator scale to 1, so the threshold is eps; each planted
    # entry moves one or two block coefficients to just above or just below it
    eps = CLASSIFY_EPS
    dim = 2 * n
    b = np.zeros(dim)
    b[0] = 1.0
    seen = set()
    for r in range(dim):
        for c in range(dim):
            for size in (2 * eps, 4 * eps):
                for factor in (1 + 1e-6, 1 - 1e-6):
                    a = np.zeros((dim, dim))
                    a[r, c] = size * factor
                    noise = np.zeros((dim, dim))
                    noise[r, c] = noise[c, r] = size * factor
                    for gen in (_gen(a=a, b=b, n=dim), _gen(c=noise, b=b, n=dim)):
                        flags = classify(gen).to_dict()
                        assert flags == classify_flags_loop(gen.A, gen.b, gen.C, eps=eps)
                        seen.add(frozenset(name for name in flags if flags[name]))
    # the planted entries both raise and miss flags
    assert frozenset({"displacement"}) in seen and len(seen) > 2
    a = np.zeros((dim, dim))
    a[0, 0] = 2 * eps * (1 + 1e-6)
    assert classify(_gen(a=a, b=b, n=dim))["single_mode_rotation"]
    a[0, 0] = 2 * eps * (1 - 1e-6)
    assert not classify(_gen(a=a, b=b, n=dim))["single_mode_rotation"]


def test_table_availability_zeroth_order_free_only():
    # resonant bath with zero-mean ancillae: nothing induced at leading order
    bath = OscillatorBathSetup(
        E_S=1.0, E_A=1.0, nu_A=2.0, G=np.array([[0.2, 0.0], [0.0, 0.1]]), dt=0.05
    )
    series = closed_form_series(to_joint_setup(bath), 2)
    report = table_availability(series, 0)
    assert report.present == {"single_mode_rotation"}
    assert not report["displacement"]


def test_table_availability_respects_parity(rng):
    for _ in range(50):
        setup = random_joint_setup(rng)
        series = closed_form_series(setup, 2)
        for order in range(3):
            report = table_availability(series, order)
            assert report.present <= allowed_types(order)
        assert not table_availability(series, 2)["amplification_relaxation"]


def test_allowed_types_structure():
    assert "amplification_relaxation" in allowed_types(1)
    assert "amplification_relaxation" not in allowed_types(2)
    assert "single_mode_rotation" not in allowed_types(1)
    assert "displacement" in allowed_types(0)
    assert "thermal_noise" not in allowed_types(0)
    assert allowed_types(3) == allowed_types(1)
    assert allowed_types(4) == allowed_types(2)


def test_report_json_keys(rng):
    series = closed_form_series(random_joint_setup(rng), 1)
    obj = table_availability(series, 1).to_dict()
    assert set(obj) == set(DYNAMICS_TYPES)
    assert all(isinstance(v, bool) for v in obj.values())
