"""Single oscillator bombarded by a stream of thermal oscillators.

At first order in the step duration the covariance obeys three linear
coefficient equations over the basis {1, X, Z}:

    d(nu)/dt      = -dt det(G) nu + (dt/2) Tr(G^T G) nu_A
    d(s_x)/dt     = -2 E_S s_+ - dt det(G) s_x - (dt/2) Tr(G^T X G) nu_A
    d(s_+)/dt     =  2 E_S s_x - dt det(G) s_+ - (dt/2) Tr(G^T Z G) nu_A

They have an attractive fixed point exactly when det(G) > 0, reached at
rate dt*det(G), with limiting temperature scale
nu_tilde = Tr(G^T G)/(2 det G) * nu_A >= nu_A.  Equality holds only for the
excitation-exchange couplings G = g1 + gw*omega, the ones a rotating-wave
approximation keeps.  The equations are the {1, X, Z} components of the
first-order master equation (:func:`first_order_generators`), which is what
:func:`simulate_first_order` steps; :func:`analyze` reports their fixed
point in closed form.
"""

from dataclasses import dataclass

import numpy as np

from .bombardment import closed_form_series
from .channels import JointSetup, _square, apply_runs, reduce_from_joint
from .errors import DimensionMismatchError, InvalidSetupError
# propagate is imported, not called: bench/test_bench.py expects the binding
from .interpolation import gap_runs, propagate  # noqa: F401
from .phasespace import GaussianState, _frozen_arrays, beta_from_nu

_OMEGA = np.array([[0.0, 1.0], [-1.0, 0.0]])
_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_Z = np.array([[1.0, 0.0], [0.0, -1.0]])

# Relative tolerance of Tr(G^T G) = 2 det(G), the saturation condition.
SATURATION_TOL = 1e-12


@dataclass(frozen=True)
class OscillatorBathSetup:
    """Oscillator with gap E_S in a bath of gap-E_A oscillators at thermal
    parameter nu_A, coupled through a 2x2 block G, one collision per dt."""

    E_S: float
    E_A: float
    nu_A: float
    G: np.ndarray
    dt: float

    def __post_init__(self):
        _frozen_arrays(self, None, {"G": False})
        if self.G.shape != (2, 2):
            raise DimensionMismatchError("G must be 2x2 for the oscillator bath")
        if not (0 < self.E_S < np.inf and 0 < self.E_A < np.inf):
            raise InvalidSetupError("energy gaps must be positive and finite")
        if not 1.0 <= self.nu_A < np.inf:
            raise InvalidSetupError("bath thermal parameter must be >= 1 and finite")
        if not 0 < self.dt < np.inf:
            raise InvalidSetupError("dt must be positive and finite")


@dataclass(frozen=True)
class CovCoefficients:
    """Coefficients of a 2x2 covariance over {1, X, Z}."""

    nu: float
    s_cross: float
    s_plus: float

    def to_cov(self):
        return self.nu * np.eye(2) + self.s_cross * _X + self.s_plus * _Z


def decompose_cov(sigma):
    """Unique coefficients of a symmetric 2x2 matrix over {1, X, Z}.

    A stack (..., 2, 2) of matrices gives each coefficient as an array over
    the stack, with the same arithmetic per matrix.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape[-2:] != (2, 2):
        raise DimensionMismatchError("expected a 2x2 covariance")
    return CovCoefficients(
        nu=0.5 * (sigma[..., 0, 0] + sigma[..., 1, 1]),
        s_cross=0.5 * (sigma[..., 0, 1] + sigma[..., 1, 0]),
        s_plus=0.5 * (sigma[..., 0, 0] - sigma[..., 1, 1]),
    )


@dataclass(frozen=True)
class ThermalReport:
    """Fixed-point analysis of the oscillator-bath dynamics."""

    has_fixed_point: bool
    nu_infinity: float | None
    rate: float
    nu_tilde: float | None
    cooling_saturated: bool
    passivity_ok: bool | None

    def to_dict(self):
        return {
            "has_fixed_point": self.has_fixed_point,
            "nu_infinity": self.nu_infinity,
            "rate": self.rate,
            "nu_tilde": self.nu_tilde,
            "cooling_saturated": self.cooling_saturated,
            "passivity_ok": self.passivity_ok,
        }


def analyze(setup):
    """Fixed-point report for an oscillator-bath setup.

    A fixed point exists iff det(G) > 0; it sits at nu_tilde with approach
    rate dt*det(G).  Cooling saturates (nu_infinity = nu_A) exactly when
    Tr(G^T G) = 2 det(G), tested to SATURATION_TOL relative to Tr(G^T G)
    so that the flag does not depend on the scale of G.  The passivity flag
    records whether beta_S(inf) E_S <= beta_A E_A, which the bound
    nu_tilde >= nu_A guarantees whenever the fixed point exists.
    """
    g = setup.G
    det_g = float(np.linalg.det(g))
    gram_trace = float(np.trace(g.T @ g))
    has_fp = det_g > 0
    nu_tilde = gram_trace / (2.0 * det_g) * setup.nu_A if has_fp else None
    saturated = abs(gram_trace - 2.0 * det_g) <= SATURATION_TOL * gram_trace
    passivity = None
    if has_fp:
        beta_sys = beta_from_nu(nu_tilde, setup.E_S) * setup.E_S
        beta_anc = beta_from_nu(setup.nu_A, setup.E_A) * setup.E_A
        passivity = bool(beta_sys <= beta_anc + 1e-12)
    return ThermalReport(
        has_fixed_point=has_fp,
        nu_infinity=nu_tilde if has_fp else None,
        rate=setup.dt * det_g,
        nu_tilde=nu_tilde,
        cooling_saturated=saturated,
        passivity_ok=passivity,
    )


def rwa_coupling(g1, gw):
    """Excitation-exchange coupling G = g1*1 + gw*omega; det = g1^2 + gw^2."""
    return g1 * np.eye(2) + gw * _OMEGA


def ladder_coupling(g, h):
    """Coupling block of the generic ladder-operator interaction.

    With a = (q + i p)/sqrt(2), the interaction g a_S a_A^dag + h.c. maps to
    Re(g)*1 + Im(g)*omega and h a_S^dag a_A^dag + h.c. maps to
    Re(h)*Z + Im(h)*X, fixing det(G) = |g|^2 - |h|^2 and
    Tr(G^T G) = 2(|g|^2 + |h|^2).
    """
    g = complex(g)
    h = complex(h)
    return g.real * np.eye(2) + g.imag * _OMEGA + h.real * _Z + h.imag * _X


def to_joint_setup(setup):
    """Bombardment setup (resonant oscillators, thermal ancillae) for the
    oscillator bath."""
    return JointSetup(
        F_S=setup.E_S * np.eye(2),
        F_A=setup.E_A * np.eye(2),
        G=setup.G,
        sigma_A0=setup.nu_A * np.eye(2),
        dt=setup.dt,
    )


def first_order_generators(setup):
    """Generators of the first-order master equation for the oscillator bath."""
    return closed_form_series(to_joint_setup(setup), order=1).truncate(1, setup.dt)


def simulate_first_order(setup, sigma0, times):
    """Covariance coefficients along the first-order flow at the given
    nondecreasing times.

    The flow is linear with constant generators, so it is stepped from each
    time to the next with the exact channel of the gap (no stepping error),
    one exponential per distinct float gap and one run (channel, count) per
    stretch of equal gaps (see :func:`rapidgauss.interpolation.gap_runs`;
    the CLI passes it integer collision counts with unit dt instead, for one
    exponential per step count).  `sigma0` is checked once, as the
    covariance of a GaussianState; the runs are stepped by
    :func:`rapidgauss.channels.apply_runs`, which fills each by state
    doubling and so agrees with stepping gap by gap to rounding.  Returns a
    list of (t, CovCoefficients, purity) tuples.
    """
    gens = first_order_generators(setup)
    start = GaussianState(mean=np.zeros(np.shape(sigma0)[:1]), cov=sigma0)
    times = [float(t) for t in times]
    _, covs = apply_runs(gap_runs(gens, times), start.mean, start.cov)
    return [
        (t, decompose_cov(cov), 1.0 / float(np.linalg.det(cov)))
        for t, cov in zip(times, covs)
    ]


def discrete_asymptote(setup):
    """Fixed covariance of the exact one-collision channel, or None.

    Solves sigma = T sigma T^T + R for the reduced channel at the setup's dt;
    only contractive channels (spectral radius rho of T below one) have one.
    Smith's doubling squares the channel until its R, the noise of 2^k
    collisions, no longer changes; that is None past 64 squarings, as for
    rho >= 1.  The relative error is about eps / (1 - rho).
    """
    channel = reduce_from_joint(to_joint_setup(setup))
    t, d, r = channel.T, channel.d, channel.R
    if np.abs(np.linalg.eigvals(t)).max() >= 1.0:
        return None
    for _ in range(64):
        t, d, summed = _square(t, d, r)
        if np.array_equal(summed, r):
            return summed
        r = summed
    return None
