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
approximation keeps.
"""

from dataclasses import dataclass

import numpy as np

from .bombardment import closed_form_series
from .channels import JointSetup, apply_sequence, reduce_from_joint
from .errors import DimensionMismatchError, InvalidSetupError
# propagate is imported, not called: bench/test_bench.py expects the binding
from .interpolation import gap_channels, propagate  # noqa: F401
from .phasespace import GaussianState, _frozen_array, beta_from_nu

_OMEGA = np.array([[0.0, 1.0], [-1.0, 0.0]])
_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_Z = np.array([[1.0, 0.0], [0.0, -1.0]])

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
        _frozen_array(self, "G", self.G)
        if self.G.shape != (2, 2):
            raise DimensionMismatchError("G must be 2x2 for the oscillator bath")
        if self.E_S <= 0 or self.E_A <= 0:
            raise InvalidSetupError("energy gaps must be positive")
        if self.nu_A < 1.0:
            raise InvalidSetupError("bath thermal parameter must be >= 1")
        if self.dt <= 0:
            raise InvalidSetupError("dt must be positive")


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


def coefficient_rhs(coeffs, setup):
    """Time derivatives of (nu, s_cross, s_plus) under the first-order flow."""
    g = setup.G
    det_g = float(np.linalg.det(g))
    damp = setup.dt * det_g
    drive = 0.5 * setup.dt * setup.nu_A
    return CovCoefficients(
        nu=-damp * coeffs.nu + drive * float(np.trace(g.T @ g)),
        s_cross=(
            -2.0 * setup.E_S * coeffs.s_plus
            - damp * coeffs.s_cross
            - drive * float(np.trace(g.T @ _X @ g))
        ),
        s_plus=(
            2.0 * setup.E_S * coeffs.s_cross
            - damp * coeffs.s_plus
            - drive * float(np.trace(g.T @ _Z @ g))
        ),
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
    Tr(G^T G) = 2 det(G).  The passivity flag records whether
    beta_S(inf) E_S <= beta_A E_A, which the bound nu_tilde >= nu_A
    guarantees whenever the fixed point exists.
    """
    g = setup.G
    det_g = float(np.linalg.det(g))
    gram_trace = float(np.trace(g.T @ g))
    has_fp = det_g > 0
    nu_tilde = gram_trace / (2.0 * det_g) * setup.nu_A if has_fp else None
    saturated = abs(gram_trace - 2.0 * det_g) <= SATURATION_TOL
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
    time to the next with the exact channel of the gap (no stepping error;
    see :func:`rapidgauss.interpolation.gap_channels`).  `sigma0` is checked
    once, as the covariance of a GaussianState; the steps run on stacked
    arrays (:func:`rapidgauss.channels.apply_sequence`).  Returns a list of
    (t, CovCoefficients, purity) tuples.
    """
    gens = first_order_generators(setup)
    sigma0 = np.asarray(sigma0, dtype=float)
    start = GaussianState(mean=np.zeros(sigma0.shape[0]), cov=sigma0)
    times = [float(t) for t in times]
    _, covs = apply_sequence(gap_channels(gens, times), start.mean, start.cov)
    return [
        (t, decompose_cov(cov), 1.0 / float(np.linalg.det(cov)))
        for t, cov in zip(times, covs)
    ]


def discrete_asymptote(setup):
    """Fixed covariance of the exact one-collision channel, or None.

    Solves sigma = T sigma T^T + R for the reduced channel at the setup's dt;
    only contractive channels (spectral radius of T below one) have one.
    """
    channel = reduce_from_joint(to_joint_setup(setup))
    t = channel.T
    if np.abs(np.linalg.eigvals(t)).max() >= 1.0:
        return None
    n = t.shape[0]
    lhs = np.eye(n * n) - np.kron(t, t)
    sig = np.linalg.solve(lhs, channel.R.reshape(-1)).reshape(n, n)
    return (sig + sig.T) / 2
