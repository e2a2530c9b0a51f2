"""Gaussian states on phase space and the lift of the quadratic
Hamiltonians that move them.

A state of N modes is a mean vector of length 2N and a real symmetric 2N x 2N
covariance matrix, in the quadrature ordering (q1, p1, ..., qN, pN) with
dimensionless units in which [q, p] = i.  Valid states satisfy the
uncertainty bound: cov + i*Omega is positive semi-definite.  A quadratic
Hamiltonian (F, alpha) moves them by the exponential of its affine lift
(:func:`affine_lift`), which rapidgauss.channels.reduce_from_joint takes of
the joint system-ancilla Hamiltonian.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import DimensionMismatchError, InvalidSetupError, InvalidStateError
from .linalg import psd_margin

# min eigenvalue of (cov + i Omega) may dip this far below zero, relative to
# max(1, |cov|), before a state is called invalid; absorbs roundoff
# accumulated over long trajectories
STATE_TOL = 1e-9

# largest asymmetry |m - m^T| that a symmetric matrix field may carry,
# relative to max(1, max|m|)
SYMMETRY_TOL = 1e-12


def symplectic_form(n_modes):
    """Block-diagonal symplectic form for n_modes modes."""
    if n_modes < 1:
        raise InvalidSetupError("n_modes must be at least 1")
    n = 2 * n_modes
    out = np.zeros((n, n))
    # entries (2k, 2k+1) and (2k+1, 2k) lie 2n + 2 apart in the flat array
    flat = out.reshape(-1)
    flat[1 :: 2 * n + 2] = 1.0
    flat[n :: 2 * n + 2] = -1.0
    return out


def affine_lift(f, alpha):
    """The lift [[Omega F, Omega alpha], [0, 0]] that generates the flow of
    the Hamiltonian (F, alpha) on (X, 1) (Van Loan, IEEE TAC 23(3):395,
    1978).  Stacks of F and alpha give the stack of their members' lifts."""
    n = np.shape(f)[-1]
    omega = symplectic_form(n // 2)
    lift = np.zeros(np.shape(f)[:-2] + (n + 1, n + 1))
    lift[..., :n, :n], lift[..., :n, n] = omega @ f, alpha @ omega.T
    return lift


def _frozen_array(obj, field, value):
    a = np.array(value, dtype=float)
    a.setflags(write=False)
    object.__setattr__(obj, field, a)
    return a


def _check_symmetric(m, what, exc, scale):
    # halves, so that finite entries near the float limit cannot overflow;
    # h - h^T is antisymmetric, so its largest entry is its largest magnitude
    half = m / 2
    if (half - half.T).max() > SYMMETRY_TOL / 2 * max(1.0, scale):
        raise exc(f"{what} must be symmetric")


def _frozen_arrays(
    obj, vector, matrices, asymmetric=InvalidSetupError, nonfinite=InvalidSetupError
):
    """Freeze the fields of obj, a frozen dataclass, that hold a phase-space
    vector and the matrices acting on it as read-only float arrays, and check
    them in one order: all finite (else `nonfinite`); the first matrix 2N x 2N
    with N >= 1, the others and the vector matching it (else
    DimensionMismatchError); each matrix that `matrices` maps to True
    symmetric (else `asymmetric`).  A vector field holding None becomes zeros;
    vector=None checks the matrices alone.  Messages name the field."""
    # (name, array, largest magnitude): NaN or inf exactly where an entry is
    checked = []
    for name in matrices:
        a = _frozen_array(obj, name, getattr(obj, name))
        checked.append((name, a, abs(a).max(initial=0.0)))
    first, m, _ = checked[0]
    if vector is not None:
        v = getattr(obj, vector)
        v = _frozen_array(obj, vector, np.zeros(m.shape[:1]) if v is None else v)
        checked.append((vector, v, abs(v).max(initial=0.0)))
    for name, _, scale in checked:
        if not math.isfinite(scale):
            raise nonfinite(f"{name} has non-finite entries")
    n = len(m) if m.ndim else 0
    if m.shape != (n, n) or n == 0 or n % 2:
        raise DimensionMismatchError(f"{first} must be 2N x 2N with N >= 1, got shape {m.shape}")
    for name, a, _ in checked:
        if a.shape != ((n,) if name == vector else (n, n)):
            raise DimensionMismatchError(f"{name} must match {first} ({n}x{n}), got {a.shape}")
    for (name, a, scale), symmetric in zip(checked, matrices.values()):
        if symmetric:
            _check_symmetric(a, name, asymmetric, scale)


class _PhaseSpaceRecord:
    """Base of the frozen dataclasses of phase-space arrays, such as states
    (mean, cov), channels (T, d, R) and generators (A, b, C), whose first
    field has length 2N."""

    @property
    def n_modes(self):
        return len(getattr(self, fields(self)[0].name)) // 2


@dataclass(frozen=True)
class GaussianState(_PhaseSpaceRecord):
    """First and second moments of a Gaussian state: mean vector and covariance."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        _frozen_arrays(
            self, "mean", {"cov": True}, asymmetric=InvalidStateError, nonfinite=ValueError
        )


@dataclass(frozen=True)
class StateValidation:
    """Outcome of the uncertainty-bound check."""

    ok: bool
    min_eig: float
    message: str = ""


def validate_state(state):
    """Check the uncertainty bound: min eig of (cov + i Omega) >= -STATE_TOL*scale."""
    return _check_uncertainty(state.cov)


def _check_uncertainty(cov):
    low = psd_margin(cov, -symplectic_form(len(cov) // 2))
    scale = max(1.0, float(np.abs(cov).max()))
    if low >= -STATE_TOL * scale:
        return StateValidation(ok=True, min_eig=low)
    return StateValidation(
        ok=False,
        min_eig=low,
        message=f"uncertainty bound violated: min eig {low:.3e} < {-STATE_TOL * scale:.3e}",
    )


def purity(state):
    """Purity of a Gaussian state, 1/det(cov); 1 for pure states."""
    check = validate_state(state)
    if not check.ok:
        raise InvalidStateError(check.message)
    return 1.0 / float(np.linalg.det(state.cov))


def thermal_state(nu, n_modes=1):
    """Thermal state with covariance nu * identity and zero mean; nu >= 1."""
    if nu < 1.0:
        raise InvalidSetupError(f"thermal parameter must be >= 1, got {nu}")
    return GaussianState(mean=np.zeros(2 * n_modes), cov=nu * np.eye(2 * n_modes))


def nu_from_beta(beta, energy):
    """Thermal covariance scale nu = (e^(beta E) + 1)/(e^(beta E) - 1)."""
    x = beta * energy
    if not x > 0:
        raise InvalidSetupError(f"beta*energy must be positive, got {x}")
    return 1.0 / np.tanh(x / 2.0)


def beta_from_nu(nu, energy):
    """Inverse of :func:`nu_from_beta`; nu = 1 maps to infinite beta."""
    if energy <= 0:
        raise InvalidSetupError("energy must be positive")
    if nu < 1.0:
        raise InvalidSetupError(f"nu must be >= 1, got {nu}")
    if nu == 1.0:
        return np.inf
    return 2.0 * np.arctanh(1.0 / nu) / energy
