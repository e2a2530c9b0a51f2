"""Gaussian states on phase space and the quadratic Hamiltonians that move them.

A state of N modes is a mean vector of length 2N and a real symmetric 2N x 2N
covariance matrix, in the quadrature ordering (q1, p1, ..., qN, pN) with
dimensionless units in which [q, p] = i.  Valid states satisfy the
uncertainty bound: cov + i*Omega is positive semi-definite.  The flow of a
quadratic Hamiltonian over a time t is the noiseless Gaussian channel
:func:`rapidgauss.channels.hamiltonian_flow`.
"""

from dataclasses import dataclass, fields

import numpy as np

from .errors import DimensionMismatchError, InvalidSetupError, InvalidStateError
from .linalg import block_upper, psd_margin

# min eigenvalue of (cov + i Omega) may dip this far below zero, relative to
# max(1, |cov|), before a state is called invalid; absorbs roundoff
# accumulated over long trajectories
STATE_TOL = 1e-9

_omega_block = np.array([[0.0, 1.0], [-1.0, 0.0]])


def symplectic_form(n_modes):
    """Block-diagonal symplectic form for n_modes modes."""
    if n_modes < 1:
        raise InvalidSetupError("n_modes must be at least 1")
    out = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        out[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = _omega_block
    return out


def _frozen_array(obj, field, value):
    a = np.array(value, dtype=float)
    a.setflags(write=False)
    object.__setattr__(obj, field, a)


def _check_symmetric(m, what, tol=1e-12, exc=InvalidSetupError):
    scale = max(1.0, float(np.abs(m).max()))
    if np.abs(m - m.T).max() > tol * scale:
        raise exc(f"{what} must be symmetric")


class _NoisyAffineMap:
    """Base of the frozen dataclasses that declare three array fields, a
    matrix, a shift and a symmetric noise, such as channels (T, d, R) and
    generators (A, b, C).  Their JSON form maps each field name to lists."""

    def __post_init__(self):
        m, v, r = names = [f.name for f in fields(self)]
        for name in names:
            _frozen_array(self, name, getattr(self, name))
        matrix, shift, noise = (getattr(self, name) for name in names)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1] or matrix.shape[0] % 2:
            raise DimensionMismatchError(f"{m} must be square of even dimension (full modes)")
        n = matrix.shape[0]
        if shift.shape != (n,) or noise.shape != (n, n):
            raise DimensionMismatchError(f"{v} and {r} must match {m}")
        _check_symmetric(noise, f"noise {r}")

    @property
    def n_modes(self):
        return getattr(self, fields(self)[0].name).shape[0] // 2

    def to_dict(self):
        return {f.name: getattr(self, f.name).tolist() for f in fields(self)}

    @classmethod
    def from_dict(cls, obj):
        return cls(**{f.name: np.asarray(obj[f.name]) for f in fields(cls)})


@dataclass(frozen=True)
class GaussianState:
    """First and second moments of a Gaussian state: mean vector and covariance."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        _frozen_array(self, "mean", self.mean)
        _frozen_array(self, "cov", self.cov)
        if self.mean.ndim != 1:
            raise DimensionMismatchError("mean must be a vector")
        d = self.mean.size
        if d == 0 or d % 2 != 0:
            raise DimensionMismatchError("mean length must be a positive even number")
        if self.cov.shape != (d, d):
            raise DimensionMismatchError(
                f"cov shape {self.cov.shape} does not match mean length {d}"
            )
        if not (np.all(np.isfinite(self.mean)) and np.all(np.isfinite(self.cov))):
            raise ValueError("state has non-finite entries")
        _check_symmetric(self.cov, "covariance", exc=InvalidStateError)

    @property
    def n_modes(self):
        return self.mean.size // 2

    def to_dict(self):
        return {"mean": self.mean.tolist(), "cov": self.cov.tolist()}

    @classmethod
    def from_dict(cls, obj):
        return cls(mean=np.asarray(obj["mean"]), cov=np.asarray(obj["cov"]))


@dataclass(frozen=True)
class QuadraticHamiltonian:
    """Quadratic generator: symmetric matrix F plus linear vector alpha."""

    F: np.ndarray
    alpha: np.ndarray = None

    def __post_init__(self):
        _frozen_array(self, "F", self.F)
        if self.F.ndim != 2 or self.F.shape[0] != self.F.shape[1]:
            raise DimensionMismatchError("F must be square")
        if self.F.shape[0] % 2 != 0:
            raise DimensionMismatchError("F must act on full modes (even dimension)")
        _check_symmetric(self.F, "F")
        alpha = np.zeros(self.F.shape[0]) if self.alpha is None else self.alpha
        _frozen_array(self, "alpha", alpha)
        if self.alpha.shape != (self.F.shape[0],):
            raise DimensionMismatchError("alpha length must match F")

    @property
    def n_modes(self):
        return self.F.shape[0] // 2

    def affine_generator(self):
        """The affine lift [[Omega F, Omega alpha], [0, 0]], generator of the
        flow on (X, 1)."""
        omega = symplectic_form(self.n_modes)
        return block_upper(omega @ self.F, (omega @ self.alpha)[:, None], np.zeros((1, 1)))


@dataclass(frozen=True)
class StateValidation:
    """Outcome of the uncertainty-bound check."""

    ok: bool
    min_eig: float
    message: str = ""


def validate_state(state):
    """Check the uncertainty bound: min eig of (cov + i Omega) >= -STATE_TOL*scale."""
    low = psd_margin(state.cov, -symplectic_form(state.n_modes))
    scale = max(1.0, float(np.abs(state.cov).max()))
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
