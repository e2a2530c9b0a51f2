"""Dense matrix kernels used throughout the package.

Provides the matrix exponential, the principal matrix logarithm, the
divided-difference function (exp(x*t) - 1)/x and the smallest eigenvalue of
a Hermitian matrix.  Everything is pure, operates on small dense arrays, and
is safe to call concurrently.
"""

import numpy as np
import scipy.linalg

from .errors import (
    BranchCutError,
    DimensionMismatchError,
    NotHermitianError,
    SingularMatrixError,
)

# Default absolute tolerance for kernel postconditions.
DEFAULT_TOL = 1e-10

# Eigenvector condition number above which eigendecompositions are not
# trusted and Schur-based fallbacks are used instead.
EIG_COND_MAX = 1e8


def _as_square(m, name="matrix"):
    a = np.asarray(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"{name} must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} has non-finite entries")
    return a


def mat_exp(m):
    """Matrix exponential."""
    return scipy.linalg.expm(_as_square(m))


def mat_log_principal(m):
    """Principal matrix logarithm, with Log(identity) = 0 exactly.

    Uses a complex eigendecomposition when the eigenvector matrix is well
    conditioned and falls back to inverse scaling and squaring otherwise.

    Raises SingularMatrixError for singular input and BranchCutError when an
    eigenvalue lies on the closed negative real axis.
    """
    a = _as_square(m)
    evals, vecs = np.linalg.eig(a)
    mags = np.abs(evals)
    if float(mags.min()) <= 1e-14 * max(float(mags.max()), 1.0):
        raise SingularMatrixError(
            "mat_log_principal: input is singular to working precision"
        )
    on_cut = (evals.real < 0) & (np.abs(evals.imag) <= 1e-12 * np.maximum(mags, 1.0))
    if np.any(on_cut):
        raise BranchCutError(
            "mat_log_principal: eigenvalue on the closed negative real axis; "
            "reduce the step duration and retry"
        )
    evals = evals.astype(complex)
    if np.linalg.cond(vecs) <= EIG_COND_MAX:
        out = (vecs * np.log(evals)) @ np.linalg.inv(vecs)
    else:
        out = scipy.linalg.logm(a)
    if np.isrealobj(a):
        return np.ascontiguousarray(out.real)
    return out


def expm1_div(x, t):
    """Evaluate (exp(x*t) - 1)/x, which is entire in x and valid for singular x.

    Equals the series sum_m t^(m+1)/(m+1)! x^m.  Computed exactly through the
    exponential of the block matrix [[x, 1], [0, 0]], whose top-right block is
    the integral of exp(x*s) over [0, t].
    """
    a = _as_square(x)
    n = a.shape[0]
    aug = np.zeros((2 * n, 2 * n), dtype=a.dtype)
    aug[:n, :n] = a
    aug[:n, n:] = np.eye(n)
    return scipy.linalg.expm(aug * t)[:n, n:]


def min_eig_hermitian(m, hermitian_tol=DEFAULT_TOL):
    """Smallest eigenvalue of a Hermitian matrix.

    Raises NotHermitianError when the input deviates from its conjugate
    transpose by more than hermitian_tol relative to max(1, norm).
    """
    a = _as_square(m)
    scale = max(1.0, float(np.abs(a).max()))
    if np.abs(a - a.conj().T).max() > hermitian_tol * scale:
        raise NotHermitianError("input is not Hermitian within tolerance")
    return float(np.linalg.eigvalsh((a + a.conj().T) / 2)[0])
