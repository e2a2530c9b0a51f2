"""Dense matrix kernels used throughout the package.

Provides the matrix exponential, the principal matrix logarithm, the block
upper-triangular lift [[a, b], [0, c]] that both are taken of, and the
smallest eigenvalue of a Hermitian matrix.  Everything is pure, operates on
small dense arrays, and is safe to call concurrently.
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


def block_upper(a, b, c):
    """The block upper-triangular lift [[a, b], [0, c]].

    The top-right block of exp([[a, b], [0, c]] t) is the integral of
    exp(a s) b exp(c (t - s)) over [0, t] (Van Loan, IEEE TAC 23(3):395,
    1978).  With c = 0 and b one column, it is the shift of the affine flow
    dX/dt = a X + b over time t.
    """
    n, m = a.shape[0], c.shape[0]
    out = np.zeros((n + m, n + m))
    out[:n, :n] = a
    out[:n, n:] = b
    out[n:, n:] = c
    return out


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
