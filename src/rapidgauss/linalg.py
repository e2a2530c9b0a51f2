"""Dense matrix kernels used throughout the package.

Provides the matrix exponential, the principal matrix logarithm, the block
upper-triangular lift [[a, b], [0, c]] that both are taken of, and the
margin of the uncertainty bound that states, channels and generators all
satisfy.  Everything is pure, operates on small dense arrays, and is safe to
call concurrently.
"""

import numpy as np
import scipy.linalg

from .errors import BranchCutError, DimensionMismatchError, SingularMatrixError

# Eigenvector condition number above which eigendecompositions are not
# trusted and Schur-based fallbacks are used instead.
EIG_COND_MAX = 1e8


def _as_square(m, name="matrix"):
    """m as an array of one square matrix or of a stack (..., n, n) of them;
    its entries must be finite."""
    a = np.asarray(m)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatchError(f"{name} must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} has non-finite entries")
    return a


def mat_exp(m):
    """Matrix exponential, of one matrix or of each matrix of a stack."""
    return scipy.linalg.expm(_as_square(m))


def mat_log_principal(m):
    """Principal matrix logarithm, with Log(identity) = 0 exactly.

    Uses a complex eigendecomposition when the eigenvector matrix is well
    conditioned and falls back to inverse scaling and squaring otherwise.

    Raises SingularMatrixError for singular input and BranchCutError when an
    eigenvalue lies on the closed negative real axis.
    """
    a = _as_square(m)
    if a.ndim != 2:
        raise DimensionMismatchError(f"matrix must be one square matrix, got shape {a.shape}")
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


def psd_margin(noise, twist):
    """Smallest eigenvalue of the Hermitian sym(noise) - i antisym(twist).

    This is the uncertainty bound of states (cov, -Omega), of channels
    (R, T Omega T^T - Omega) and of generators (C, Omega (A - A^T) Omega).
    The parts are formed as noise/2 + noise^T/2 and twist/2 - twist^T/2, so
    entries near the float limit do not overflow.  Two matrices give a
    float; two stacks (..., n, n) of the same shape give an array (...) of
    the margins of their pairs from one batched eigen-solve, each bit for
    bit the margin of its own pair.  Raises DimensionMismatchError for
    non-square or unequal shapes and ValueError for non-finite entries.
    """
    s, k = _as_square(noise, "noise"), _as_square(twist, "twist")
    if s.shape != k.shape:
        raise DimensionMismatchError(f"noise {s.shape} and twist {k.shape} differ in shape")
    herm = (s / 2 + s.swapaxes(-1, -2) / 2) - 1j * (k / 2 - k.swapaxes(-1, -2) / 2)
    margins = np.linalg.eigvalsh(herm)[..., 0]
    return float(margins) if margins.ndim == 0 else margins
