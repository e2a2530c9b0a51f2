"""Dense matrix kernels used throughout the package.

Provides the matrix exponential and principal logarithm, taken of the lifts
that phasespace.affine_lift and interpolation.channel_lift build, the one
power-of-two balancing rule that every lift exponential and logarithm
applies to its shift and noise blocks first (:func:`balancing_exponents`),
and the margin of the uncertainty bound that states, channels and
generators all satisfy.  Everything is pure, operates on small dense arrays,
and is safe to call concurrently.

Both kernels are this module's own, in numpy.  The exponential
(:func:`mat_exp`) is scaling and squaring with a Padé degree and a scaling
chosen from exact 1-norms of matrix powers (Al-Mohy & Higham, SIAM J.
Matrix Anal. Appl. 31(3):970, 2009).  The logarithm (:func:`mat_log`) is
inverse scaling and squaring with one Padé degree (Higham, SIAM J. Matrix
Anal. Appl. 22(4):1126, 2001); interpolation.generators_from_channel takes
it of the balanced lift for a nearly defective T, and otherwise takes the
Log in the eigenbasis of T.
"""

import math

import numpy as np

from .errors import DimensionMismatchError, InvalidSetupError, SingularMatrixError

# The Padé degrees m tried before scaling, as (m, theta_m, coefficients,
# 1/|c_{2m+1}|): the [m/m] approximant is used when the norm estimate eta of
# A is at most theta_m and the backward error of the first term it omits is
# below the unit roundoff (Al-Mohy & Higham, Table 3.1 and (5.1)).  The
# coefficients b_0..b_m are held as two rows, the even ones and the odd ones.
_PADE = tuple(
    (m, theta, np.array(b).reshape(-1, 2).T, c)
    for m, theta, b, c in (
        (3, 1.495585217958292e-2, (120.0, 60.0, 12.0, 1.0), 100800.0),
        (5, 2.539398330063230e-1,
         (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0), 10059033600.0),
        (7, 9.504178996162932e-1,
         (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
         4487938430976000.0),
        (9, 2.097847961257068,
         (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
          2162160.0, 110880.0, 3960.0, 90.0, 1.0),
         5914384781877411840000.0),
    )
)
# Degree 13, taken of A 2^-s with the least s that makes eta 2^-s <= _THETA13.
_THETA13 = 4.25
_B13 = np.array((
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)).reshape(-1, 2).T
_C13 = 113250775606021113483283660800000000.0


def _as_square(m, name="matrix"):
    """m as an array of one square matrix or of a stack (..., n, n) of them;
    its entries must be finite."""
    a = np.asarray(m)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatchError(f"{name} must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidSetupError(f"{name} has non-finite entries")
    return a


def _as_matrix(m):
    """m as one nonempty square matrix with finite entries."""
    a = _as_square(m)
    if a.ndim != 2 or not len(a):
        raise DimensionMismatchError(
            f"matrix must be one nonempty square matrix, got shape {a.shape}"
        )
    return a


def _norm1(a):
    """The 1-norm of a matrix, or the 1-norms of a stack of them."""
    return np.abs(a).sum(axis=-2).max(axis=-1)


def _extra_squarings(abs_norm, norm, degree, c):
    """ell of Al-Mohy & Higham (5.1): the squarings to add so that the
    first term the degree-m approximant omits stays below the unit roundoff,
    from the 1-norms of |A|^(2m+1) and of A.  A ratio that underflows to 0
    puts that term below the unit roundoff as well."""
    alpha = abs_norm / (norm * c) if abs_norm else 0.0
    if not alpha:
        return 0
    return max(math.ceil(math.log2(alpha * 2.0**53) / (2 * degree)), 0)


def _pade_quotient(u, v, squarings):
    """(V - U)^-1 (V + U), formed as I + 2 (V - U)^-1 U, squared."""
    x = 2.0 * np.linalg.solve(v - u, u)
    x.flat[:: len(x) + 1] += 1.0
    for _ in range(squarings):
        x = x @ x
    return x


def mat_exp(m):
    """Matrix exponential of one square matrix with finite entries.

    Scaling and squaring with a Padé approximant of degree 3, 5, 7, 9 or
    13 (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31(3):970, 2009), its
    degree and scaling chosen from exact 1-norms of A^2, A^4, A^6, A^8 and
    A^10, so that a large but nearly nilpotent A is not overscaled.  Raises
    DimensionMismatchError for an empty or non-square matrix or a stack.
    """
    a = _as_matrix(m)
    if a.dtype.kind not in "fc":
        a = a.astype(float)
    n = len(a)
    # I, A^2, A^4, A^6, and A^8 once a degree above 5 is tried
    powers = np.zeros((5, n, n), a.dtype)
    powers[0].flat[:: n + 1] = 1.0
    np.matmul(a, a, out=powers[1])
    np.matmul(powers[1], powers[1], out=powers[2])
    np.matmul(powers[2], powers[1], out=powers[3])
    d4, d6 = (_norm1(powers[2:4]) ** (1 / 4, 1 / 6)).tolist()
    eta = max(d4, d6)
    # abs_row holds the column sums of |A|^k, k = 3, 7, 11, ...: ell's norms
    abs_a = np.abs(a)
    abs_a2 = abs_a @ abs_a
    col_sums = abs_a.sum(axis=0)
    norm = float(col_sums.max())
    abs_a4, abs_row, k = abs_a2 @ abs_a2, col_sums @ abs_a2, 3
    for degree, theta, coef, c in _PADE:
        if degree == 7:
            np.matmul(powers[2], powers[2], out=powers[4])
            d8 = float(_norm1(powers[4])) ** (1 / 8)
            eta = max(d6, d8)
        if eta > theta:
            continue
        while k < 2 * degree + 1:
            abs_row, k = abs_row @ abs_a4, k + 4
        if _extra_squarings(float(abs_row.max()), norm, degree, c) == 0:
            h = (degree + 1) // 2
            v, w = (coef @ powers[:h].reshape(h, -1)).reshape(2, n, n)
            return _pade_quotient(a @ w, v, 0)
    eta = min(eta, max(d8, float(_norm1(powers[2] @ powers[3])) ** (1 / 10)))
    s = max(math.ceil(math.log2(eta / _THETA13)), 0) if eta else 0
    abs_row *= 2.0 ** (-k * s)
    abs_a4 *= 2.0 ** (-4 * s)
    while k < 27:
        abs_row, k = abs_row @ abs_a4, k + 4
    s += _extra_squarings(float(abs_row.max()), 2.0**-s * norm, 13, _C13)
    # (A 2^-s)^2i = A^2i 2^-2is: the scaling goes into the coefficients
    scales = 2.0 ** (-2 * s * np.arange(4))
    low = (_B13[:, :4] * scales) @ powers[:4].reshape(4, -1)
    high = (_B13[:, 4:] * scales[1:]) @ powers[1:4].reshape(3, -1)
    v, w = (powers[3] * scales[3]) @ high.reshape(2, n, n) + low.reshape(2, n, n)
    return _pade_quotient((a * 2.0**-s) @ w, v, s)


# theta_8 of Higham (2001), Table 2.1: for ||E||_1 <= _THETA8 the [8/8] Padé
# approximant of log(I + E) is within the unit roundoff of it
_THETA8 = 0.34
# That approximant is the 8-node Gauss-Legendre rule for
# log(I + E) = int_0^1 E (I + t E)^-1 dt.  Its nodes t on [0, 1] and their
# weights come from the eigenvectors of the Jacobi matrix of the Legendre
# polynomials (Golub & Welsch, Math. Comp. 23:221, 1969).
_k = np.arange(1.0, 8.0)
_x, _v = np.linalg.eigh(np.diag(_k / np.sqrt(4.0 * _k**2 - 1.0), -1))
_NODES, _WEIGHTS = (1.0 + _x) / 2, _v[0] ** 2
del _k, _x, _v
# Most square roots mat_log takes, and most iterations it spends on each
_ROOTS_MAX = 64


def mat_log(m):
    """Principal logarithm of one square matrix with finite entries and no
    eigenvalue on the closed negative real axis.

    Inverse scaling and squaring (Higham, SIAM J. Matrix Anal. Appl.
    22(4):1126, 2001): s square roots bring E = X^(1/2^s) - I to
    ||E||_1 <= _THETA8, and log X = 2^s log(I + E), the latter the [8/8]
    Padé approximant as a Gauss-Legendre sum of solves.  Each root is the
    product form of the Denman-Beavers iteration (Cheng, Higham, Kenney &
    Laub, SIAM J. Matrix Anal. Appl. 22(4):1112, 2001), and updates E to
    E (X^(1/2) + I)^-1, which does not cancel as X^(1/2) - I does.  Raises
    SingularMatrixError when a root does not settle within _ROOTS_MAX
    iterations, or E within _ROOTS_MAX roots, as for a real matrix with a
    negative eigenvalue, and DimensionMismatchError as mat_exp does; a
    singular X raises numpy's LinAlgError.
    """
    x = _as_matrix(m)
    eye = np.eye(len(x))
    e = x - eye
    for roots in range(_ROOTS_MAX + 1):
        if _norm1(e) <= _THETA8:
            terms = np.linalg.solve(eye + _NODES[:, None, None] * e, e)
            return 2.0**roots * (_WEIGHTS @ terms.reshape(len(terms), -1)).reshape(e.shape)
        # y -> X^(1/2) as p -> I, with y^2 = X p; p - I squares each step, so
        # one step past ||p - I||_1 <= 1e-8 leaves it below the unit roundoff
        y = p = x
        for _ in range(_ROOTS_MAX):
            settled = _norm1(p - eye) <= 1e-8
            inv = np.linalg.inv(p)
            y, p = y @ (eye + inv) / 2, (2.0 * eye + p + inv) / 4
            if settled:
                break
        else:
            raise SingularMatrixError("mat_log: a square root did not converge")
        e, x = np.linalg.solve((y + eye).T, e.T).T, y
    raise SingularMatrixError("mat_log: the square roots did not reach the identity")


def balancing_exponents(core, *blocks):
    """The power of two k of each block that brings its largest entry to
    within [1/2, 1] times max(|core|, 1); 0 for a zero block.  Scaling a
    lift's shift and noise blocks by 2^-k is an exact diagonal similarity
    (Parlett & Reinsch, Numer. Math. 13:293, 1969), so its exp or Log, those
    blocks scaled back by 2^k, is unchanged, while its rounding follows the
    core alone."""
    scale = max(np.abs(core).max(), 1.0)
    return tuple(int(np.frexp(np.abs(block).max() / scale)[1]) for block in blocks)


def psd_margin(noise, twist):
    """Smallest eigenvalue of the Hermitian sym(noise) - i antisym(twist).

    This is the uncertainty bound of states (cov, -Omega), of channels
    (R, T Omega T^T - Omega) and of generators (C, Omega (A - A^T) Omega).
    The parts are formed as noise/2 + noise^T/2 and twist/2 - twist^T/2, so
    entries near the float limit do not overflow.  Two matrices give a
    float; two stacks (..., n, n) of the same shape give an array (...) of
    the margins of their pairs from one batched eigen-solve, each bit for
    bit the margin of its own pair.  Raises DimensionMismatchError for
    non-square or unequal shapes and InvalidSetupError for non-finite entries.
    """
    s, k = _as_square(noise, "noise"), _as_square(twist, "twist")
    if s.shape != k.shape:
        raise DimensionMismatchError(f"noise {s.shape} and twist {k.shape} differ in shape")
    herm = (s / 2 + s.swapaxes(-1, -2) / 2) - 1j * (k / 2 - k.swapaxes(-1, -2) / 2)
    margins = np.linalg.eigvalsh(herm)[..., 0]
    return float(margins) if margins.ndim == 0 else margins
