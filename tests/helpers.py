"""Shared test oracles, kept independent of the production code paths."""

import os
import subprocess
import sys
from itertools import groupby, repeat

import numpy as np
import scipy.linalg

import rapidgauss
from rapidgauss.channels import GaussianChannel, apply_runs
from rapidgauss.interpolation import (
    LIFT_NORM_MAX,
    Generators,
    channel_lift,
    gap_runs,
    read_generators,
)
from rapidgauss.linalg import mat_exp
from rapidgauss.phasespace import symplectic_form
from rapidgauss.sampling import random_symmetric
from rapidgauss.thermalization import CovCoefficients


def expm1_div_series(x, t, terms=60):
    """Truncated series sum_m t^(m+1)/(m+1)! x^m."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    acc = np.zeros((n, n))
    power = np.eye(n)
    coeff = t
    for m in range(terms):
        acc = acc + coeff * power
        power = power @ x
        coeff = coeff * t / (m + 2)
    return acc


def logm_div_series(x, terms=30):
    """Truncated series sum_m (-1)^m/(m+1) (x - 1)^m."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    shifted = x - np.eye(n)
    acc = np.zeros((n, n))
    power = np.eye(n)
    for m in range(terms):
        acc = acc + ((-1) ** m / (m + 1)) * power
        power = power @ shifted
    return acc


def central_difference(f, t, h=1e-5):
    """Central finite difference of a matrix/vector-valued function."""
    return (np.asarray(f(t + h)) - np.asarray(f(t - h))) / (2 * h)


def gauss_legendre_integral(f, a, b, nodes=80):
    """Fixed-order Gauss-Legendre quadrature of a matrix-valued function."""
    xs, ws = np.polynomial.legendre.leggauss(nodes)
    mid, half = (a + b) / 2, (b - a) / 2
    total = None
    for x, w in zip(xs, ws):
        val = np.asarray(f(mid + half * x)) * (w * half)
        total = val if total is None else total + val
    return total


def fit_power_series(values, steps, order):
    """Coefficients of a polynomial in h fitted through (h_i, values_i).

    values is a list of arrays sampled at the step sizes in `steps`; returns
    the list of coefficient arrays up to `order` (a Vandermonde solve, used
    to extract series coefficients from evaluations at shrinking h).
    """
    steps = np.asarray(steps, dtype=float)
    vander = np.vander(steps, order + 1, increasing=True)
    stacked = np.stack([np.asarray(v, dtype=float) for v in values])
    flat = stacked.reshape(len(steps), -1)
    coeffs = np.linalg.solve(vander, flat)
    return [coeffs[k].reshape(stacked.shape[1:]) for k in range(order + 1)]


# 2x2 block basis {1, omega, X, Z} of the classifier, spelled out here
_BLOCK_BASIS = (
    np.eye(2),
    np.array([[0.0, 1.0], [-1.0, 0.0]]),
    np.array([[0.0, 1.0], [1.0, 0.0]]),
    np.array([[1.0, 0.0], [0.0, -1.0]]),
)

_SINGLE_MODE = {
    "single_mode_rotation": ("sym", (0,)),
    "single_mode_squeezing": ("sym", (2, 3)),
    "amplification_relaxation": ("anti", (1,)),
    "thermal_noise": ("noise", (0,)),
    "single_mode_squeezed_noise": ("noise", (2, 3)),
}
_MULTI_MODE = {
    "multi_mode_rotation": ("sym", (0, 1)),
    "multi_mode_squeezing": ("sym", (2, 3)),
    "multi_mode_counter_rotation": ("anti", (0, 1)),
    "multi_mode_counter_squeezing": ("anti", (2, 3)),
    "multi_mode_noise": ("noise", (0, 1, 2, 3)),
}


def block_trace_projection(m):
    """Coefficients (nb, nb, 4) of every 2x2 block of m over the block basis,
    one trace projection (1/2) Tr(P^T block) per block and basis element."""
    m = np.asarray(m, dtype=float)
    nb = m.shape[0] // 2
    coeffs = np.zeros((nb, nb, 4))
    for i in range(nb):
        for j in range(nb):
            block = m[2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
            for k, basis in enumerate(_BLOCK_BASIS):
                coeffs[i, j, k] = 0.5 * float(np.trace(basis.T @ block))
    return coeffs


def classify_flags_loop(a, b, c, eps=1e-10):
    """Dynamics-type flags of generators (A, b, C), block by block: a type is
    present when one of its coefficients, on a diagonal block for the
    single-mode types and an off-diagonal one for the multi-mode types,
    exceeds eps times the largest generator entry."""
    a, b, c = (np.asarray(x, dtype=float) for x in (a, b, c))
    thr = eps * max(np.abs(a).max(), np.abs(b).max(), np.abs(c).max())
    parts = {
        "sym": block_trace_projection((a + a.T) / 2),
        "anti": block_trace_projection((a - a.T) / 2),
        "noise": block_trace_projection((c + c.T) / 2),
    }
    nb = a.shape[0] // 2
    flags = {name: False for name in list(_SINGLE_MODE) + list(_MULTI_MODE)}
    flags["displacement"] = bool(thr > 0 and np.abs(b).max() > thr)
    for i in range(nb):
        for j in range(nb):
            for name, (part, ks) in (_SINGLE_MODE if i == j else _MULTI_MODE).items():
                for k in ks:
                    if thr > 0 and abs(parts[part][i, j, k]) > thr:
                        flags[name] = True
    return flags


def log_series_cauchy(t_series, order):
    """Coefficients of Log(1 + X) for X = T - 1 = sum_{k>=1} dt^k T_k: every
    power X^m as the full Cauchy product of X^(m-1) and X, through `order`."""
    n = t_series[0].shape[0]
    shifted = [np.zeros((n, n))] + [np.asarray(m) for m in t_series[1:]]
    out = [np.zeros((n, n)) for _ in range(order + 1)]
    power = [np.eye(n)] + [np.zeros((n, n))] * order
    for m in range(1, order + 1):
        power = [
            sum(power[i] @ shifted[k - i] for i in range(k + 1)) for k in range(order + 1)
        ]
        coeff = (-1) ** (m + 1) / m
        out = [out[k] + coeff * power[k] for k in range(order + 1)]
    return out


def channel_taylor_lists(setup, order):
    """Taylor coefficients (T_k, d_k, R_k), k = 0..order, of the reduced
    channel, one matrix per order, from the full powers L^k / k! of the joint
    affine lift [[Omega F_SA, Omega alpha_SA], [0, 0]], built here with
    np.block so that the oracle does not share the package's assembly."""
    ds = 2 * setup.n_sys
    f_sa = np.block([[setup.F_S, setup.G], [setup.G.T, setup.F_A]])
    omega = symplectic_form(len(f_sa) // 2)
    shift = omega @ np.concatenate([setup.alpha_S, setup.alpha_A])
    lift = np.block([[omega @ f_sa, shift[:, None]], [np.zeros((1, len(f_sa) + 1))]])
    terms = [np.eye(lift.shape[0])]
    for k in range(1, order + 1):
        terms.append(terms[-1] @ lift / k)
    m_sa = [term[:ds, ds:-1] for term in terms]
    d_list = [term[:ds, -1] + m @ setup.X_A0 for term, m in zip(terms, m_sa)]
    r_list = [np.zeros((ds, ds))]
    for k in range(1, order + 1):
        acc = np.zeros((ds, ds))
        for i in range(1, k):
            acc += m_sa[i] @ setup.sigma_A0 @ m_sa[k - i].T
        r_list.append((acc + acc.T) / 2)
    return [term[:ds, :ds] for term in terms], d_list, r_list


def series_from_joint_lists(setup, order):
    """Generator coefficients (A_k, b_k, C_k), k = 0..order, of a bombardment
    setup by the list route, one matrix per order: the channel series of
    :func:`channel_taylor_lists`, T^-1 by the Neumann series, the whole
    (4N + 1)-dimensional channel lift of every order, its logarithm series
    by full Cauchy products (:func:`log_series_cauchy`), and the generators
    read off it."""
    kc = order + 1
    t_series, d_series, r_series = channel_taylor_lists(setup, kc)
    t_inv = [np.eye(len(t_series[0]))]
    for k in range(1, kc + 1):
        t_inv.append(-t_series[k] - sum(t_series[i] @ t_inv[k - i] for i in range(1, k)))
    rd = [np.column_stack([r, -d]) for r, d in zip(r_series, d_series)]
    tops = [np.column_stack([t_inv[k], rd[k] + sum(t_inv[i] @ rd[k - i] for i in range(1, k))])
            for k in range(1, kc + 1)]
    lifted = [np.eye(len(tops[0][0]))] + [
        channel_lift(top, t, 0.0) for top, t in zip(tops, t_series[1:])
    ]
    return read_generators(np.array(log_series_cauchy(lifted, kc)[1:]))


def two_lift_generators(channel, dt):
    """Generators of a channel from two lifts: A and b from the principal Log
    of the affine lift [[T, d], [0, 1]], C from that of the noise lift
    [[T^-1, T^-1 R], [0, T^T]], both Logs scipy's Schur logm."""
    t, n = channel.T, channel.T.shape[0]
    omega = symplectic_form(channel.n_modes)
    affine = np.block([[t, channel.d[:, None]], [np.zeros((1, n)), 1.0]])
    affine = scipy.linalg.logm(affine).real / dt
    t_inv = np.linalg.solve(t, np.hstack([np.eye(n), channel.R]))
    noise = np.block([[t_inv[:, :n], t_inv[:, n:]], [np.zeros((n, n)), t.T]])
    c = scipy.linalg.logm(noise)[:n, n:].real / dt
    return Generators(
        A=-omega @ affine[:n, :n], b=-omega @ affine[:n, n], C=(c + c.T) / 2
    )


def two_lift_propagate(gen, t):
    """Channel of the master-equation flow over t from two exponentials: T
    and d from the affine lift [[M, Omega b], [0, 0]] t in one step, R from
    the noise lift [[-M, C], [0, M^T]] over t / 2^k, doubled k times."""
    n = gen.A.shape[0]
    omega = symplectic_form(gen.n_modes)
    m = omega @ gen.A
    flow = mat_exp(np.block([[m, (omega @ gen.b)[:, None]], [np.zeros((1, n + 1))]]) * t)
    norm = np.abs(m).sum(axis=0).max() * t
    doublings = int(np.ceil(np.log2(norm / LIFT_NORM_MAX))) if norm > LIFT_NORM_MAX else 0
    lifted = mat_exp(np.block([[-m, gen.C], [np.zeros((n, n)), m.T]]) * (t / 2**doublings))
    step = lifted[n:, n:].T
    r = step @ lifted[:n, n:]
    for _ in range(doublings):
        r = step @ r @ step.T + r
        step = step @ step
    return GaussianChannel(T=flow[:n, :n], d=flow[:n, n], R=(r + r.T) / 2)


def apply_sequence(channels, mean, cov):
    """Moments after applying each of the channels in turn to (mean, cov):
    the per-channel view of rapidgauss.channels.apply_runs, consecutive
    repeats of one channel object forming one run."""
    runs = [(next(group), 1 + len(list(group))) for _, group in groupby(channels, key=id)]
    return apply_runs(runs, mean, cov)


def gap_channels(gen, marks, unit=1.0):
    """The channels over the gaps between the times marks[k] * unit, one per
    mark: the per-channel view of rapidgauss.interpolation.gap_runs, each
    run repeated count times, so equal gaps give one channel object."""
    for channel, count in gap_runs(gen, marks, unit):
        yield from repeat(channel, count)


def apply_loop(channels, mean, cov, dtype=float):
    """Moments after each of the channels in turn, one update per row in
    `dtype`: T mean + d and T cov T^T + R, symmetrised.

    The per-row reference for :func:`apply_sequence`; with
    np.longdouble it applies the float channels in extended precision.
    Returns means (K, 2N) and covs (K, 2N, 2N) in `dtype`.
    """
    mean, cov = np.asarray(mean, dtype=dtype), np.asarray(cov, dtype=dtype)
    means, covs = [], []
    for ch in channels:
        t, d, r = (np.asarray(x, dtype=dtype) for x in (ch.T, ch.d, ch.R))
        mean = t @ mean + d
        cov = t @ cov @ t.T + r
        cov = (cov + cov.T) / 2
        means.append(mean)
        covs.append(cov)
    n = len(mean)
    return np.array(means, dtype=dtype).reshape(-1, n), np.array(covs, dtype=dtype).reshape(-1, n, n)


def row_errors(got, want):
    """Per-row error of `got` against `want`, relative to the row's scale:
    max |got - want| over the row over max |want| over the row.  Rows are
    the first axis; a tuple of arrays (means, covs) counts as one row each."""
    if not isinstance(want, tuple):
        got, want = (got,), (want,)
    flat = lambda arrays: np.hstack([np.reshape(a, (len(a), -1)) for a in arrays])
    got, want = flat(got), flat(want)
    return (np.abs(got - want).max(axis=1) / np.abs(want).max(axis=1)).astype(float)


def random_generators(rng, n_modes=1, scale=0.7):
    """Random master-equation generators (C symmetric, not necessarily CP)."""
    n = 2 * n_modes
    return Generators(
        A=rng.uniform(-scale, scale, (n, n)),
        b=rng.uniform(-scale, scale, n),
        C=random_symmetric(rng, n, scale),
    )


def master_rhs(gen, state):
    """Right-hand side of the master equation at a state.

    Returns (dmean/dt, dcov/dt) = (Omega(A X + b),
    (Omega A) cov + cov (Omega A)^T + C).
    """
    omega = symplectic_form(gen.n_modes)
    oa = omega @ gen.A
    dmean = omega @ (gen.A @ state.mean + gen.b)
    dcov = oa @ state.cov + state.cov @ oa.T + gen.C
    return dmean, dcov


def coefficient_rhs(coeffs, setup):
    """Time derivatives of (nu, s_cross, s_plus) under the first-order flow of
    an oscillator bath: the three coefficient equations over {1, X, Z}."""
    g = setup.G
    x, z = _BLOCK_BASIS[2], _BLOCK_BASIS[3]
    det_g = float(np.linalg.det(g))
    damp = setup.dt * det_g
    drive = 0.5 * setup.dt * setup.nu_A
    return CovCoefficients(
        nu=-damp * coeffs.nu + drive * float(np.trace(g.T @ g)),
        s_cross=(
            -2.0 * setup.E_S * coeffs.s_plus
            - damp * coeffs.s_cross
            - drive * float(np.trace(g.T @ x @ g))
        ),
        s_plus=(
            2.0 * setup.E_S * coeffs.s_cross
            - damp * coeffs.s_plus
            - drive * float(np.trace(g.T @ z @ g))
        ),
    )


def fresh_python(code, cwd):
    """stdout of code run in a fresh interpreter that imports this copy of
    rapidgauss, so that what the code imports starts from nothing."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rapidgauss.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    return done.stdout
