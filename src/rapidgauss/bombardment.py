"""Power series of the interpolation generators in the step duration.

For a bombardment setup the reduced channel is analytic in dt, and the
interpolation generators inherit a series A = A_0 + dt A_1 + ..., with
closed forms for the first three orders and a mechanical construction
(the logarithm series of the lifted channel series) at any order.
The CLI takes every order from the mechanical route; the closed forms are
the paper's formulas, the reference the route is tested against, and the
source of the first-order oscillator-bath analysis.  The even-order A
coefficients are symmetric (unitary effects), the odd ones antisymmetric
(non-unitary effects).

Also houses the purification predicates: whether a generator can increase
purity at all, and whether a coupling can do so at leading order.
"""

from dataclasses import dataclass

import numpy as np

from .channels import channel_taylor
from .errors import MalformedSeriesError
from .interpolation import Generators, channel_lift, cp_differential_check, read_generators
from .phasespace import symplectic_form

# how far below zero a purification value must fall to count; absorbs roundoff
PURIFY_TOL = 1e-12


@dataclass(frozen=True)
class GeneratorSeries:
    """Per-order generator coefficients {A_k, b_k, C_k}, k = 0..order."""

    A: tuple
    b: tuple
    C: tuple

    def __post_init__(self):
        freeze = lambda seq: tuple(np.ascontiguousarray(m, dtype=float) for m in seq)
        object.__setattr__(self, "A", freeze(self.A))
        object.__setattr__(self, "b", freeze(self.b))
        object.__setattr__(self, "C", freeze(self.C))
        if not len(self.A) == len(self.b) == len(self.C) or not self.A:
            raise MalformedSeriesError("A, b, C must have one entry per order")
        for m in self.A + self.b + self.C:
            m.setflags(write=False)

    @property
    def order(self):
        return len(self.A) - 1

    def truncate(self, order, dt):
        """Partial sum sum_k coeff_k dt^k up to the given order, as Generators."""
        if order > self.order:
            raise ValueError(f"series only carries orders up to {self.order}")
        a = sum(self.A[k] * dt**k for k in range(order + 1))
        b = sum(self.b[k] * dt**k for k in range(order + 1))
        c = sum(self.C[k] * dt**k for k in range(order + 1))
        return Generators(A=a, b=b, C=(c + c.T) / 2)

    def to_json_obj(self):
        return [
            {"k": k, "A": self.A[k].tolist(), "b": self.b[k].tolist(), "C": self.C[k].tolist()}
            for k in range(self.order + 1)
        ]


def _log_series(t_series, order):
    """Coefficients of Log(T(dt)) given T(dt) = 1 + sum_k dt^k T_k.

    Log T = sum_m (-1)^(m+1) X^m / m with X = T - 1.  X has no dt^0 term, so
    X^m has no terms below dt^m: only its coefficients k >= m are built, the
    k-th from the products X^(m-1)[i] @ X[k-i] with i >= m-1.  The products
    skipped are exact zeros, so skipping them changes no bit of the result.
    """
    n = t_series[0].shape[0]
    shifted = [None] + [np.asarray(m) for m in t_series[1:]]
    out = [np.zeros((n, n)) for _ in range(order + 1)]
    power = shifted  # X^1; power[k] is read only for k >= m
    for m in range(1, order + 1):
        if m > 1:
            power = [None] * m + [
                sum(power[i] @ shifted[k - i] for i in range(m - 1, k))
                for k in range(m, order + 1)
            ]
        coeff = (-1) ** (m + 1) / m
        for k in range(m, order + 1):
            out[k] = out[k] + coeff * power[k]
    return out


def _inverse_series(t_series, order):
    """Coefficients of T(dt)^-1 given T(dt) = 1 + sum_k dt^k T_k (the Neumann
    series, order by order from T T^-1 = 1).  T_0 is taken as exactly 1, so
    the k-th coefficient is -T_k - sum_{0<i<k} T_i inv_{k-i}."""
    inv = [np.eye(t_series[0].shape[0])]
    for k in range(1, order + 1):
        inv.append(-t_series[k] - sum(t_series[i] @ inv[k - i] for i in range(1, k)))
    return inv


def series_from_channel_series(t_series, d_series, r_series, order):
    """Generator series from a channel series (T_k, d_k, R_k).

    Lifts the channel series to the series of the channel lift
    [[T^-1, T^-1 R, -T^-1 d], [0, T^T, 0], [0, 0, 1]] and reads the
    generators off its logarithm series, as :func:`generators_from_channel`
    does for a single dt.  The channel series must start from the trivial
    channel (T_0 = 1, d_0 = 0, R_0 = 0) and must carry one more order than
    requested, since the k-th generator coefficient draws on the (k+1)-th
    channel one.  Once checked, the order-0 terms are taken as exactly
    trivial: no product with T_0, d_0 or R_0 is formed.  Any order >= 0 is
    supported.
    """
    t_series, d_series, r_series = (
        [np.asarray(m, dtype=float) for m in series] for series in (t_series, d_series, r_series)
    )
    n = t_series[0].shape[0]
    if max(np.abs(m).max() for m in (t_series[0] - np.eye(n), d_series[0], r_series[0])) > 1e-12:
        raise MalformedSeriesError("channel series must start from the trivial channel")
    if order < 0:
        raise ValueError("order must be nonnegative")
    if min(len(t_series), len(d_series), len(r_series)) < order + 2:
        raise MalformedSeriesError(
            f"order-{order} generators need channel coefficients through order {order + 1}"
        )
    kc = order + 1
    t_inv = _inverse_series(t_series, kc)
    rd = [np.column_stack([r, -d]) for r, d in zip(r_series, d_series)]
    tops = [np.column_stack([t_inv[k], rd[k] + sum(t_inv[i] @ rd[k - i] for i in range(1, k))])
            for k in range(1, kc + 1)]
    lifted = [np.eye(2 * n + 1)] + [channel_lift(top, t, 0.0) for top, t in zip(tops, t_series[1:])]
    log = _log_series(lifted, kc)
    return GeneratorSeries(*read_generators(np.array(log[1:])))


def generator_series_from_joint(setup, order):
    """Generator series of a bombardment setup through the mechanical route
    (exact channel Taylor coefficients fed into the logarithm series), at
    any order >= 0."""
    return series_from_channel_series(*channel_taylor(setup, order + 1), order)


def closed_form_series(setup, order=2):
    """Closed-form generator series of a bombardment setup, orders 0..2.

    A_0 = F_S and b_0 = alpha_S + G X_A0 reproduce the free flow pushed by
    the mean ancilla displacement; A_1 = (1/2) G Omega_A G^T drives
    amplification or relaxation; C_1 conjugates the ancilla covariance into
    the system and is always positive semi-definite; the second-order terms
    account for the ancilla evolving freely during one step.
    """
    if not 0 <= order <= 2:
        raise ValueError("closed forms cover orders 0 through 2")
    f_s, f_a, g = setup.F_S, setup.F_A, setup.G
    alpha_s, alpha_a = setup.alpha_S, setup.alpha_A
    x_a, sigma_a = setup.X_A0, setup.sigma_A0
    omega_s = symplectic_form(setup.n_sys)
    omega_a = symplectic_form(setup.n_anc)
    q_a = omega_a @ f_a

    a_coeffs = [f_s.copy()]
    b_coeffs = [alpha_s + g @ x_a]
    c_coeffs = [np.zeros((2 * setup.n_sys,) * 2)]
    if order >= 1:
        a_coeffs.append(0.5 * g @ omega_a @ g.T)
        b_coeffs.append(0.5 * g @ q_a @ x_a + 0.5 * g @ omega_a @ alpha_a)
        c1 = omega_s @ g @ sigma_a @ g.T @ omega_s.T
        c_coeffs.append((c1 + c1.T) / 2)
    if order >= 2:
        a2 = (
            -g @ omega_a @ g.T @ omega_s @ f_s / 12
            - f_s @ omega_s @ g @ omega_a @ g.T / 12
            + g @ q_a @ omega_a @ g.T / 6
        )
        a_coeffs.append(a2)
        b2 = (
            -f_s @ omega_s @ g @ omega_a @ alpha_a / 12
            + g @ q_a @ omega_a @ alpha_a / 6
            - f_s @ omega_s @ g @ q_a @ x_a / 12
            + g @ q_a @ q_a @ x_a / 6
            - g @ omega_a @ g.T @ omega_s @ alpha_s / 12
            - g @ omega_a @ g.T @ omega_s @ g @ x_a / 12
        )
        b_coeffs.append(b2)
        c2 = 0.5 * omega_s @ g @ (q_a @ sigma_a + sigma_a @ q_a.T) @ g.T @ omega_s.T
        c_coeffs.append((c2 + c2.T) / 2)
    return GeneratorSeries(A=a_coeffs, b=b_coeffs, C=c_coeffs)


def truncated_cp_check(series, order, dt):
    """Differential CP test on the series truncated at `order` and evaluated
    at step duration dt (:func:`rapidgauss.interpolation.cp_differential_check`)."""
    return cp_differential_check(series.truncate(order, dt))


def can_purify(a):
    """Whether dynamics with drift matrix A can increase any state's purity.

    Holds exactly when trace(Omega A) is negative; symmetric (unitary) A
    never purifies.
    """
    a = np.asarray(a)
    omega = symplectic_form(a.shape[0] // 2)
    return float(np.trace(omega @ a)) < -PURIFY_TOL


def first_order_purify(g):
    """Leading-order purification test for a coupling block G.

    Returns (flag, value) with value = (1/2) trace(Omega_S G Omega_A G^T),
    the symplectic forms sized by the shape of G; purification at leading
    order requires a value below -PURIFY_TOL.  Rank-one couplings always
    give exactly zero.
    """
    g = np.asarray(g, dtype=float)
    omega_s = symplectic_form(g.shape[0] // 2)
    omega_a = symplectic_form(g.shape[1] // 2)
    value = 0.5 * float(np.trace(omega_s @ g @ omega_a @ g.T))
    return value < -PURIFY_TOL, value


def rank_one_coupling(u, v):
    """Coupling block u v^T of a product interaction; rank at most one."""
    return np.outer(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
