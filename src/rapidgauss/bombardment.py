"""Power series of the interpolation generators in the step duration.

For a bombardment setup the reduced channel is analytic in dt, and the
interpolation generators inherit a series A = A_0 + dt A_1 + ..., with
closed forms for the first three orders and a mechanical construction
(the logarithm series of the lifted channel series) at any order, one
kernel for a stack of same-shape setups at once, whose truncations of every
order get their CP margins from one batched eigen-solve.
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

from .channels import CP_TOL, CpReport, channel_taylor_stack
from .errors import MalformedSeriesError
from .interpolation import Generators, channel_lift, cp_margins, read_generators
from .phasespace import symplectic_form

# how far below zero a purification value must fall to count; absorbs roundoff
PURIFY_TOL = 1e-12


@dataclass(frozen=True)
class GeneratorSeries:
    """Per-order generator coefficients {A_k, b_k, C_k}, k = 0..order, held
    as read-only stacks: A (order+1, 2N, 2N), b (order+1, 2N) and
    C (order+1, 2N, 2N), so A[k] is the order-k drift matrix."""

    A: np.ndarray
    b: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        stacks = [np.asarray(getattr(self, name), dtype=float).view() for name in "AbC"]
        if not len(stacks[0]) or len({len(stack) for stack in stacks}) > 1:
            raise MalformedSeriesError("A, b, C must have one entry per order")
        for name, stack in zip("AbC", stacks):
            stack.setflags(write=False)
            object.__setattr__(self, name, stack)

    @property
    def order(self):
        return len(self.A) - 1

    def truncate(self, order, dt):
        """Partial sum sum_k coeff_k dt^k up to the given order, as Generators."""
        if order > self.order:
            raise ValueError(f"series only carries orders up to {self.order}")
        coeffs = self.A[: order + 1], self.b[: order + 1, :, None], self.C[: order + 1]
        a, b, c = (_partial_sums(x, dt)[-1] for x in coeffs)
        return Generators(A=a, b=b[:, 0], C=(c + c.T) / 2)

    def to_json_obj(self):
        return [
            {"k": k, "A": self.A[k].tolist(), "b": self.b[k].tolist(), "C": self.C[k].tolist()}
            for k in range(self.order + 1)
        ]


def _partial_sums(coeffs, dt):
    """Partial sums sum_{j<=k} coeff_j dt^j of every order k of stacks (...,
    K+1, n, m), by one cumulative sum: it adds in increasing j, as sum() does."""
    powers = np.array([dt**k for k in range(np.shape(coeffs)[-3])])[:, None, None]
    # + 0.0 turns the -0.0 a cumulative sum keeps into the +0.0 of a sum from
    # 0, for both callers; the sign of a zero can steer a CP margin's eigen-solve
    return np.cumsum(coeffs * powers, axis=-3) + 0.0


def _log_series_rows(x, rows):
    """Coefficients 0..K of the first `rows` rows of Log(1 + X(dt)), for a
    stack of series X(dt) = sum_{k>=1} dt^k x[:, k] given as x of shape
    (S, K+1, w, w); x[:, 0] is not read.

    Log(1 + X) = sum_m (-1)^(m+1) X^m / m.  The top rows of X^m are the top
    rows of X^(m-1) times X, so only they are formed, (rows x w) @ (w x w)
    per product.  X^m has no terms below dt^m: only its coefficients
    k >= m are built, the k-th from the products X^(m-1)[i] X[k-i] with
    i >= m-1.  Each Cauchy product runs over the left order i, increasing,
    one stacked matmul of X^(m-1)[i] with all the X[j] it meets, so every
    coefficient is summed in the order of a sum over i.
    """
    order = x.shape[1] - 1
    top = x[:, :, :rows]
    log = np.zeros_like(top)
    log[:, 1:] += top[:, 1:]
    power = top  # top rows of X^1; power[:, k] is read only for k >= m
    for m in range(2, order + 1):
        prev, power = power, np.zeros_like(top)
        for i in range(m - 1, order):
            power[:, i + 1 :] += prev[:, i : i + 1] @ x[:, 1 : order - i + 1]
        log[:, m:] += (-1) ** (m + 1) / m * power[:, m:]
    return log


def _series_of_stacks(t, d, r, order):
    """Generator stacks (A, b, C), each (S, order+1, ...), of S channel
    series stacks t, d, r of shapes (S, order+2, n, n), (S, order+2, n) and
    (S, order+2, n, n) that start from the trivial channel.

    The series of the channel lift
    L(dt) = [[T^-1, T^-1 R, -T^-1 d], [0, T^T, 0], [0, 0, 1]] is built
    coefficient by coefficient, and the generators are read off the top
    block row of its logarithm series (:func:`_log_series_rows`,
    :func:`read_generators`), as :func:`generators_from_channel` reads them
    off Log L at a single dt.  The order-0 terms are taken as exactly
    trivial: no product with T_0, d_0 or R_0 is formed.  Each coefficient is
    summed in the order of a sum over increasing left order, so a stack of
    setups gives each setup the bits it gets on its own.
    """
    kc, n = order + 1, t.shape[-1]
    # the top block row [T^-1, T^-1 [R, -d]] of every lift coefficient, T^-1
    # by the Neumann recurrence: inv_k = -T_k - sum_{0<i<k} T_i inv_(k-i)
    top = np.empty(t.shape[:1] + (kc + 1, n, 2 * n + 1))
    inv = top[..., :n]
    inv[:, 0] = np.eye(n)
    for k in range(1, kc + 1):
        acc = 0
        for term in (t[:, 1:k] @ inv[:, k - 1 : 0 : -1]).swapaxes(0, 1):
            acc = acc + term
        inv[:, k] = -t[:, k] - acc
    rd = np.concatenate([r, -d[..., None]], axis=3)
    acc = np.zeros_like(rd)
    for i in range(1, kc):
        acc[:, i + 1 :] += inv[:, i : i + 1] @ rd[:, 1 : kc - i + 1]
    np.add(rd, acc, out=top[..., n:])
    return read_generators(_log_series_rows(channel_lift(top, t, 0.0), n)[:, 1:])


def generator_series_stack(setups, order):
    """Generator series of S same-shape bombardment setups, as stacks A
    (S, order+1, 2N, 2N), b (S, order+1, 2N) and C (S, order+1, 2N, 2N):
    the exact channel Taylor coefficients of every setup
    (:func:`rapidgauss.channels.channel_taylor_stack`) fed into one
    logarithm series of the lifted channel series (:func:`_series_of_stacks`).
    Any order >= 0.  Each setup's coefficients are bit for bit those of its
    own stack of one."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    return _series_of_stacks(*channel_taylor_stack(setups, order + 1), order)


def generator_series_from_joint(setup, order):
    """Generator series of a bombardment setup through the mechanical route
    (exact channel Taylor coefficients fed into the logarithm series), at
    any order >= 0: the stack of one of :func:`generator_series_stack`."""
    return GeneratorSeries(*(coeffs[0] for coeffs in generator_series_stack([setup], order)))


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


def truncated_cp_margins(a, c, dt):
    """Differential CP margins of the truncations of orders 0..K of stacks
    of series coefficients a and c, shapes (..., K+1, 2N, 2N), evaluated at
    step duration dt: entry k is the margin
    :func:`rapidgauss.interpolation.cp_differential_check` gives
    ``GeneratorSeries.truncate(k, dt)``.

    The partial sums sum_{j<=k} coeff_j dt^j of all orders come from one
    cumulative sum, which adds in increasing order as a sum over j does,
    and all margins from one batched Hermitian eigen-solve
    (:func:`rapidgauss.interpolation.cp_margins`).  Returns an array
    (..., K+1).
    """
    a_sum, c_sum = _partial_sums(a, dt), _partial_sums(c, dt)
    return cp_margins(a_sum, (c_sum + c_sum.swapaxes(-1, -2)) / 2)


def truncated_cp_check(series, order, dt):
    """Differential CP test on the series truncated at `order` and evaluated
    at step duration dt: the order-`order` entry of
    :func:`truncated_cp_margins`, as a CpReport."""
    if order > series.order:
        raise ValueError(f"series only carries orders up to {series.order}")
    margin = float(truncated_cp_margins(series.A[: order + 1], series.C[: order + 1], dt)[order])
    return CpReport(ok=margin >= -CP_TOL, margin=margin)


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
