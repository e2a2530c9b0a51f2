"""Seeded job rounds for the two benchmark workloads, with an output check per job.

A workload is one round of CLI jobs drawn from the benchmark seed.  The run
repeats that same round back to back, so every round does the same work and
per-round figures repeat.  Each job carries a check of its own output.  The
references the checks compare against are computed here with numpy/scipy,
before any job runs.

Every failed check counts as a failed job and marks the run incorrect.  The
program is known to fail two of these checks on part of the input space, so
the draws that land there are set aside and drawn again, and the number set
aside is reported with the result:

* ``branch window``: an ``evolve`` job on the N=1 workload whose
  one-collision channel T has an eigenvalue with |arg| near or above pi/2.
  There the program's noise generator (principal Log of T (x) T) and its
  propagation (Kronecker sum) leave the branch on which they agree, and the
  stroboscopic output is wrong (ROADMAP open item 1).  E_S*dt is drawn
  below pi/2, and the rare draw whose coupling still reaches the window is
  set aside.
* ``order 0-2 not CP``: a joint setup, or a setup of a ``check-cp`` sweep,
  whose series truncated at order 0, 1 or 2 fails the differential CP test
  at its dt, though the README says these orders always pass.  Screened
  with the closed-form series and a margin computed here, 10x stricter
  than the CLI's cut.
"""

import json
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

# Relative tolerance of the numeric output checks: |x - ref| <= TOL * max(1, |ref|).
TOL = 1e-8

_OMEGA1 = np.array([[0.0, 1.0], [-1.0, 0.0]])
_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_Z = np.array([[1.0, 0.0], [0.0, -1.0]])


@dataclass
class Job:
    """One CLI invocation: ``argv`` without ``--config``/``--out``."""

    argv: list
    config: dict
    check: object  # callable(rc, stdout, csv_text) -> bool
    writes_csv: bool = False
    tag: str = None
    kind: str = ""
    path: str = None  # config file, set by the runner
    set_aside: dict = field(default_factory=dict)  # draws redrawn before this one, by reason


def omega(n_modes):
    return np.kron(np.eye(n_modes), _OMEGA1)


def _close(values, reference, tol=TOL):
    values = np.asarray(values, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if values.shape != reference.shape or not np.all(np.isfinite(values)):
        return False
    return bool(np.all(np.abs(values - reference) <= tol * np.maximum(1.0, np.abs(reference))))


def _csv_rows(text):
    """Data rows of a CSV (header skipped) as a float array."""
    lines = text.strip().splitlines()[1:]
    return np.array([[float(v) for v in line.split(",")] for line in lines])


def _json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def _guard(check):
    """A check that meets unparsable output reports a failure, not a crash."""

    def guarded(rc, stdout, csv_text):
        if rc != 0:
            return False
        try:
            return bool(check(stdout, csv_text))
        except (ValueError, KeyError, IndexError, TypeError):
            return False

    return guarded


def _complete_csv(csv_text, times, width):
    """The CSV's data rows when they are finite and ``width`` wide, one per
    entry of ``times`` with that time in the first column, else None."""
    rows = _csv_rows(csv_text)
    if rows.shape != (len(times), width) or not np.all(np.isfinite(rows)):
        return None
    return rows if _close(rows[:, 0], times) else None


def _random_symmetric(rng, dim, scale):
    m = rng.uniform(-scale, scale, (dim, dim))
    return (m + m.T) / 2


def _reduced_t_r(f_s, f_a, g, sigma_a, dt):
    """T and R of one collision, from the exponential of the joint generator."""
    ds, da = f_s.shape[0], f_a.shape[0]
    om = scipy.linalg.block_diag(omega(ds // 2), omega(da // 2))
    flow = scipy.linalg.expm(om @ np.block([[f_s, g], [g.T, f_a]]) * dt)
    m_sa = flow[:ds, ds:]
    return flow[:ds, :ds], m_sa @ sigma_a @ m_sa.T


# Share of pi by which 2 max|arg mu(T)| must stay below pi on evolve jobs.
BRANCH_MARGIN = 0.02
# Orders 0-2 of a screened setup must have a CP margin of at least this.
CP_SCREEN = -1e-10


def in_branch_window(t):
    """Whether T has an eigenvalue with |arg| at or near pi/2, where the
    program's interpolation is wrong (ROADMAP open item 1)."""
    return 2.0 * np.abs(np.angle(np.linalg.eigvals(t))).max() >= np.pi * (1 - BRANCH_MARGIN)


def cp_margin(series, order, dt):
    """Smallest eigenvalue of C - i Omega (A - A^T) Omega for the series
    truncated at ``order`` and evaluated at ``dt``: the differential CP margin."""
    a = sum(series.A[k] * dt**k for k in range(order + 1))
    c = sum(series.C[k] * dt**k for k in range(order + 1))
    om = omega(a.shape[0] // 2)
    anti = om @ (a - a.T) @ om
    return float(np.linalg.eigvalsh((c + c.T) / 2 - 0.5j * (anti - anti.T)).min())


def low_orders_cp(series, dt):
    return min(cp_margin(series, k, dt) for k in range(3)) >= CP_SCREEN


# --- strobe-1mode -----------------------------------------------------------

STROBE_STEPS = 400  # evolve both: one propagate per step
STROBE_GRID = (40, 10)  # evolve interpolated: steps x substeps
STROBE_THERMAL = (4000, 401)  # thermalize: steps, max_rows
STROBE_STRATA = 3  # E_S*dt strata per (command, coupling) pair
STROBE_X_RANGE = (0.01, 1.5)  # E_S*dt, below the branch window at pi/2


def _bath_coupling(rng, kind):
    """Config form and matrix of a coupling with det G > 0, so every job has a
    fixed point and stays finite over thousands of collisions."""
    a = rng.uniform(0.05, 0.5)
    if kind == "rwa":
        phi = rng.uniform(0, 2 * np.pi)
        g1, gw = a * np.cos(phi), a * np.sin(phi)
        return {"rwa": {"g1": g1, "gw": gw}}, g1 * np.eye(2) + gw * _OMEGA1
    if kind == "ladder":
        g = a * np.exp(1j * rng.uniform(0, 2 * np.pi))
        h = rng.uniform(0.2, 0.9) * a * np.exp(1j * rng.uniform(0, 2 * np.pi))
        matrix = g.real * np.eye(2) + g.imag * _OMEGA1 + h.real * _Z + h.imag * _X
        as_pair = lambda c: {"re": c.real, "im": c.imag}
        return {"ladder": {"g": as_pair(g), "h": as_pair(h)}}, matrix
    rotation = scipy.linalg.expm(rng.uniform(0, 2 * np.pi) * _OMEGA1)
    s = np.diag([rng.uniform(0.3, 1.0), rng.uniform(0.3, 1.0)]) * a
    matrix = rotation @ s @ scipy.linalg.expm(rng.uniform(0, 2 * np.pi) * _OMEGA1)
    return matrix.tolist(), matrix


def _bath_columns(cov):
    return [
        0.5 * (cov[0, 0] + cov[1, 1]),
        0.5 * (cov[0, 1] + cov[1, 0]),
        0.5 * (cov[0, 0] - cov[1, 1]),
        1.0 / np.linalg.det(cov),
    ]


def first_order_rows(e_s, g, nu_a, dt, nu_0, times):
    """Rows (nu, s_cross, s_plus, purity) of the first-order coefficient flow

        d(nu)/dt  = -gamma nu + k_1
        d(s_x)/dt = -2 E_S s_+ - gamma s_x - k_x
        d(s_+)/dt =  2 E_S s_x - gamma s_+ - k_+

    with gamma = dt det G, k_1 = (dt/2) Tr(G^T G) nu_A, k_x and k_+ the same
    with G^T X G and G^T Z G, from sigma(0) = nu_0 * 1.  Solved in closed
    form: a decay at rate gamma towards the fixed point, the (s_x, s_+) part
    rotating at 2 E_S."""
    gamma = dt * np.linalg.det(g)
    drive = 0.5 * dt * nu_a
    nu_fix = drive * np.trace(g.T @ g) / gamma
    rotation = np.array([[-gamma, -2.0 * e_s], [2.0 * e_s, -gamma]])
    k = drive * np.array([np.trace(g.T @ _X @ g), np.trace(g.T @ _Z @ g)])
    s_fix = np.linalg.solve(rotation, k)
    times = np.asarray(times)
    decay = np.exp(-gamma * times)
    cos, sin = np.cos(2.0 * e_s * times), np.sin(2.0 * e_s * times)
    nu = nu_fix + decay * (nu_0 - nu_fix)
    s_x = s_fix[0] - decay * (cos * s_fix[0] - sin * s_fix[1])
    s_p = s_fix[1] - decay * (sin * s_fix[0] + cos * s_fix[1])
    return np.column_stack([nu, s_x, s_p, 1.0 / (nu**2 - s_x**2 - s_p**2)])


def _strobe_job(rng, command, coupling, x):
    e_s = rng.uniform(0.5, 2.0)
    e_a = rng.uniform(0.5, 2.0)
    nu_a = rng.uniform(1.0, 4.0)
    nu_0 = rng.uniform(1.0, 3.0)
    dt = x / e_s
    g_cfg, g = _bath_coupling(rng, coupling)
    setup = {"kind": "oscillator_bath", "E_S": e_s, "E_A": e_a, "nu_A": nu_a, "G": g_cfg}
    initial = {"mean": [0.0, 0.0], "cov": (nu_0 * np.eye(2)).tolist()}
    t, r = _reduced_t_r(e_s * np.eye(2), e_a * np.eye(2), g, nu_a * np.eye(2), dt)

    if command == "thermalize":
        steps, max_rows = STROBE_THERMAL
        nu_tilde = np.trace(g.T @ g) / (2 * np.linalg.det(g)) * nu_a
        times = np.unique(np.linspace(0, steps, max_rows).round().astype(int)) * dt
        reference = first_order_rows(e_s, g, nu_a, dt, nu_0, times)

        def check(stdout, csv_text):
            report = _json(stdout)
            rows = _complete_csv(csv_text, times, 5)
            return (
                rows is not None
                and report["has_fixed_point"]
                and _close(report["nu_tilde"], nu_tilde, 1e-10)
                and _close(rows[:, 1:], reference)
                and _close(rows[-1, :2], [report["t_final"], report["final_nu_S"]], 1e-15)
            )

        config = {"setup": setup, "dt": dt, "steps": steps, "max_rows": max_rows,
                  "initial_state": initial}
        return Job(["thermalize"], config, _guard(check), writes_csv=True, kind=command)

    if in_branch_window(t):
        return None  # set aside: the program's output is known to be wrong here
    steps, substeps = (STROBE_STEPS, 1) if command == "both" else STROBE_GRID
    covs = [nu_0 * np.eye(2)]
    for _ in range(steps):
        covs.append(t @ covs[-1] @ t.T + r)
    reference = np.array([_bath_columns(c) for c in covs])
    times = np.arange(steps * substeps + 1) * (dt / substeps)

    if command == "both":
        # columns: t, 4 discrete, 4 interpolated, max_abs_diff
        def check(stdout, csv_text):
            rows = _complete_csv(csv_text, times, 10)
            if rows is None or not _close(rows[:, 1:5], reference):
                return False
            scale = np.maximum(1.0, np.abs(rows[:, 1:5]).max(axis=1))
            return bool(np.all(rows[:, -1] <= TOL * scale))

        config = {"setup": setup, "dt": dt, "steps": steps, "mode": "both",
                  "initial_state": initial}
    else:
        def check(stdout, csv_text):
            rows = _complete_csv(csv_text, times, 5)
            return rows is not None and _close(rows[::substeps, 1:], reference)

        config = {"setup": setup, "dt": dt, "steps": steps, "substeps": substeps,
                  "mode": "interpolated", "initial_state": initial}
    return Job(["evolve"], config, _guard(check), writes_csv=True, kind=f"evolve-{command}")


def strobe_1mode(rng):
    """N=1 oscillator-bath jobs: evolve (both, interpolated) and thermalize,
    for RWA, ladder and raw 2x2 couplings, with E_S*dt stratified over its
    range.  An evolve draw in the branch window is set aside and drawn again."""
    lo, hi = STROBE_X_RANGE
    jobs = []
    for command in ("both", "interpolated", "thermalize"):
        for coupling in ("rwa", "ladder", "raw"):
            for stratum in range(STROBE_STRATA):
                set_aside = 0
                while True:
                    x = lo + (stratum + rng.uniform()) * (hi - lo) / STROBE_STRATA
                    job = _strobe_job(rng, command, coupling, x)
                    if job is not None:
                        break
                    set_aside += 1
                if set_aside:
                    job.set_aside["branch window"] = set_aside
                jobs.append(job)
    order = rng.permutation(len(jobs))
    return [jobs[i] for i in order]


# --- multimode-joint --------------------------------------------------------

MULTIMODE_SIZES = (4, 8, 12)
MULTIMODE_STEPS = 2
MULTIMODE_ORDER = 3


def _joint_setup(rng, n):
    d = 2 * n
    squeeze = scipy.linalg.expm(omega(n) @ _random_symmetric(rng, d, 0.3))
    sigma = squeeze @ np.diag(np.repeat(rng.uniform(1.0, 2.5, n), 2)) @ squeeze.T
    return {
        "F_S": _random_symmetric(rng, d, 0.5),
        "F_A": _random_symmetric(rng, d, 0.5),
        "G": rng.uniform(-0.5, 0.5, (d, d)),
        "alpha_S": rng.uniform(-0.5, 0.5, d),
        "alpha_A": rng.uniform(-0.5, 0.5, d),
        "X_A0": rng.uniform(-0.5, 0.5, d),
        "sigma_A0": (sigma + sigma.T) / 2,
    }


def multimode_joint(rng, closed_form_series, joint_setup_cls, random_joint_setup):
    """Joint setups with N_sys = N_anc = N for N in 4, 8, 12: evolve (both) for
    a few steps, then series, check-cp and classify at order 3.  One small
    check-cp sweep over the CLI's sampler closes the round.  A setup whose
    orders 0-2 are not CP is set aside and drawn again.

    ``closed_form_series``, ``joint_setup_cls`` and ``random_joint_setup`` come
    from the package; the series check compares orders 0-2 of the order-3
    output against the first, the screens use the first and the last."""
    jobs = []
    order = MULTIMODE_ORDER
    for n in MULTIMODE_SIZES:
        set_aside = 0
        while True:
            arrays = _joint_setup(rng, n)
            dt = rng.uniform(0.05, 0.15)
            reference = closed_form_series(joint_setup_cls(dt=dt, **arrays), 2)
            if low_orders_cp(reference, dt):
                break
            set_aside += 1
        setup = {"kind": "joint", **{k: v.tolist() for k, v in arrays.items()}}
        config = {"setup": setup, "dt": dt, "steps": MULTIMODE_STEPS, "mode": "both"}
        tag = f"N{n}"
        steps = MULTIMODE_STEPS
        n_state = 2 * n + n * (2 * n + 1)

        def check_evolve(stdout, csv_text, times=np.arange(steps + 1) * dt, n_state=n_state):
            rows = _complete_csv(csv_text, times, 2 + 2 * n_state)
            if rows is None:
                return False
            scale = np.maximum(1.0, np.abs(rows[:, 1 : 1 + n_state]).max(axis=1))
            return bool(np.all(rows[:, -1] <= TOL * scale))

        def check_series(stdout, csv_text, reference=reference):
            out = _json(stdout)
            coeffs = out["coefficients"]
            return len(coeffs) == order + 1 and all(
                _close(coeffs[k][key], getattr(reference, key)[k])
                for k in range(3)
                for key in ("A", "b", "C")
            )

        def check_cp(stdout, csv_text):
            orders = _json(stdout)["orders"]
            return len(orders) == order + 1 and all(orders[k]["cp"] for k in range(3))

        def check_classify(stdout, csv_text):
            out = _json(stdout)
            present = {name for name, on in out["flags"].items() if on}
            return out["order"] == order and present <= set(out["allowed"])

        o = ["--order", str(order)]
        jobs += [
            Job(["evolve"], config, _guard(check_evolve), writes_csv=True,
                tag=tag, kind="evolve-both",
                set_aside={"order 0-2 not CP": set_aside} if set_aside else {}),
            Job(["series", *o], config, _guard(check_series), tag=tag, kind="series"),
            Job(["check-cp", *o], config, _guard(check_cp), tag=tag, kind="check-cp"),
            Job(["classify", *o], config, _guard(check_classify), tag=tag, kind="classify"),
        ]
    return jobs + [sweep_job(rng, closed_form_series, random_joint_setup)]


# --- check-cp sweep job (part of multimode-joint) --------------------------

SWEEP_ORDER = 3
SWEEP_COUNT = 10
SWEEP_SCALE = 0.4
SWEEP_DT = (0.02, 0.3)


def sweep_job(rng, closed_form_series, random_joint_setup):
    """One check-cp sweep over the CLI's own seeded 1-2-mode sampler (the only
    caller of the sampling layer), with a sweep seed drawn from ``rng``.  A
    sweep that would meet a setup whose orders 0-2 are not CP is set aside;
    the screen replays the sampler as the CLI calls it."""
    set_aside = 0
    while True:
        dt = rng.uniform(*SWEEP_DT)
        seed = int(rng.integers(2**31))
        sampler = np.random.default_rng(seed)
        setups = [random_joint_setup(sampler, scale=SWEEP_SCALE, dt=dt) for _ in range(SWEEP_COUNT)]
        if all(low_orders_cp(closed_form_series(setup, 2), dt) for setup in setups):
            break
        set_aside += 1
    config = {"dt": dt, "sweep": {"count": SWEEP_COUNT, "scale": SWEEP_SCALE}}

    def check(stdout, csv_text):
        out = _json(stdout)
        orders = out["orders"]
        return (
            out["count"] == SWEEP_COUNT
            and out["seed"] == seed
            and len(orders) == SWEEP_ORDER + 1
            and all(orders[k]["all_cp"] for k in range(3))
        )

    argv = ["check-cp", "--order", str(SWEEP_ORDER), "--seed", str(seed)]
    return Job(argv, config, _guard(check), kind="sweep",
               set_aside={"order 0-2 not CP": set_aside} if set_aside else {})


def rows_of(job, rc, stdout, csv_text):
    """Output records of a finished job: CSV data rows for evolve/thermalize,
    swept setups for a check-cp sweep, one report otherwise."""
    if rc != 0:
        return 0
    if job.writes_csv:
        return max(csv_text.count("\n") - 1, 0)
    if "sweep" in job.config:
        return int(job.config["sweep"]["count"])
    return 1
