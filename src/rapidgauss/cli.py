"""Batch driver: evolve a setup, analyze thermalization, check complete
positivity, classify dynamics, or dump generator series.

Configuration is a single JSON document (matrices as nested arrays, complex
ladder couplings as {"re": .., "im": ..} pairs); all quantities are in the
dimensionless units of the library ([q, p] = i, energies scale rotation
rates).  Trajectories are written as CSV with 17-significant-digit floats so
reruns with the same config and seed are byte-identical.

Exit codes: 0 success, 1 usage or config errors, 2 numerical precondition
failures (for example a step duration too large for the principal-branch
logarithm, or a trajectory that overflows), 3 invariant violations.
"""

import argparse
import functools
import json
import os
import sys
import tempfile
from itertools import chain, islice, repeat

import numpy as np

from .bombardment import closed_form_series, generator_series_from_joint, truncated_cp_check
from .channels import CP_TOL, JointSetup, apply_sequence, identity_channel, reduce_from_joint
from .classifier import allowed_types, table_availability
from .errors import (
    BranchCutError,
    DimensionMismatchError,
    InvalidSetupError,
    InvalidStateError,
    MalformedSeriesError,
    NonFiniteStateError,
    SingularMatrixError,
)
# propagate is imported, not called: bench/test_bench.py expects the binding
from .interpolation import gap_channels, generators_from_channel, propagate  # noqa: F401
from .phasespace import GaussianState, validate_state
from .sampling import random_joint_setup
from .thermalization import (
    OscillatorBathSetup,
    analyze,
    decompose_cov,
    first_order_generators,
    ladder_coupling,
    rwa_coupling,
    to_joint_setup,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PRECONDITION = 2
EXIT_INVARIANT = 3

# Trajectory rows stepped and formatted at a time.  Output streams block by
# block, so memory stays bounded on any grid; a block of 128 formatted rows
# holds about 0.1 MB, and 512 raised the benchmark's peak RSS by ~0.3 MB.
BLOCK_ROWS = 128


class ConfigError(Exception):
    pass


class InvariantViolation(Exception):
    pass


def _write_atomic(path, lines):
    """Write the lines of a generator to path as they are produced, through a
    temporary file that replaces path once all are written; return its value."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".rapidgauss-")
    try:
        with os.fdopen(fd, "w") as handle:
            try:
                while True:
                    handle.write(next(lines) + "\n")
            except StopIteration as stop:
                result = stop.value
        os.replace(tmp, path)
        return result
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_config(path):
    try:
        with open(path) as handle:
            cfg = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return _object("config", cfg)


def _require(cfg, key):
    if key not in cfg:
        raise ConfigError(f"config is missing required key '{key}'")
    return cfg[key]


def _object(key, value):
    """A config value that must be a JSON object."""
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be an object, got {value!r}")
    return value


def _number(key, value):
    """A finite real number from the config: a JSON number, not a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    if not -sys.float_info.max <= value <= sys.float_info.max:
        raise ConfigError(f"{key} must be finite, got {value!r}")
    return float(value)


def _array(key, value):
    """A real array from the config: nested JSON lists of numbers."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be an array of numbers, got {value!r}") from None


def _dt(cfg):
    dt = _number("dt", _require(cfg, "dt"))
    if dt <= 0:
        raise ConfigError(f"dt must be positive, got {dt!r}")
    return dt


def _coupling_from_config(obj):
    if isinstance(obj, list):
        return _array("G", obj)
    if isinstance(obj, dict) and "rwa" in obj:
        params = _object("rwa", obj["rwa"])
        return rwa_coupling(_number("g1", params["g1"]), _number("gw", params["gw"]))
    if isinstance(obj, dict) and "ladder" in obj:
        params = _object("ladder", obj["ladder"])

        def as_complex(key):
            c = _object(key, params[key])
            return complex(_number("re", c["re"]), _number("im", c["im"]))

        return ladder_coupling(as_complex("g"), as_complex("h"))
    raise ConfigError("coupling must be a matrix or an {rwa|ladder: ...} object")


def _bath_from_config(setup_cfg, dt):
    return OscillatorBathSetup(
        E_S=_number("E_S", _require(setup_cfg, "E_S")),
        E_A=_number("E_A", _require(setup_cfg, "E_A")),
        nu_A=_number("nu_A", _require(setup_cfg, "nu_A")),
        G=_coupling_from_config(_require(setup_cfg, "G")),
        dt=dt,
    )


def _joint_from_config(cfg):
    setup_cfg = _object("setup", _require(cfg, "setup"))
    dt = _dt(cfg)
    kind = setup_cfg.get("kind", "joint")
    if kind == "oscillator_bath":
        return to_joint_setup(_bath_from_config(setup_cfg, dt)), kind
    if kind != "joint":
        raise ConfigError(f"unknown setup kind '{kind}'")
    arr = lambda key: _array(key, _require(setup_cfg, key))
    opt = lambda key: _array(key, setup_cfg[key]) if key in setup_cfg else None
    return (
        JointSetup(
            F_S=arr("F_S"),
            F_A=arr("F_A"),
            G=_coupling_from_config(_require(setup_cfg, "G")),
            alpha_S=opt("alpha_S"),
            alpha_A=opt("alpha_A"),
            X_A0=opt("X_A0"),
            sigma_A0=opt("sigma_A0"),
            dt=dt,
        ),
        kind,
    )


def _initial_state(cfg, n_modes):
    if "initial_state" in cfg:
        state = _object("initial_state", cfg["initial_state"])
        state = GaussianState(
            mean=_array("mean", _require(state, "mean")),
            cov=_array("cov", _require(state, "cov")),
        )
        if state.n_modes != n_modes:
            raise ConfigError("initial_state does not match the system size")
    else:
        state = GaussianState(mean=np.zeros(2 * n_modes), cov=np.eye(2 * n_modes))
    check = validate_state(state)
    if not check.ok:
        raise InvariantViolation(f"initial state invalid: {check.message}")
    return state


def _state_columns(kind, n_modes):
    if kind == "oscillator_bath":
        return ["nu_S", "s_cross", "s_plus", "purity"]
    cols = [f"mean_{i}" for i in range(2 * n_modes)]
    cols += [
        f"cov_{i}_{j}" for i in range(2 * n_modes) for j in range(i, 2 * n_modes)
    ]
    return cols


def _columns(kind, means, covs):
    """State columns of a block of states, one row per state."""
    if kind == "oscillator_bath":
        coeffs = decompose_cov(covs)
        purity = 1.0 / np.linalg.det(covs)
        return np.column_stack([coeffs.nu, coeffs.s_cross, coeffs.s_plus, purity])
    rows, cols = np.triu_indices(means.shape[1])
    return np.column_stack([means, covs[:, rows, cols]])


def _csv_rows(kind, times, mean, cov, trajectories):
    """CSV lines, one per time: t, then the state columns of each trajectory,
    and max_abs_diff between them when there are two.

    Each trajectory is an iterable of channels, one per row, applied in turn
    to the start (mean, cov).  The times and the channels are read, stepped
    and formatted BLOCK_ROWS rows at a time, so they may stream in.
    Returns the last (mean, cov) of the first trajectory.
    """
    times = iter(times)
    trajectories = [iter(channels) for channels in trajectories]
    ends = [(mean, cov)] * len(trajectories)
    while block_times := list(islice(times, BLOCK_ROWS)):
        block = [
            apply_sequence(islice(channels, len(block_times)), *end)
            for channels, end in zip(trajectories, ends)
        ]
        ends = [(means[-1], covs[-1]) for means, covs in block]
        parts = [np.array(block_times)[:, None]]
        parts += [_columns(kind, means, covs) for means, covs in block]
        if len(block) == 2:
            (means, covs), (other_means, other_covs) = block
            diff = np.maximum(
                np.abs(means - other_means).max(axis=1),
                np.abs(covs - other_covs).max(axis=(1, 2)),
            )
            parts.append(diff[:, None])
        table = np.hstack(parts)
        template = ",".join(["%.17g"] * table.shape[1])
        for values in table.tolist():
            yield template % tuple(values)
    return ends[0]


def _check_final(mean, cov):
    state = GaussianState(mean=mean, cov=cov)
    check = validate_state(state)
    if not check.ok:
        raise InvariantViolation(f"evolved state invalid: {check.message}")
    return state


def _count(key, value, low):
    """A count from the config: an integral number (not a bool) >= low."""
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral:
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    if value < low:
        raise ConfigError(f"{key} must be >= {low}")
    return int(value)


def cmd_evolve(cfg, out_path):
    setup, kind = _joint_from_config(cfg)
    steps = _count("steps", _require(cfg, "steps"), 1)
    mode = cfg.get("mode", "discrete")
    if mode not in ("discrete", "interpolated", "both"):
        raise ConfigError(f"unknown mode '{mode}'")
    dt = setup.dt
    substeps = _count("substeps", cfg.get("substeps", 10), 1) if mode == "interpolated" else 1
    marks = range(steps * substeps + 1)
    times = (k * dt / substeps for k in marks)
    state0 = _initial_state(cfg, setup.n_sys)
    channel = reduce_from_joint(setup)
    cols = _state_columns(kind, setup.n_sys)
    mean0, cov0 = state0.mean, state0.cov

    def lines():
        if mode == "both":
            yield ",".join(
                ["t"]
                + [f"{c}_discrete" for c in cols]
                + [f"{c}_interpolated" for c in cols]
                + ["max_abs_diff"]
            )
        else:
            yield ",".join(["t"] + cols)
        trajectories = []
        if mode != "interpolated":
            trajectories.append(chain([identity_channel(setup.n_sys)], repeat(channel, steps)))
        if mode != "discrete":
            # the interpolated column comes from the generators alone
            gen = generators_from_channel(channel, dt)
            trajectories.append(gap_channels(gen, marks, unit=dt / substeps))
        _check_final(*(yield from _csv_rows(kind, times, mean0, cov0, trajectories)))

    _write_atomic(out_path, lines())
    return EXIT_OK


def cmd_thermalize(cfg, out_path):
    setup_cfg = _object("setup", _require(cfg, "setup"))
    if setup_cfg.get("kind") != "oscillator_bath":
        raise ConfigError("thermalize requires an oscillator_bath setup")
    dt = _dt(cfg)
    bath = _bath_from_config(setup_cfg, dt)
    steps = _count("steps", _require(cfg, "steps"), 0)
    max_rows = _count("max_rows", cfg.get("max_rows", 1001), 1)
    state0 = _initial_state(cfg, 1)

    report = analyze(bath)
    count = min(steps + 1, max_rows)
    indices = np.unique(np.linspace(0, steps, count).round().astype(int)).tolist()
    times = [n * dt for n in indices]
    gaps = gap_channels(first_order_generators(bath), indices, unit=dt)

    def lines():
        yield ",".join(["t", "nu_S", "s_cross", "s_plus", "purity"])
        rows = _csv_rows("oscillator_bath", times, np.zeros(2), state0.cov, [gaps])
        return _check_final(*(yield from rows))

    final = _write_atomic(out_path, lines())
    payload = dict(report.to_dict(), final_nu_S=decompose_cov(final.cov).nu, t_final=times[-1])
    print(json.dumps(payload, sort_keys=True))
    return EXIT_OK


def _series_for(setup, order):
    if order <= 2:
        return closed_form_series(setup, order)
    return generator_series_from_joint(setup, order)


def cmd_check_cp(cfg, order, seed):
    dt = _dt(cfg)
    sweep = cfg.get("sweep")
    if sweep is None:
        setup, _ = _joint_from_config(cfg)
        series = _series_for(setup, order)
        orders = []
        for k in range(order + 1):
            res = truncated_cp_check(series, k, dt)
            orders.append({"order": k, "margin": res.margin, "cp": res.ok})
        print(json.dumps({"dt": dt, "orders": orders}, sort_keys=True))
        return EXIT_OK
    sweep = _object("sweep", sweep)
    count = _count("count", sweep.get("count", 100), 1)
    scale = _number("scale", sweep.get("scale", 0.4))
    rng = np.random.default_rng(seed)
    mins = [np.inf] * (order + 1)
    for _ in range(count):
        setup = random_joint_setup(rng, scale=scale, dt=dt)
        series = _series_for(setup, order)
        for k in range(order + 1):
            mins[k] = min(mins[k], truncated_cp_check(series, k, dt).margin)
    orders = [
        {"order": k, "min_margin": mins[k], "all_cp": bool(mins[k] >= -CP_TOL)}
        for k in range(order + 1)
    ]
    print(
        json.dumps(
            {"dt": dt, "count": count, "seed": seed, "orders": orders}, sort_keys=True
        )
    )
    return EXIT_OK


def cmd_classify(cfg, order):
    setup, _ = _joint_from_config(cfg)
    series = _series_for(setup, order)
    report = table_availability(series, order)
    allowed = sorted(allowed_types(order))
    within = report.present <= set(allowed)
    print(
        json.dumps(
            {"order": order, "flags": report.to_dict(), "allowed": allowed},
            sort_keys=True,
        )
    )
    if not within:
        raise InvariantViolation(
            f"order-{order} flags {sorted(report.present)} leave the availability table"
        )
    return EXIT_OK


def cmd_series(cfg, order):
    setup, _ = _joint_from_config(cfg)
    series = _series_for(setup, order)
    route = "closed_form" if order <= 2 else "log_series"
    print(
        json.dumps(
            {"order": order, "route": route, "coefficients": series.to_json_obj()},
            sort_keys=True,
        )
    )
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


@functools.cache
def _build_parser():
    """The argument parser, built on first use and kept for the process:
    parsing leaves it unchanged, and building it costs more than a short job."""
    parser = _Parser(prog="rapidgauss", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, needs_out, takes_order, takes_seed in [
        ("evolve", True, False, False),
        ("thermalize", True, False, False),
        ("check-cp", False, True, True),
        ("classify", False, True, False),
        ("series", False, True, False),
    ]:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="JSON configuration file")
        if needs_out:
            cmd.add_argument("--out", required=True, help="output CSV path")
        if takes_order:
            cmd.add_argument("--order", type=int, default=None, help="series order")
        if takes_seed:
            cmd.add_argument("--seed", type=int, default=None, help="sweep seed")
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _load_config(args.config)
        if args.command == "evolve":
            return cmd_evolve(cfg, args.out)
        if args.command == "thermalize":
            return cmd_thermalize(cfg, args.out)
        order = args.order if args.order is not None else _count("order", cfg.get("order", 2), 0)
        if args.command == "check-cp":
            seed = args.seed if args.seed is not None else _count("seed", cfg.get("seed", 0), 0)
            return cmd_check_cp(cfg, order, seed)
        if args.command == "classify":
            return cmd_classify(cfg, order)
        return cmd_series(cfg, order)
    except (BranchCutError, NonFiniteStateError, SingularMatrixError) as exc:
        print(f"numerical precondition failed: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (InvariantViolation, InvalidStateError) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (
        ConfigError,
        InvalidSetupError,
        DimensionMismatchError,
        MalformedSeriesError,
        KeyError,
        ValueError,
        OSError,
    ) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry():
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
