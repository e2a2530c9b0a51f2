"""Batch driver: evolve a setup, analyze thermalization, check complete
positivity, classify dynamics, or dump generator series.

Configuration is a single JSON document (matrices as nested arrays, complex
ladder couplings as {"re": .., "im": ..} pairs); all quantities are in the
dimensionless units of the library ([q, p] = i, energies scale rotation
rates).  Trajectories are written as CSV, each float exactly as Python's
'%.17g' prints it, so reruns with the same config and seed are
byte-identical.

Exit codes: 0 success, 1 usage or config errors (non-finite config arrays
included) and output errors (an --out file or stdout that cannot be
written), 2 numerical precondition failures (for example a step duration
too large for the principal-branch logarithm, a trajectory that overflows,
or any numpy RuntimeWarning, which a command raises as an error),
3 invariant violations.
"""

import argparse
import contextlib
import functools
import json
import os
import sys
import tempfile

import numpy as np

from .bombardment import generator_series_from_joint, generator_series_stack, truncated_cp_margins
from .channels import CP_TOL, JointSetup, apply_runs, identity_channel, reduce_from_joint
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
from .interpolation import cp_differential_check, gap_runs, generators_from_channel, propagate
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

# Most values formatted into one string of trajectory rows, in one pass; a
# string holds as many rows as fit, at least one.  Output streams string by
# string, so memory stays bounded on any grid: by tracemalloc, formatting a
# string of 2^12 values peaks at about 760 KB, 186 bytes per value of which
# 22 are its text, and a 10-column oscillator-bath trajectory of 401 rows is
# one string.
BLOCK_VALUES = 2**12
# Fewest rows stepped at a time: rows are stepped in blocks of the rows of
# 2 * BLOCK_VALUES values, or of STEP_ROWS rows when fewer fit.  Each block
# restarts state doubling, so the block size sets how the rows round, and
# blocks of only the 12 rows of a 12-mode trajectory in mode both that fit
# in 2^13 values cost it about 5 % of its run time; 128 rows peak near 4 MB.
STEP_ROWS = 128
# Setups drawn at a time by a check-cp sweep and evaluated together, one
# stacked series and CP-margin call per mode-count pair among them, so the
# sweep's memory stays bounded whatever its count.
SWEEP_CHUNK = 64


class ConfigError(Exception):
    pass


class InvariantViolation(Exception):
    pass


@contextlib.contextmanager
def _atomic(path):
    """A text handle on a temporary file beside path, which replaces path
    when the block ends and is removed when the block raises, so path is
    either left as it was or holds everything written.  A failed write
    raises OSError naming path, not the temporary file."""
    directory, tmp = os.path.dirname(os.path.abspath(path)), None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".rapidgauss-")
        with os.fdopen(fd, "w") as handle:
            yield handle
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


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


def _blocks(runs, rows):
    """Cut a stream of runs (channel, count) into lists of runs of `rows`
    rows each, the last one possibly shorter; a run that crosses a block
    boundary is split there."""
    block, room = [], rows
    for channel, count in runs:
        while count >= room:
            yield block + [(channel, room)]
            count -= room
            block, room = [], rows
        if count:
            block.append((channel, count))
            room -= count
    if block:
        yield block


def _write_trajectory(path, kind, count, times, mean, cov, trajectories):
    """Write a trajectory CSV of count rows to path (:func:`_atomic`) and
    return the final state of the first trajectory, checked against the
    uncertainty bound: a state that fails it raises InvariantViolation and
    leaves no file at path.

    The header is t and the state columns, or, for two trajectories, the
    state columns suffixed _discrete and then _interpolated, and
    max_abs_diff, the largest difference between the two in each row.
    times(first, stop) gives the times of rows first..stop-1 as an array.
    Each trajectory is an iterable of runs (channel, count), one row per
    application, applied in turn to the start (mean, cov).  The runs are
    read and stepped (:func:`rapidgauss.channels.apply_runs`) a block of
    rows at a time, so they may stream in; a run that crosses a block
    boundary is split there.  A block's rows are written as strings of
    newline-ended rows of '%.17g' values (:func:`_csvformat.format_table`),
    each string as many rows as fit in BLOCK_VALUES formatted values.  A
    block is the rows of 2 * BLOCK_VALUES values, or STEP_ROWS rows when
    fewer than that fit.
    """
    # imported on first use, so that its compilation and its tables cost the
    # import of the CLI nothing
    from . import _csvformat

    cols = _state_columns(kind, len(mean) // 2)
    if len(trajectories) == 2:
        cols = [f"{c}_{name}" for name in ("discrete", "interpolated") for c in cols]
        cols.append("max_abs_diff")
    header = ["t", *cols]
    rows = max(1, BLOCK_VALUES // len(header))
    step = max(2 * BLOCK_VALUES // len(header), STEP_ROWS)
    trajectories = [_blocks(runs, step) for runs in trajectories]
    ends = [(mean, cov)] * len(trajectories)
    with _atomic(path) as handle:
        handle.write(",".join(header) + "\n")
        for start in range(0, count, step):
            block = [apply_runs(next(runs), *end) for runs, end in zip(trajectories, ends)]
            ends = [(means[-1], covs[-1]) for means, covs in block]
            parts = [times(start, min(start + step, count))[:, None]]
            parts += [_columns(kind, means, covs) for means, covs in block]
            if len(block) == 2:
                (means, covs), (other_means, other_covs) = block
                diff = np.maximum(
                    np.abs(means - other_means).max(axis=1),
                    np.abs(covs - other_covs).max(axis=(1, 2)),
                )
                parts.append(diff[:, None])
            table = np.hstack(parts)
            for first in range(0, len(table), rows):
                handle.write(_csvformat.format_table(table[first : first + rows]) + "\n")
        final = GaussianState(*ends[0])
        check = validate_state(final)
        if not check.ok:
            raise InvariantViolation(f"evolved state invalid: {check.message}")
    return final


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

    def times(first, stop):
        return np.arange(first, stop) * dt / substeps

    state0 = _initial_state(cfg, setup.n_sys)
    channel = reduce_from_joint(setup)
    start, trajectories = (identity_channel(setup.n_sys), 1), []
    if mode != "interpolated":
        trajectories.append([start, (channel, steps)])
    if mode != "discrete":
        # the interpolated column comes from the generators alone
        gens = generators_from_channel(channel, dt)
        cp = cp_differential_check(gens)
        if not cp.ok:
            print(
                f"warning: the interpolating generator fails the differential CP test"
                f" (margin {cp.margin:.3g}); rows between strobes may break the"
                " uncertainty bound",
                file=sys.stderr,
            )
        sub = propagate(gens, dt / substeps)
        trajectories.append([start, (sub, steps * substeps)])
    count = steps * substeps + 1
    _write_trajectory(out_path, kind, count, times, state0.mean, state0.cov, trajectories)
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
    times = np.asarray(indices) * dt
    gaps = gap_runs(first_order_generators(bath), indices, unit=dt)
    # the bath's columns read only the covariance, so the mean starts at zero
    final = _write_trajectory(
        out_path, "oscillator_bath", len(times), lambda first, stop: times[first:stop],
        np.zeros(2), state0.cov, [gaps],
    )
    payload = dict(
        report.to_dict(), final_nu_S=decompose_cov(final.cov).nu, t_final=float(times[-1])
    )
    print(json.dumps(payload, sort_keys=True))
    return EXIT_OK


def _cp_margins(setups, order, dt):
    """Differential CP margins (len(setups), order + 1) of each setup's
    generator series truncated at every order, at step dt: one stacked
    series and CP-margin call per mode-count pair among the setups."""
    shapes = {}
    for i, setup in enumerate(setups):
        shapes.setdefault((setup.n_sys, setup.n_anc), []).append(i)
    margins = np.empty((len(setups), order + 1))
    for members in shapes.values():
        a, _, c = generator_series_stack([setups[i] for i in members], order)
        margins[members] = truncated_cp_margins(a, c, dt)
    return margins


def cmd_check_cp(cfg, order, seed):
    dt = _dt(cfg)
    sweep = cfg.get("sweep")
    if sweep is None:
        setup, _ = _joint_from_config(cfg)
        margins = _cp_margins([setup], order, dt)[0].tolist()
        orders = [
            {"order": k, "margin": margin, "cp": margin >= -CP_TOL}
            for k, margin in enumerate(margins)
        ]
        print(json.dumps({"dt": dt, "orders": orders}, sort_keys=True))
        return EXIT_OK
    sweep = _object("sweep", sweep)
    count = _count("count", sweep.get("count", 100), 1)
    scale = _number("scale", sweep.get("scale", 0.4))
    rng = np.random.default_rng(seed)
    mins = [np.inf] * (order + 1)
    for first in range(0, count, SWEEP_CHUNK):
        # draw a chunk in order, then evaluate it by stacks of one shape
        setups = [
            random_joint_setup(rng, scale=scale, dt=dt)
            for _ in range(min(SWEEP_CHUNK, count - first))
        ]
        margins = _cp_margins(setups, order, dt)
        # the minimum of each order over the draws in draw order, as a
        # running minimum over the setups one at a time would keep it
        mins = [min(low, *column) for low, column in zip(mins, margins.T.tolist())]
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
    series = generator_series_from_joint(setup, order)
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
    series = generator_series_from_joint(setup, order)
    print(json.dumps({"order": order, "coefficients": series.to_json_obj()}, sort_keys=True))
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


def _dispatch(args):
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


def main(argv=None):
    import warnings

    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # an overflow or invalid value anywhere in a command stops it: the
        # numbers after it cannot be trusted
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = _dispatch(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except (BranchCutError, NonFiniteStateError, SingularMatrixError) as exc:
        print(f"numerical precondition failed: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except RuntimeWarning as exc:
        print(f"numerical precondition failed: non-finite entries: {exc}", file=sys.stderr)
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
    ) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        # reads fail as ConfigError: this is a write, of --out or of stdout
        target = exc.filename or "stdout"
        print(f"output error: cannot write {target}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_USAGE


def entry():
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
