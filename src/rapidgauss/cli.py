"""Batch driver: evolve a setup, analyze thermalization, check complete
positivity, classify dynamics, or dump generator series.

Configuration is a single JSON document (matrices as nested arrays, complex
ladder couplings as {"re": .., "im": ..} pairs); all quantities are in the
dimensionless units of the library ([q, p] = i, energies scale rotation
rates).  Trajectories are written as CSV with 17-significant-digit floats so
reruns with the same config and seed are byte-identical.

Exit codes: 0 success, 1 usage or config errors, 2 numerical precondition
failures (for example a step duration too large for the principal-branch
logarithm), 3 invariant violations.
"""

import argparse
import itertools
import json
import os
import sys
import tempfile

import numpy as np

from .bombardment import closed_form_series, generator_series_from_joint, truncated_cp_check
from .channels import JointSetup, apply_sequence, reduce_from_joint
from .classifier import allowed_types, table_availability
from .errors import (
    BranchCutError,
    DimensionMismatchError,
    InvalidSetupError,
    InvalidStateError,
    MalformedSeriesError,
    NotHermitianError,
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
    """Write lines to path as they are produced, through a temporary file
    that replaces path only once every line is written."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".rapidgauss-")
    try:
        with os.fdopen(fd, "w") as handle:
            for line in lines:
                handle.write(line + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_config(path):
    try:
        with open(path) as handle:
            return json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc


def _require(cfg, key):
    if key not in cfg:
        raise ConfigError(f"config is missing required key '{key}'")
    return cfg[key]


def _coupling_from_config(obj):
    if isinstance(obj, list):
        return np.asarray(obj, dtype=float)
    if isinstance(obj, dict) and "rwa" in obj:
        params = obj["rwa"]
        return rwa_coupling(float(params["g1"]), float(params["gw"]))
    if isinstance(obj, dict) and "ladder" in obj:
        params = obj["ladder"]
        as_complex = lambda c: complex(float(c["re"]), float(c["im"]))
        return ladder_coupling(as_complex(params["g"]), as_complex(params["h"]))
    raise ConfigError("coupling must be a matrix or an {rwa|ladder: ...} object")


def _bath_from_config(setup_cfg, dt):
    return OscillatorBathSetup(
        E_S=float(_require(setup_cfg, "E_S")),
        E_A=float(_require(setup_cfg, "E_A")),
        nu_A=float(_require(setup_cfg, "nu_A")),
        G=_coupling_from_config(_require(setup_cfg, "G")),
        dt=dt,
    )


def _joint_from_config(cfg):
    setup_cfg = _require(cfg, "setup")
    dt = float(_require(cfg, "dt"))
    kind = setup_cfg.get("kind", "joint")
    if kind == "oscillator_bath":
        return to_joint_setup(_bath_from_config(setup_cfg, dt)), kind
    if kind != "joint":
        raise ConfigError(f"unknown setup kind '{kind}'")
    arr = lambda key: np.asarray(_require(setup_cfg, key), dtype=float)
    opt = lambda key: (
        np.asarray(setup_cfg[key], dtype=float) if key in setup_cfg else None
    )
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
        state = GaussianState.from_dict(cfg["initial_state"])
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


def _stepped(channels, mean, cov):
    """Blocks (means, covs) of at most BLOCK_ROWS states, after each of the
    channels in turn."""
    for start in range(0, len(channels), BLOCK_ROWS):
        means, covs = apply_sequence(channels[start : start + BLOCK_ROWS], mean, cov)
        mean, cov = means[-1], covs[-1]
        yield means, covs


def _csv_rows(kind, times, blocks):
    """CSV lines, one per time: t, then the state columns of each trajectory
    in a block, and max_abs_diff between them when there are two.

    Each block is a tuple of (means, covs), one per trajectory, over the
    same rows.  Returns the last (mean, cov) of the first trajectory.
    """
    row = 0
    for block in blocks:
        size = len(block[0][0])
        parts = [np.array(times[row : row + size])[:, None]]
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
        row += size
    means, covs = block[0]
    return means[-1], covs[-1]


def _check_final(mean, cov):
    check = validate_state(GaussianState(mean=mean, cov=cov))
    if not check.ok:
        raise InvariantViolation(f"evolved state invalid: {check.message}")


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
    if mode == "interpolated":
        substeps = _count("substeps", cfg.get("substeps", 10), 1)
        times = [k * dt / substeps for k in range(steps * substeps + 1)]
    else:
        times = [n * dt for n in range(steps + 1)]
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
        start = (mean0[None], cov0[None])
        if mode == "discrete":
            blocks = itertools.chain(
                [(start,)], zip(_stepped([channel] * steps, mean0, cov0))
            )
        else:
            # the interpolated column comes from the generators alone
            gaps = gap_channels(generators_from_channel(channel, dt), times)
            if mode == "interpolated":
                blocks = zip(_stepped(gaps, mean0, cov0))
            else:
                # row 0 pairs the start with the flow's first, zero-gap step
                means, covs = apply_sequence(gaps[:1], mean0, cov0)
                blocks = itertools.chain(
                    [(start, (means, covs))],
                    zip(
                        _stepped([channel] * steps, mean0, cov0),
                        _stepped(gaps[1:], means[0], covs[0]),
                    ),
                )
        _check_final(*(yield from _csv_rows(kind, times, blocks)))

    _write_atomic(out_path, lines())
    return EXIT_OK


def cmd_thermalize(cfg, out_path):
    setup_cfg = _require(cfg, "setup")
    if setup_cfg.get("kind") != "oscillator_bath":
        raise ConfigError("thermalize requires an oscillator_bath setup")
    dt = float(_require(cfg, "dt"))
    bath = _bath_from_config(setup_cfg, dt)
    steps = _count("steps", _require(cfg, "steps"), 0)
    max_rows = _count("max_rows", cfg.get("max_rows", 1001), 1)
    state0 = _initial_state(cfg, 1)

    report = analyze(bath)
    count = min(steps + 1, max_rows)
    indices = np.unique(np.linspace(0, steps, count).round().astype(int))
    times = [int(n) * dt for n in indices]
    gaps = gap_channels(first_order_generators(bath), times)
    final = []

    def lines():
        yield ",".join(["t", "nu_S", "s_cross", "s_plus", "purity"])
        blocks = zip(_stepped(gaps, np.zeros(2), state0.cov))
        final.append((yield from _csv_rows("oscillator_bath", times, blocks)))

    _write_atomic(out_path, lines())
    _, cov = final[0]
    payload = dict(report.to_dict(), final_nu_S=decompose_cov(cov).nu, t_final=times[-1])
    print(json.dumps(payload, sort_keys=True))
    return EXIT_OK


def _series_for(setup, order):
    if order <= 2:
        return closed_form_series(setup, order)
    return generator_series_from_joint(setup, order)


def cmd_check_cp(cfg, order, seed):
    dt = float(_require(cfg, "dt"))
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
    count = _count("count", sweep.get("count", 100), 1)
    scale = float(sweep.get("scale", 0.4))
    rng = np.random.default_rng(seed)
    mins = [np.inf] * (order + 1)
    for _ in range(count):
        setup = random_joint_setup(rng, scale=scale, dt=dt)
        series = _series_for(setup, order)
        for k in range(order + 1):
            mins[k] = min(mins[k], truncated_cp_check(series, k, dt).margin)
    orders = [
        {"order": k, "min_margin": mins[k], "all_cp": bool(mins[k] >= -1e-9)}
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


def _build_parser():
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
        order = args.order if args.order is not None else int(cfg.get("order", 2))
        if args.command == "check-cp":
            seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
            return cmd_check_cp(cfg, order, seed)
        if args.command == "classify":
            return cmd_classify(cfg, order)
        return cmd_series(cfg, order)
    except (BranchCutError, SingularMatrixError) as exc:
        print(f"numerical precondition failed: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (InvariantViolation, InvalidStateError, NotHermitianError) as exc:
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
