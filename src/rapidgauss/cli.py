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
from .channels import JointSetup, reduce_from_joint, trajectory
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
from .interpolation import flow_states, generators_from_channel, propagate  # noqa: F401
from .phasespace import GaussianState, validate_state
from .sampling import random_joint_setup
from .thermalization import (
    OscillatorBathSetup,
    analyze,
    decompose_cov,
    ladder_coupling,
    rwa_coupling,
    simulate_first_order,
    to_joint_setup,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PRECONDITION = 2
EXIT_INVARIANT = 3


class ConfigError(Exception):
    pass


class InvariantViolation(Exception):
    pass


def _fmt(x):
    return format(float(x), ".17g")


def _csv_line(values):
    return ",".join(_fmt(v) for v in values)


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


def _state_values(kind, state):
    if kind == "oscillator_bath":
        coeffs = decompose_cov(state.cov)
        return [
            coeffs.nu,
            coeffs.s_cross,
            coeffs.s_plus,
            1.0 / float(np.linalg.det(state.cov)),
        ]
    n = state.mean.size
    vals = list(state.mean)
    vals += [state.cov[i, j] for i in range(n) for j in range(i, n)]
    return vals


def _check_final(state):
    check = validate_state(state)
    if not check.ok:
        raise InvariantViolation(f"evolved state invalid: {check.message}")


def _at_least(key, value, low):
    if value < low:
        raise ConfigError(f"{key} must be >= {low}")
    return value


def cmd_evolve(cfg, out_path):
    setup, kind = _joint_from_config(cfg)
    steps = _at_least("steps", int(_require(cfg, "steps")), 1)
    mode = cfg.get("mode", "discrete")
    if mode not in ("discrete", "interpolated", "both"):
        raise ConfigError(f"unknown mode '{mode}'")
    if mode == "interpolated":
        substeps = _at_least("substeps", int(cfg.get("substeps", 10)), 1)
    dt = setup.dt
    state0 = _initial_state(cfg, setup.n_sys)
    channel = reduce_from_joint(setup)
    cols = _state_columns(kind, setup.n_sys)

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
        if mode == "discrete":
            for n, state in enumerate(trajectory(channel, state0, steps)):
                yield _csv_line([n * dt] + _state_values(kind, state))
        elif mode == "interpolated":
            gens = generators_from_channel(channel, dt)
            grid = [k * dt / substeps for k in range(steps * substeps + 1)]
            for t, state in zip(grid, flow_states(gens, state0, grid)):
                yield _csv_line([t] + _state_values(kind, state))
        else:
            # the interpolated column comes from the generators alone
            gens = generators_from_channel(channel, dt)
            states = trajectory(channel, state0, steps)
            times = [n * dt for n in range(steps + 1)]
            for t, state, interp in zip(times, states, flow_states(gens, state0, times)):
                diff = max(
                    np.abs(state.mean - interp.mean).max(),
                    np.abs(state.cov - interp.cov).max(),
                )
                yield _csv_line(
                    [t] + _state_values(kind, state) + _state_values(kind, interp) + [diff]
                )
        _check_final(state)

    _write_atomic(out_path, lines())
    return EXIT_OK


def cmd_thermalize(cfg, out_path):
    setup_cfg = _require(cfg, "setup")
    if setup_cfg.get("kind") != "oscillator_bath":
        raise ConfigError("thermalize requires an oscillator_bath setup")
    dt = float(_require(cfg, "dt"))
    bath = _bath_from_config(setup_cfg, dt)
    steps = _at_least("steps", int(_require(cfg, "steps")), 0)
    max_rows = _at_least("max_rows", int(cfg.get("max_rows", 1001)), 1)
    state0 = _initial_state(cfg, 1)

    report = analyze(bath)
    count = min(steps + 1, max_rows)
    indices = np.unique(np.linspace(0, steps, count).round().astype(int))
    times = [int(n) * dt for n in indices]
    rows = simulate_first_order(bath, state0.cov, times)

    header = ",".join(["t", "nu_S", "s_cross", "s_plus", "purity"])
    body = (
        _csv_line([t, coeffs.nu, coeffs.s_cross, coeffs.s_plus, pur])
        for t, coeffs, pur in rows
    )
    _write_atomic(out_path, itertools.chain([header], body))
    payload = dict(report.to_dict(), final_nu_S=rows[-1][1].nu, t_final=rows[-1][0])
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
    count = int(sweep.get("count", 100))
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
