import contextlib
import errno
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rapidgauss import _csvformat, cli
from rapidgauss.bombardment import (
    closed_form_series,
    generator_series_from_joint,
    truncated_cp_check,
)
from rapidgauss.channels import (
    CP_TOL,
    CpReport,
    GaussianChannel,
    JointSetup,
    apply,
    identity_channel,
    reduce_from_joint,
)
from rapidgauss.classifier import table_availability
from rapidgauss.cli import main
from rapidgauss.interpolation import EIGENBASIS_COND_MAX, Generators, cp_differential_check
from rapidgauss.phasespace import GaussianState
from rapidgauss.sampling import random_joint_setup
from rapidgauss.thermalization import first_order_generators

from helpers import fresh_python, noiseless_flow, row_errors


def _write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return header, data


def _free_joint_cfg(steps=8, mode="discrete"):
    return {
        "setup": {
            "kind": "joint",
            "F_S": [[1.1, 0.2], [0.2, 0.9]],
            "F_A": [[1.0, 0.0], [0.0, 1.0]],
            "G": [[0.0, 0.0], [0.0, 0.0]],
            "alpha_S": [0.3, -0.1],
            "sigma_A0": [[2.0, 0.0], [0.0, 2.0]],
        },
        "dt": 0.1,
        "steps": steps,
        "mode": mode,
    }


def _bath_cfg(G, steps=400, dt=0.05, nu_A=3.0, mode="discrete", **extra):
    cfg = {
        "setup": {"kind": "oscillator_bath", "E_S": 1.0, "E_A": 1.0, "nu_A": nu_A, "G": G},
        "dt": dt,
        "steps": steps,
        "mode": mode,
    }
    cfg.update(extra)
    return cfg


def test_evolve_decoupled_matches_free_flow(tmp_path):
    cfg = _free_joint_cfg()
    out = tmp_path / "traj.csv"
    assert main(["evolve", "--config", _write_config(tmp_path, cfg), "--out", str(out)]) == 0
    header, data = _read_csv(out)
    assert header[0] == "t"
    f, alpha = cfg["setup"]["F_S"], cfg["setup"]["alpha_S"]
    state = GaussianState(mean=np.zeros(2), cov=np.eye(2))
    for row in data:
        t = row[0]
        expected = apply(noiseless_flow(f, t, alpha), state)
        assert_allclose(row[1:3], expected.mean, atol=1e-12)
        assert_allclose(
            row[3:6],
            [expected.cov[0, 0], expected.cov[0, 1], expected.cov[1, 1]],
            atol=1e-12,
        )


def test_evolve_rwa_converges_to_bath_temperature(tmp_path):
    cfg = _bath_cfg({"rwa": {"g1": 0.4, "gw": 0.0}}, steps=3000, dt=0.1)
    out = tmp_path / "traj.csv"
    assert main(["evolve", "--config", _write_config(tmp_path, cfg), "--out", str(out)]) == 0
    header, data = _read_csv(out)
    nu_col = header.index("nu_S")
    assert abs(data[-1, nu_col] - 3.0) < 0.02


def test_evolve_both_mode_stroboscopic_agreement(tmp_path):
    cfg = _bath_cfg([[0.3, 0.1], [-0.1, 0.2]], steps=20, mode="both")
    out = tmp_path / "traj.csv"
    assert main(["evolve", "--config", _write_config(tmp_path, cfg), "--out", str(out)]) == 0
    header, data = _read_csv(out)
    cols = ["nu_S", "s_cross", "s_plus", "purity"]
    assert header == [
        "t", *(f"{c}_discrete" for c in cols), *(f"{c}_interpolated" for c in cols), "max_abs_diff"
    ]
    diff_col = header.index("max_abs_diff")
    assert np.abs(data[:, diff_col]).max() <= 1e-8


def test_evolve_both_mode_beyond_quarter_turn(tmp_path):
    # E_S dt = 2 rotates T by more than pi/2 per step; the interpolation must
    # still hit every stroboscopic point
    cfg = _bath_cfg([[0.3, 0.0], [0.0, 0.0]], steps=20, dt=2.0, mode="both")
    out = tmp_path / "traj.csv"
    assert main(["evolve", "--config", _write_config(tmp_path, cfg), "--out", str(out)]) == 0
    header, data = _read_csv(out)
    assert np.abs(data[:, header.index("max_abs_diff")]).max() <= 1e-8


def test_evolve_interpolated_grid(tmp_path):
    cfg = _bath_cfg([[0.3, 0.0], [0.0, 0.3]], steps=5, mode="interpolated", substeps=4)
    out = tmp_path / "traj.csv"
    assert main(["evolve", "--config", _write_config(tmp_path, cfg), "--out", str(out)]) == 0
    _, data = _read_csv(out)
    assert data.shape[0] == 21
    assert data[1, 0] == pytest.approx(0.05 / 4)


def _ladder_cfg(**extra):
    """A ladder bath at dt = 1 whose interpolating generator fails the
    differential CP test by -0.111."""
    ladder = {"ladder": {"g": {"re": 0.15, "im": -0.35}, "h": {"re": 0.0, "im": 0.3}}}
    cfg = _bath_cfg(ladder, steps=20, dt=1.0, **extra)
    cfg["setup"].update(E_S=1.34, E_A=1.62, nu_A=3.84)
    return cfg


@pytest.mark.parametrize("mode", ["interpolated", "both"])
def test_evolve_warns_of_an_interpolating_generator_that_fails_the_cp_test(
    tmp_path, monkeypatch, capsys, mode
):
    # the rows between strobes may then be unphysical: evolve says so in one
    # stderr line and writes the same CSV, with exit 0
    path = _write_config(tmp_path, _ladder_cfg(mode=mode, substeps=4))
    warned, silent = tmp_path / "warned.csv", tmp_path / "silent.csv"
    assert main(["evolve", "--config", path, "--out", str(warned)]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("warning: ") and captured.err.count("\n") == 1
    assert "(margin -0.111)" in captured.err
    check = cli.cp_differential_check
    monkeypatch.setattr(
        cli, "cp_differential_check", lambda gen: CpReport(ok=True, margin=check(gen).margin)
    )
    assert main(["evolve", "--config", path, "--out", str(silent)]) == 0
    assert capsys.readouterr().err == ""
    assert warned.read_bytes() == silent.read_bytes()


@pytest.mark.parametrize(
    "cfg",
    [
        # the generator passes the CP test with margin +0.28
        _bath_cfg({"rwa": {"g1": 0.3, "gw": 0.0}}, steps=20, dt=1.5, mode="both"),
        # no generator is taken in mode discrete
        _ladder_cfg(mode="discrete"),
    ],
    ids=["strobe-both", "ladder-discrete"],
)
def test_evolve_is_silent_without_a_failing_interpolating_generator(tmp_path, capsys, cfg):
    out = tmp_path / "t.csv"
    assert main(["evolve", "--config", _write_config(tmp_path, cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "coupling,expect",
    [
        ({"rwa": {"g1": 0.1, "gw": 0.0}}, {"has_fixed_point": True, "nu_infinity": 3.0, "cooling_saturated": True}),
        ([[0.1, 0.0], [0.0, 0.0]], {"has_fixed_point": False, "nu_infinity": None}),
        ([[0.2, 0.0], [0.0, 0.1]], {"has_fixed_point": True, "nu_infinity": 3.75, "cooling_saturated": False}),
    ],
)
def test_thermalize_reports(tmp_path, capsys, coupling, expect):
    cfg = _bath_cfg(coupling, steps=2000)
    out = tmp_path / "traj.csv"
    code = main(["thermalize", "--config", _write_config(tmp_path, cfg), "--out", str(out)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    for key, value in expect.items():
        if isinstance(value, float):
            assert report[key] == pytest.approx(value, rel=1e-9)
        else:
            assert report[key] == value
    header, data = _read_csv(out)
    assert header == ["t", "nu_S", "s_cross", "s_plus", "purity"]
    assert data.shape[0] >= 2


def test_thermalize_ladder_coupling(tmp_path, capsys):
    cfg = _bath_cfg(
        {"ladder": {"g": {"re": 1.0, "im": 0.0}, "h": {"re": 0.5, "im": 0.0}}},
        steps=100,
    )
    out = tmp_path / "traj.csv"
    assert main(["thermalize", "--config", _write_config(tmp_path, cfg), "--out", str(out)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["nu_infinity"] == pytest.approx(5.0, rel=1e-9)


def test_thermalize_checks_its_final_state(tmp_path, monkeypatch, capsys):
    # negative noise drives the covariance below the uncertainty bound; the
    # final state is checked as in evolve, so no CSV and no report appear
    def negative_noise(bath):
        gen = first_order_generators(bath)
        return Generators(A=gen.A, b=gen.b, C=-0.5 * np.eye(2))

    monkeypatch.setattr(cli, "first_order_generators", negative_noise)
    cfg = _bath_cfg({"rwa": {"g1": 0.3, "gw": 0.1}}, steps=4000, dt=0.1, max_rows=401)
    out = tmp_path / "traj.csv"
    assert main(["thermalize", "--config", _write_config(tmp_path, cfg), "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert "evolved state invalid" in captured.err
    assert captured.out == ""
    # neither the --out file nor its temporary file is left
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_check_cp_single_setup(tmp_path, capsys):
    cfg = _bath_cfg([[0.3, 0.1], [-0.1, 0.2]], dt=0.01)
    code = main(["check-cp", "--config", _write_config(tmp_path, cfg), "--order", "2"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert [entry["cp"] for entry in report["orders"]] == [True, True, True]
    assert report["orders"][0]["margin"] == pytest.approx(0.0, abs=1e-12)
    # the margins of the setup's own series, truncation by truncation
    series = generator_series_from_joint(cli._joint_from_config(cfg)[0], 2)
    margins = [cp_differential_check(series.truncate(k, 0.01)).margin for k in range(3)]
    assert [entry["margin"] for entry in report["orders"]] == margins


def test_check_cp_sweep_is_deterministic(tmp_path, capsys):
    cfg = {"dt": 0.01, "sweep": {"count": 20, "scale": 0.4}}
    path = _write_config(tmp_path, cfg)
    assert main(["check-cp", "--config", path, "--order", "2", "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert main(["check-cp", "--config", path, "--order", "2", "--seed", "7"]) == 0
    second = capsys.readouterr().out
    assert first == second
    report = json.loads(first)
    assert all(entry["all_cp"] for entry in report["orders"])


def _sweep_setup_by_setup(dt, count, scale, order, seed):
    """The stdout of a check-cp sweep evaluated one setup at a time: each
    drawn setup's own series and the check of each of its truncations,
    folded into a running minimum per order."""
    rng = np.random.default_rng(seed)
    mins = [np.inf] * (order + 1)
    for _ in range(count):
        setup = random_joint_setup(rng, scale=scale, dt=dt)
        series = generator_series_from_joint(setup, order)
        for k in range(order + 1):
            mins[k] = min(mins[k], cp_differential_check(series.truncate(k, dt)).margin)
    orders = [
        {"order": k, "min_margin": mins[k], "all_cp": bool(mins[k] >= -CP_TOL)}
        for k in range(order + 1)
    ]
    report = {"dt": dt, "count": count, "seed": seed, "orders": orders}
    return json.dumps(report, sort_keys=True) + "\n"


@pytest.mark.parametrize("order", [0, 3])
@pytest.mark.parametrize("count", [1, 7, 100])
def test_stacked_sweep_prints_what_a_setup_by_setup_sweep_does(
    tmp_path, capsys, monkeypatch, count, order
):
    # chunks of 3 draws, each split by mode counts into stacks, so chunk
    # boundaries and several stacks per chunk are crossed
    monkeypatch.setattr(cli, "SWEEP_CHUNK", 3)
    cfg = {"dt": 0.15, "sweep": {"count": count, "scale": 0.4}}
    path = _write_config(tmp_path, cfg)
    for seed in range(5):
        args = ["--config", path, "--order", str(order), "--seed", str(seed)]
        assert main(["check-cp", *args]) == 0
        assert capsys.readouterr().out == _sweep_setup_by_setup(0.15, count, 0.4, order, seed)


def test_check_cp_third_order_violation(tmp_path, capsys):
    cfg = {
        "setup": {
            "kind": "joint",
            "F_S": [[1.3, 0.0], [0.0, 1.3]],
            "F_A": [[0.7, 0.0], [0.0, 0.7]],
            "G": [[0.9, 0.0], [0.0, 0.0]],
            "sigma_A0": [[1.0, 0.0], [0.0, 1.0]],
        },
        "dt": 0.2,
    }
    assert main(["check-cp", "--config", _write_config(tmp_path, cfg), "--order", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    margins = {entry["order"]: entry for entry in report["orders"]}
    assert margins[2]["cp"]
    assert not margins[3]["cp"]
    assert margins[3]["margin"] < -1e-6


def test_classify_command(tmp_path, capsys):
    cfg = _bath_cfg({"rwa": {"g1": 0.3, "gw": 0.0}}, dt=0.05)
    assert main(["classify", "--config", _write_config(tmp_path, cfg), "--order", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["flags"]["amplification_relaxation"]
    assert report["flags"]["thermal_noise"]
    assert not report["flags"]["single_mode_rotation"]
    assert set(report["flags"]) <= set(report["allowed"]) | set(report["flags"])


def test_series_command_matches_library(tmp_path, capsys):
    cfg = _bath_cfg([[0.2, 0.0], [0.0, 0.1]], dt=0.05)
    assert main(["series", "--config", _write_config(tmp_path, cfg), "--order", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"order", "coefficients"}
    coeffs = report["coefficients"]
    assert [c["k"] for c in coeffs] == [0, 1, 2]
    assert_allclose(np.asarray(coeffs[0]["A"]), np.eye(2))
    det_g = 0.2 * 0.1
    assert_allclose(
        np.asarray(coeffs[1]["A"]), 0.5 * det_g * np.array([[0, 1.0], [-1.0, 0]]), atol=1e-15
    )


def test_series_command_at_any_order(tmp_path, capsys):
    cfg = _bath_cfg([[0.2, 0.0], [0.0, 0.1]], dt=0.05)
    assert main(["series", "--config", _write_config(tmp_path, cfg), "--order", "6"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"order", "coefficients"}
    assert [c["k"] for c in report["coefficients"]] == list(range(7))


def _joint_cfg_from(setup):
    fields = ("F_S", "F_A", "G", "alpha_S", "alpha_A", "X_A0", "sigma_A0")
    arrays = {name: getattr(setup, name).tolist() for name in fields}
    return {"setup": dict(kind="joint", **arrays), "dt": setup.dt}


@pytest.mark.parametrize(
    "cfg",
    [
        _bath_cfg([[0.3, 0.1], [-0.1, 0.2]], dt=0.05),
        # 2 + 2 modes whose order-2 truncation fails the CP test at this dt
        _joint_cfg_from(random_joint_setup(np.random.default_rng(166), n_sys=2, n_anc=2, dt=0.2)),
    ],
    ids=["bath", "joint-2+2"],
)
def test_low_orders_match_the_closed_forms(tmp_path, capsys, cfg):
    # every order comes from the logarithm series of the lifted channel
    # series; through order 2 it reproduces the paper's closed forms
    path = _write_config(tmp_path, cfg)
    setup, _ = cli._joint_from_config(cfg)
    for order in range(3):
        closed = closed_form_series(setup, order)
        args = ["--config", path, "--order", str(order)]
        assert main(["series", *args]) == 0
        coeffs = json.loads(capsys.readouterr().out)["coefficients"]
        assert len(coeffs) == order + 1
        for field in ("A", "b", "C"):
            want = getattr(closed, field)
            scale = max(np.abs(w).max() for w in want)
            for entry, w in zip(coeffs, want):
                assert np.abs(np.asarray(entry[field]) - w).max() <= 1e-13 * scale
        assert main(["check-cp", *args]) == 0
        cp = [entry["cp"] for entry in json.loads(capsys.readouterr().out)["orders"]]
        assert cp == [truncated_cp_check(closed, k, setup.dt).ok for k in range(order + 1)]
        assert main(["classify", *args]) == 0
        flags = json.loads(capsys.readouterr().out)["flags"]
        assert flags == table_availability(closed, order).to_dict()
    assert cp == [True, True, cfg["setup"]["kind"] == "oscillator_bath"]


def test_evolve_deterministic_output(tmp_path):
    cfg = _bath_cfg([[0.3, 0.1], [-0.1, 0.2]], steps=50)
    path = _write_config(tmp_path, cfg)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["evolve", "--config", path, "--out", str(out1)]) == 0
    assert main(["evolve", "--config", path, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_exit_code_usage_errors(tmp_path, capsys):
    assert main(["evolve", "--config", str(tmp_path / "missing.json"), "--out", "x.csv"]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["evolve", "--config", str(bad), "--out", "x.csv"]) == 1
    cfg = _free_joint_cfg()
    del cfg["steps"]
    assert main(["evolve", "--config", _write_config(tmp_path, cfg), "--out", "x.csv"]) == 1
    assert main(["bogus-command"]) == 1
    capsys.readouterr()


def test_argument_parser_is_built_once(tmp_path, monkeypatch, capsys):
    # one parser and its five subcommand parsers, for any number of calls
    built = []
    init = cli._Parser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting)
    path = _write_config(tmp_path, _bath_cfg({"rwa": {"g1": 0.1, "gw": 0.0}}, steps=3))
    for name in ("a.csv", "b.csv"):
        assert main(["evolve", "--config", path, "--out", str(tmp_path / name)]) == 0
    assert len(built) <= 6
    assert main(["--help"]) == 0
    assert main(["bogus-command"]) == 1
    help_text, usage_error = capsys.readouterr()
    assert help_text.startswith("usage: rapidgauss [-h]") and "positional arguments" in help_text
    assert "rapidgauss: error: argument command: invalid choice: 'bogus-command'" in usage_error
    assert main(["--help"]) == 0
    assert main(["bogus-command"]) == 1
    assert tuple(capsys.readouterr()) == (help_text, usage_error)
    assert len(built) <= 6


def test_exit_code_branch_cut(tmp_path, capsys):
    # a half-turn per step puts T exactly on the logarithm's branch cut
    cfg = _free_joint_cfg(mode="interpolated")
    cfg["setup"]["F_S"] = [[1.0, 0.0], [0.0, 1.0]]
    cfg["setup"]["alpha_S"] = [0.0, 0.0]
    cfg["dt"] = float(np.pi)
    out = tmp_path / "t.csv"
    code = main(["evolve", "--config", _write_config(tmp_path, cfg), "--out", str(out)])
    assert code == 2
    assert "reduce the step duration" in capsys.readouterr().err


def test_exit_code_near_full_swap(tmp_path, capsys):
    # g1 = pi/2 at dt = 1 swaps system and ancilla in one collision: T is
    # singular to working precision, so no generator exists
    cfg = _bath_cfg({"rwa": {"g1": np.pi / 2, "gw": 0.0}}, steps=5, dt=1.0, mode="both")
    out = tmp_path / "t.csv"
    assert main(["evolve", "--config", _write_config(tmp_path, cfg), "--out", str(out)]) == 2
    assert "numerical precondition failed" in capsys.readouterr().err
    assert not out.exists()


def test_failed_run_leaves_no_partial_output(tmp_path, capsys):
    # rows are streamed to a temporary file; a run that fails after the
    # header is written must neither leave it behind nor create the output
    cfg = _free_joint_cfg(mode="interpolated")
    cfg["setup"]["F_S"] = [[1.0, 0.0], [0.0, 1.0]]
    cfg["dt"] = float(np.pi)
    out = tmp_path / "t.csv"
    assert main(["evolve", "--config", _write_config(tmp_path, cfg), "--out", str(out)]) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]
    capsys.readouterr()


def test_exit_code_invalid_initial_state(tmp_path, capsys):
    cfg = _bath_cfg([[0.1, 0.0], [0.0, 0.1]], steps=5)
    cfg["initial_state"] = {"mean": [0.0, 0.0], "cov": [[0.2, 0.0], [0.0, 0.2]]}
    out = tmp_path / "t.csv"
    code = main(["evolve", "--config", _write_config(tmp_path, cfg), "--out", str(out)])
    assert code == 3
    assert "invariant" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,extra",
    [
        ("evolve", {"mode": "interpolated", "substeps": 0}),
        ("evolve", {"mode": "interpolated", "substeps": -1}),
        ("thermalize", {"max_rows": 0}),
        ("thermalize", {"steps": -1}),
    ],
)
def test_exit_code_bad_grid_settings(tmp_path, capsys, command, extra):
    cfg = dict(_bath_cfg({"rwa": {"g1": 0.1, "gw": 0.0}}, steps=5), **extra)
    out = tmp_path / "t.csv"
    code = main([command, "--config", _write_config(tmp_path, cfg), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and err.count("\n") == 1
    assert not out.exists()


def test_order_and_seed_only_where_they_mean_something(tmp_path, capsys):
    cfg = _bath_cfg({"rwa": {"g1": 0.1, "gw": 0.0}}, steps=5)
    path = _write_config(tmp_path, cfg)
    out = str(tmp_path / "t.csv")
    assert main(["evolve", "--config", path, "--out", out, "--order", "2"]) == 1
    assert main(["thermalize", "--config", path, "--out", out, "--seed", "3"]) == 1
    assert main(["classify", "--config", path, "--seed", "3"]) == 1
    # evolve and thermalize no longer read the series knobs from the config
    noisy = _write_config(tmp_path, dict(cfg, order="x", seed="y"), name="noisy.json")
    assert main(["evolve", "--config", noisy, "--out", out]) == 0
    assert main(["thermalize", "--config", noisy, "--out", out]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("mode", ["discrete", "interpolated", "both"])
def test_overflowing_trajectory_exits_with_no_output(tmp_path, capsys, mode):
    # F_S = diag(3, -3) is a squeezing Hamiltonian: the covariance grows by
    # e^6 per unit step and leaves the float range long before step 400
    cfg = _free_joint_cfg(steps=400, mode=mode)
    cfg["setup"].update(F_S=[[3.0, 0.0], [0.0, -3.0]], G=[[0.0, 0.0], [0.0, 0.0]])
    cfg["dt"] = 1.0
    out = tmp_path / "t.csv"
    assert main(["evolve", "--config", _write_config(tmp_path, cfg), "--out", str(out)]) == 2
    assert "state has non-finite entries" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.parametrize(
    "command,extra",
    [
        ("evolve", {"steps": 2.7}),
        ("evolve", {"steps": True}),
        ("evolve", {"steps": "3"}),
        ("evolve", {"mode": "interpolated", "substeps": 1.9}),
        ("evolve", {"mode": "interpolated", "substeps": True}),
        ("thermalize", {"steps": 2.5}),
        ("thermalize", {"steps": True}),
        ("thermalize", {"max_rows": 3.5}),
        ("thermalize", {"max_rows": True}),
    ],
)
def test_fractional_or_boolean_counts_are_rejected(tmp_path, capsys, command, extra):
    cfg = dict(_bath_cfg({"rwa": {"g1": 0.1, "gw": 0.0}}, steps=5), **extra)
    out = tmp_path / "t.csv"
    assert main([command, "--config", _write_config(tmp_path, cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and err.count("\n") == 1
    assert not out.exists()


def _malformed_configs():
    good = _bath_cfg({"rwa": {"g1": 0.1, "gw": 0.0}}, steps=5, dt=0.01)
    for command in ("evolve", "thermalize", "check-cp", "classify", "series"):
        yield command, "setup-list", dict(good, setup=[1])
        yield command, "top-level-list", [1, 2]
        yield command, "dt-infinity", dict(good, dt=float("inf"))
        yield command, "dt-nan", dict(good, dt=float("nan"))
        yield command, "dt-list", dict(good, dt=[0.01])
        yield command, "energy-list", dict(good, setup=dict(good["setup"], E_S=[1.0]))
        yield command, "rwa-list", dict(good, setup=dict(good["setup"], G={"rwa": [0.1]}))
        yield command, "energy-nan", dict(good, setup=dict(good["setup"], E_S=float("nan")))
        yield command, "nu-infinity", dict(good, setup=dict(good["setup"], nu_A=float("inf")))
        yield command, "dt-huge-integer", dict(good, dt=10**400)
        # scalars are JSON numbers: no bools, no numeric strings
        yield command, "dt-bool", dict(good, dt=True)
        yield command, "energy-string", dict(good, setup=dict(good["setup"], E_S="1.0"))
        rwa = {"rwa": {"g1": 0.1, "gw": False}}
        yield command, "rwa-bool", dict(good, setup=dict(good["setup"], G=rwa))
        ladder = {"ladder": {"g": {"re": "0.1", "im": 0.0}, "h": {"re": 0.0, "im": 0.0}}}
        yield command, "ladder-string", dict(good, setup=dict(good["setup"], G=ladder))
        yield command, "dt-zero", dict(good, dt=0)
        yield command, "dt-negative", dict(good, dt=-0.1)
        yield command, "G-string", dict(good, setup=dict(good["setup"], G="x"))
    for command in ("evolve", "thermalize"):
        yield command, "initial-state-string", dict(good, initial_state="x")
        yield command, "mean-object", dict(good, initial_state={"mean": {}, "cov": [[1, 0], [0, 1]]})
        two_modes = {"mean": [0.0] * 4, "cov": np.eye(4).tolist()}
        yield command, "initial-state-two-modes", dict(good, initial_state=two_modes)
    yield "evolve", "mode-unknown", dict(good, mode="bogus")
    yield "thermalize", "joint-setup", _free_joint_cfg(steps=5)
    yield "check-cp", "sweep-scale-bool", {"dt": 0.1, "sweep": {"count": 2, "scale": True}}
    joint = _free_joint_cfg(steps=5)
    nan, inf = float("nan"), float("inf")
    non_finite = {
        "F_S-nan": ("F_S", [[nan, 0.0], [0.0, 1.0]]),
        "F_A-infinity": ("F_A", [[1.0, 0.0], [0.0, inf]]),
        "G-nan": ("G", [[0.1, nan], [0.0, 0.1]]),
        "alpha_S-infinity": ("alpha_S", [inf, 0.0]),
        "alpha_A-nan": ("alpha_A", [0.0, nan]),
    }
    malformed = {
        **non_finite,
        "F_S-scalar": ("F_S", 5),
        "sigma_A0-scalar": ("sigma_A0", 2),
        # F - F^T overflows; the symmetry test must not
        "F_S-asymmetric-near-float-limit": ("F_S", [[0.0, 1e308], [-1e308, 0.0]]),
    }
    for command in ("evolve", "check-cp", "classify", "series"):
        yield command, "matrix-object", dict(joint, setup=dict(joint["setup"], F_S={"a": 1}))
        yield command, "setup-kind-unknown", dict(joint, setup=dict(joint["setup"], kind="bogus"))
        for name, (key, value) in malformed.items():
            yield command, name, dict(joint, setup=dict(joint["setup"], **{key: value}))
    bath_nan = dict(good, setup=dict(good["setup"], G=[[0.1, nan], [0.0, 0.1]]))
    for command in ("evolve", "thermalize", "check-cp", "classify", "series"):
        yield command, "bath-G-nan", bath_nan


@pytest.mark.parametrize(
    "command,cfg",
    [
        pytest.param(command, cfg, id=f"{command}-{name}")
        for command, name, cfg in _malformed_configs()
    ],
)
def test_malformed_config_is_a_configuration_error(tmp_path, capsys, command, cfg):
    out = tmp_path / "t.csv"
    argv = [command, "--config", _write_config(tmp_path, cfg)]
    if command in ("evolve", "thermalize"):
        argv += ["--out", str(out)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 1
    assert caught == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error") and captured.err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["evolve", "thermalize"])
@pytest.mark.parametrize(
    "cov",
    [[[1.0, 0.5], [0.0, 1.0]], [[1.0, 1e308], [-1e308, 1.0]]],
    ids=["small", "near-float-limit"],
)
def test_asymmetric_initial_covariance_is_an_invariant_violation(tmp_path, capsys, command, cov):
    initial = {"mean": [0.0, 0.0], "cov": cov}
    cfg = _bath_cfg({"rwa": {"g1": 0.1, "gw": 0.0}}, steps=5, initial_state=initial)
    out = tmp_path / "t.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "--config", _write_config(tmp_path, cfg), "--out", str(out)]) == 3
    assert caught == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "invariant violation: cov must be symmetric\n"
    assert not out.exists()


@pytest.mark.parametrize("failing", ["write", "flush"])
def test_closed_stdout_is_an_output_error(tmp_path, capsys, monkeypatch, failing):
    # a pipe closed by its reader fails on write, or on the flush of a
    # buffered write, which must come before main returns
    class ClosedPipe:
        def write(self, text):
            if failing == "write":
                raise BrokenPipeError(errno.EPIPE, "Broken pipe")
            return len(text)

        def flush(self):
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    cfg = _write_config(tmp_path, _free_joint_cfg())
    monkeypatch.setattr("sys.stdout", ClosedPipe())
    assert main(["series", "--config", cfg, "--order", "3"]) == 1
    assert capsys.readouterr().err == "output error: cannot write stdout: Broken pipe\n"


def test_out_path_in_a_missing_directory_is_an_output_error(tmp_path, capsys):
    cfg = _write_config(tmp_path, _free_joint_cfg())
    out = tmp_path / "missing" / "t.csv"
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    # the line names the --out path, not the temporary file
    assert captured.err == f"output error: cannot write {out}: No such file or directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_bath_near_the_float_limit_keeps_a_finite_uncertainty_margin(tmp_path, capsys):
    # nu_A = 1e308 is a valid thermal ancilla, but cov + cov^T overflows
    cfg = _bath_cfg({"rwa": {"g1": 0.1, "gw": 0.0}}, steps=5, dt=0.1, nu_A=1e308)
    path = _write_config(tmp_path, cfg)
    assert main(["series", "--config", path, "--order", "2"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert len(json.loads(captured.out)["coefficients"]) == 3
    # the trajectories overflow: each command stops at the first overflow,
    # warns nothing, exits 2 with one line and writes no --out file
    out = tmp_path / "t.csv"
    runs = [("evolve", mode) for mode in ("discrete", "interpolated", "both")]
    for command, mode in runs + [("thermalize", "discrete")]:
        path = _write_config(tmp_path, dict(cfg, mode=mode))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, "--config", path, "--out", str(out)]) == 2
        assert caught == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numerical precondition failed")
        assert "non-finite entries" in captured.err and captured.err.count("\n") == 1
        assert not out.exists()


@pytest.mark.parametrize("nu_A", [1e60, 1e150])
def test_hot_bath_interpolates_its_strobes_without_scipy(tmp_path, nu_A):
    # the generators' noise comes from W R W^T in the eigenbasis of T, and
    # propagate balances the lift's noise block, whatever the scale of R
    cfg = _bath_cfg({"rwa": {"g1": 0.3, "gw": 0.0}}, steps=7, dt=0.1, nu_A=nu_A, mode="both")
    path = _write_config(tmp_path, cfg)
    code = (
        "import sys\n"
        "from rapidgauss import cli\n"
        f"print(cli.main(['evolve', '--config', {path!r}, '--out', 'hot.csv']))\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
    )
    assert fresh_python(code, tmp_path).splitlines()[-2:] == ["0", "[]"]
    header, data = _read_csv(tmp_path / "hot.csv")
    assert data.shape == (8, 10) and np.isfinite(data).all()
    assert (data[:, -1] <= 1e-13 * data[:, header.index("nu_S_discrete")]).all()


@pytest.mark.parametrize("nu_A", [1e200, 1e300])
def test_overflowing_schur_log_is_a_numerical_precondition(tmp_path, capsys, nu_A):
    # the generators are finite, but the purity of the hot state, 1/det(cov),
    # overflows: a numerical precondition, not a bad config
    cfg = _bath_cfg({"rwa": {"g1": 0.3, "gw": 0.0}}, steps=7, dt=0.1, nu_A=nu_A, mode="both")
    out = tmp_path / "t.csv"
    assert main(["evolve", "--config", _write_config(tmp_path, cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical precondition failed: non-finite entries")
    assert captured.err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("nu", [1e100, 1e200])
def test_a_free_mode_with_a_hot_ancilla_interpolates_its_strobes(tmp_path, capsys, nu):
    # F_S = diag(1, 0) leaves T near a Jordan block, cond(V_T) = 245, so the
    # generators come from linalg.mat_log of the lift, balanced against the
    # ancilla's noise
    setup = {
        "kind": "joint",
        "F_S": [[1.0, 0.0], [0.0, 0.0]],
        "F_A": [[1.0, 0.0], [0.0, 1.0]],
        "G": [[0.1, 0.0], [0.0, 0.1]],
        "sigma_A0": [[nu, 0.0], [0.0, nu]],
    }
    arrays = {key: np.array(value) for key, value in setup.items() if key != "kind"}
    t = reduce_from_joint(JointSetup(dt=0.1, **arrays)).T
    assert np.linalg.cond(np.linalg.eig(t)[1]) > EIGENBASIS_COND_MAX
    cfg = {"setup": setup, "dt": 0.1, "steps": 7, "mode": "both"}
    out = tmp_path / "t.csv"
    code = main(["evolve", "--config", _write_config(tmp_path, cfg), "--out", str(out)])
    assert (code, capsys.readouterr().err) == (0, "")
    header, data = _read_csv(out)
    assert data.shape == (8, 12) and np.isfinite(data).all()
    cov = [i for i, name in enumerate(header) if name.startswith("cov_")]
    assert (data[:, -1] <= 1e-13 * np.abs(data[:, cov]).max(axis=1)).all()


@pytest.mark.parametrize("mode", ["discrete", "interpolated", "both"])
def test_joint_shift_near_1e100_is_no_configuration_error(tmp_path, capsys, mode):
    # the shift's exponential is finite, and so are the generators, whose
    # shift comes from the eigenbasis of T; every mode writes its trajectory
    cfg = {
        "setup": {
            "kind": "joint",
            "F_S": [[1.0, 0.0], [0.0, 1.0]],
            "F_A": [[0.8, 0.0], [0.0, 0.8]],
            "G": [[0.3, 0.1], [-0.1, 0.2]],
            "alpha_S": [0.0, 1e100],
            "sigma_A0": [[2.0, 0.0], [0.0, 2.0]],
        },
        "dt": 0.1,
        "steps": 5,
        "mode": mode,
    }
    out = tmp_path / "t.csv"
    code = main(["evolve", "--config", _write_config(tmp_path, cfg), "--out", str(out)])
    assert (code, capsys.readouterr().err) == (0, "")
    _, data = _read_csv(out)
    assert data.shape[1] == (12 if mode == "both" else 6) and np.isfinite(data).all()
    if mode == "both":
        # max_abs_diff against the largest entry of its row
        assert (data[:, -1] <= 1e-14 * np.abs(data[:, 1:-1]).max(axis=1)).all()


@pytest.mark.parametrize("count", [2.5, True, 0, -3])
def test_sweep_count_must_be_a_positive_integer(tmp_path, capsys, count):
    cfg = {"dt": 0.1, "sweep": {"count": count}}
    assert main(["check-cp", "--config", _write_config(tmp_path, cfg), "--order", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error")


@pytest.mark.parametrize("sweep", [5, [1]])
def test_sweep_must_be_an_object(tmp_path, capsys, sweep):
    cfg = {"dt": 0.1, "sweep": sweep}
    assert main(["check-cp", "--config", _write_config(tmp_path, cfg), "--order", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error")
    assert "sweep" in captured.err


@pytest.mark.parametrize(
    "command,extra",
    [
        ("check-cp", {"order": 2.7}),
        ("check-cp", {"order": True}),
        ("check-cp", {"seed": 1.9}),
        ("check-cp", {"seed": True}),
        ("classify", {"order": 2.7}),
        ("classify", {"order": True}),
        ("series", {"order": 2.7}),
        ("series", {"order": True}),
    ],
)
def test_fractional_or_boolean_order_and_seed_are_rejected(tmp_path, capsys, command, extra):
    cfg = dict(_bath_cfg({"rwa": {"g1": 0.1, "gw": 0.0}}, dt=0.01), **extra)
    assert main([command, "--config", _write_config(tmp_path, cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error")
    assert next(iter(extra)) in captured.err


def test_integral_float_counts_are_accepted(tmp_path, capsys):
    cfg = _bath_cfg({"rwa": {"g1": 0.1, "gw": 0.0}}, steps=4.0, mode="interpolated", substeps=2.0)
    out = tmp_path / "t.csv"
    assert main(["evolve", "--config", _write_config(tmp_path, cfg), "--out", str(out)]) == 0
    assert _read_csv(out)[1].shape[0] == 9
    sweep = {"dt": 0.01, "sweep": {"count": 2.0}}
    assert main(["check-cp", "--config", _write_config(tmp_path, sweep, name="s.json")]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 2


@pytest.mark.parametrize(
    "command,extra",
    [
        ("evolve", {"mode": "discrete"}),
        ("evolve", {"mode": "interpolated", "substeps": 3}),
        ("evolve", {"mode": "both"}),
        ("thermalize", {"max_rows": 40}),
    ],
)
def test_block_size_does_not_change_the_output(tmp_path, monkeypatch, capsys, command, extra):
    # rows are stepped a block at a time and formatted a string at a time;
    # block boundaries, including one inside the first block's pairing in
    # mode both, must not show beyond rounding, as each block starts its own
    # doubling.  By default each of these trajectories is one block and one
    # string; here blocks are 10 rows, and strings of 35 values are 7 rows of
    # 5 columns or 3 rows of 10, so both boundaries fall inside blocks
    cfg = dict(_bath_cfg([[0.3, 0.1], [-0.1, 0.2]], steps=40), **extra)
    path = _write_config(tmp_path, cfg)
    whole, blocked = tmp_path / "whole.csv", tmp_path / "blocked.csv"
    assert main([command, "--config", path, "--out", str(whole)]) == 0
    monkeypatch.setattr("rapidgauss.cli.BLOCK_VALUES", 35)
    monkeypatch.setattr("rapidgauss.cli.STEP_ROWS", 10)
    assert main([command, "--config", path, "--out", str(blocked)]) == 0
    out = capsys.readouterr().out.splitlines()
    whole_lines, blocked_lines = whole.read_text().splitlines(), blocked.read_text().splitlines()
    assert whole_lines[0] == blocked_lines[0]
    assert len(whole_lines) == len(blocked_lines)
    times = [[line.split(",", 1)[0] for line in lines] for lines in (whole_lines, blocked_lines)]
    assert times[0] == times[1]
    (_, want), (_, got) = _read_csv(whole), _read_csv(blocked)
    assert row_errors(got[:, 1:], want[:, 1:]).max() <= 1e-12
    if command == "thermalize":
        want, got = (json.loads(line) for line in out)
        assert list(got) == list(want)
        assert got.pop("final_nu_S") == pytest.approx(want.pop("final_nu_S"), rel=1e-12, abs=0)
        assert got == want


@pytest.mark.parametrize(
    "extra",
    [
        {"steps": 200_000, "mode": "discrete"},
        {"steps": 20_000, "substeps": 10, "mode": "interpolated"},
    ],
)
def test_evolve_streams_its_time_grid(tmp_path, monkeypatch, extra):
    # the times and the channels are made block by block, so the memory
    # used before the first rows does not grow with the number of steps
    head = []

    class Enough(Exception):
        pass

    class Head:
        def write(self, text):
            head.append(text)
            if len(head) == 3:
                raise Enough

    monkeypatch.setattr(cli, "_atomic", lambda path: contextlib.nullcontext(Head()))
    path = _write_config(tmp_path, _bath_cfg([[0.3, 0.1], [-0.1, 0.2]], **extra))
    tracemalloc.start()
    try:
        with pytest.raises(Enough):
            main(["evolve", "--config", path, "--out", str(tmp_path / "t.csv")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(head) == 3
    assert peak < 2 * 2**20


def _percent_g(table):
    """The rows of a float table as CSV text made by '%.17g' value by value."""
    rows = np.asarray(table).tolist()
    return "\n".join(",".join("%.17g" % value for value in row) for row in rows)


def _random_doubles(rng, shape, in_range):
    """Doubles of random bits; with in_range, binary exponents within about
    2^-132..2^133, inside the exact formatter's range of decimal exponents."""
    if not in_range:
        return rng.integers(-(2**63), 2**63 - 1, size=shape, dtype=np.int64).view(np.float64)
    fields = rng.integers(1023 - 132, 1023 + 134, size=shape)
    bits = rng.integers(0, 2**52, size=shape) | fields << 52 | rng.integers(0, 2, size=shape) << 63
    return bits.view(np.float64)


@pytest.fixture
def near_ties(monkeypatch):
    """The near-tie masks of format_table's significands, one per call."""
    masks, significands = [], _csvformat._significands

    def recorded(mag, cls):
        value, near_tie = significands(mag, cls)
        masks.append(near_tie)
        return value, near_tie

    monkeypatch.setattr(_csvformat, "_significands", recorded)
    return masks


def _out_of_range(table):
    """Whether a table holds a value that is neither 0 nor of a decimal
    exponent within EXP_MAX of 0 (NaN included): its text is spliced."""
    mag = np.abs(table)
    floors = _csvformat.FLOORS
    return not np.all((mag == 0) | ((mag >= floors[1]) & (mag < floors[_csvformat.CLASSES])))


def test_random_bit_patterns_format_as_percent_17g(monkeypatch, near_ties):
    # both tables formatted from whole arrays alone and tables with values
    # spliced in as '%' text; small gathers cut the larger tables
    rng = np.random.default_rng(17)
    outcomes = {"arrays": 0, "spliced": 0}
    for draw in range(4000):
        table = _random_doubles(rng, (rng.integers(1, 4), rng.integers(1, 5)), draw % 2)
        assert _csvformat.format_table(table) == _percent_g(table)
        spliced = _out_of_range(table) or near_ties[-1].any()
        outcomes["spliced" if spliced else "arrays"] += 1
    assert min(outcomes.values()) > 500
    monkeypatch.setattr(_csvformat, "GATHER_VALUES", 3)
    for _ in range(20):
        table = rng.uniform(-4, 4, (13, 5)) * 10.0 ** rng.integers(-30, 8, (13, 5))
        assert _csvformat.format_table(table) == _percent_g(table)


def test_only_values_in_range_go_through_the_arrays(monkeypatch):
    # a 409-row table of a time column and nine columns near 1e-100: only
    # the times are formatted from arrays, and every byte is still '%.17g'
    seen, significands = [], _csvformat._significands

    def recorded(mag, cls):
        seen.append(mag.copy())
        return significands(mag, cls)

    monkeypatch.setattr(_csvformat, "_significands", recorded)
    rng = np.random.default_rng(409)
    table = rng.uniform(-4, 4, (409, 10)) * 1e-100
    table[:, 0] = np.arange(409) * 0.37
    assert _csvformat.format_table(table) == _percent_g(table)
    assert len(seen) == 1 and np.array_equal(seen[0], table[:, 0])


@pytest.mark.parametrize("shape", [(cli.BLOCK_VALUES // 8, 8), (1, cli.BLOCK_VALUES + 3)])
def test_a_string_of_block_values_formats_as_percent_17g(shape):
    # a table is formatted in one pass, so the largest string, of exactly
    # BLOCK_VALUES values, and a row wider than BLOCK_VALUES, which a string
    # holds alone, are each one pass
    rng = np.random.default_rng(shape[1])
    table = rng.uniform(-4, 4, shape) * 10.0 ** rng.integers(-30, 9, shape)
    assert _csvformat.format_table(table) == _percent_g(table)


@pytest.mark.parametrize("n_modes,count,blocks", [(1, 2000, [1365, 635]), (45, 3, [3])])
def test_a_string_of_rows_holds_at_most_block_values(
    tmp_path, monkeypatch, n_modes, count, blocks
):
    # as many rows as fit in BLOCK_VALUES values, or one row when a row is
    # wider: a 45-mode state is 4185 columns.  Rows are stepped in blocks of
    # the rows of 2 * BLOCK_VALUES values, at least STEP_ROWS; each block
    # restarts state doubling, so the block sets how the rows round
    stepped, apply_runs = [], cli.apply_runs
    monkeypatch.setattr(
        cli, "apply_runs", lambda runs, *start: stepped.append(runs) or apply_runs(runs, *start)
    )
    texts, format_table = [], _csvformat.format_table
    monkeypatch.setattr(
        _csvformat, "format_table", lambda table: texts.append(format_table(table)) or texts[-1]
    )
    n = 2 * n_modes
    # a CPTP channel, so that the final state keeps the uncertainty bound
    channel = GaussianChannel(T=0.99 * np.eye(n), d=np.full(n, 0.5), R=0.02 * np.eye(n))
    runs = [(identity_channel(n_modes), 1), (channel, count - 1)]
    width = 1 + n + n * (n + 1) // 2
    times = lambda first, stop: np.arange(first, stop) * 0.1
    out = tmp_path / "t.csv"
    cli._write_trajectory(out, "joint", count, times, np.zeros(n), np.eye(n), [runs])
    assert out.read_text().split("\n", 1)[1] == "".join(text + "\n" for text in texts)
    strings = [text.split("\n") for text in texts]
    assert [sum(c for _, c in block) for block in stepped] == blocks
    assert sum(map(len, strings)) == count
    assert max(map(len, strings)) == max(1, cli.BLOCK_VALUES // width)
    fields = [line.split(",") for lines in strings for line in lines]
    assert {len(row) for row in fields} == {width}
    assert all(field == "%.17g" % float(field) for row in fields for field in row)


def test_powers_of_ten_and_their_neighbours_format_as_percent_17g(near_ties):
    for exponent in range(-45, 46):
        power = float(f"1e{exponent}")
        for value in (np.nextafter(power, 0), power, np.nextafter(power, np.inf)):
            for table in (np.array([[value]]), np.array([[-value, 0.5]])):
                assert _csvformat.format_table(table) == _percent_g(table)
                # a neighbour may round at a tie, as 1e15's lower one does
                spliced = _out_of_range(table) or near_ties[-1].any()
                assert not spliced or value != power or not -40 < exponent <= 40


@pytest.mark.parametrize(
    "value,text,arrays",
    [
        # exact ties of the significand's rounding
        (999999999999999.875, "999999999999999.88", False),
        (1395359479709308.25, "1395359479709308.2", False),
        (-770729940246756.125, "-770729940246756.12", False),
        (0.0, "0", True),
        (-0.0, "-0", True),
        (5e-324, "4.9406564584124654e-324", False),
        (1e300, "1.0000000000000001e+300", False),
        (-1e300, "-1.0000000000000001e+300", False),
        (1e-300, "1e-300", False),
        (-1e-300, "-1e-300", False),
        (np.inf, "inf", False),
        (-np.inf, "-inf", False),
        (np.nan, "nan", False),
        (1e16 - 2, "9999999999999998", True),
        (1e17, "1e+17", True),
        (0.1, "0.10000000000000001", True),
        (2.5, "2.5", True),
        (1e-5, "1.0000000000000001e-05", True),
        (0.0001, "0.0001", True),
    ],
)
def test_special_values_format_as_percent_17g(near_ties, value, text, arrays):
    # arrays: formatted from whole arrays, not spliced in as '%' text
    table = np.array([[value]])
    assert "%.17g" % value == text
    assert _csvformat.format_table(table) == text
    assert (_out_of_range(table) or near_ties[-1].any()) != arrays
    # mid-row and at both row ends, among values formatted from arrays
    table = np.array([[value, 0.5, value], [1.0, value, -3.0]])
    assert _csvformat.format_table(table) == f"{text},0.5,{text}\n1,{text},-3"


@pytest.mark.parametrize("value", [-5e-324, -1e300, -2.2250738585072014e-308])
def test_a_text_of_a_whole_field_widens_the_rows(value):
    # a spliced text of FIELD bytes leaves no byte of its row for the
    # separator, so every row of the table takes one more byte
    assert len("%.17g" % value) == _csvformat.FIELD
    widest = -0.00012345678901234567  # 23 bytes, formatted from arrays
    for table in ([[value]], [[value, widest]], [[widest, value], [value, 0.0]]):
        assert _csvformat.format_table(np.array(table)) == _percent_g(table)


def _joint_2mode_cfg():
    return {
        "setup": {
            "kind": "joint",
            "F_S": [[1.0, 0.1, 0.0, 0.0], [0.1, 0.9, 0.0, 0.05], [0.0, 0.0, 1.2, 0.0],
                    [0.0, 0.05, 0.0, 1.1]],
            "F_A": [[0.8, 0.0], [0.0, 0.8]],
            "G": [[0.3, 0.1], [-0.1, 0.2], [0.05, 0.0], [0.0, 0.1]],
            "alpha_S": [0.3, -0.1, 0.0, 0.2],
            "sigma_A0": [[2.0, 0.0], [0.0, 2.0]],
        },
        "dt": 0.1,
        "steps": 60,
        "mode": "both",
    }


def test_csv_bytes_do_not_depend_on_the_formatter(tmp_path, monkeypatch, capsys, near_ties):
    # every value of these strobe-like tables is formatted from whole
    # arrays, and their bytes equal those of '%', forced here for every
    # value by marking each one near a tie; the arrays' digits are made
    # wrong then, so that only the spliced text can give the same bytes
    bath = {"kind": "oscillator_bath", "E_S": 1.3, "E_A": 0.7, "nu_A": 2.5,
            "G": {"ladder": {"g": {"re": 0.3, "im": 0.1}, "h": {"re": 0.1, "im": -0.05}}}}
    initial = {"mean": [0.0, 0.0], "cov": [[1.7, 0.0], [0.0, 1.7]]}
    runs = [
        ("evolve", {"setup": bath, "dt": 0.4, "steps": 400, "mode": "both",
                    "initial_state": initial}),
        ("evolve", {"setup": bath, "dt": 0.4, "steps": 40, "substeps": 10,
                    "mode": "interpolated", "initial_state": initial}),
        ("thermalize", {"setup": bath, "dt": 0.4, "steps": 4000, "max_rows": 401,
                        "initial_state": initial}),
        ("evolve", _joint_2mode_cfg()),
    ]
    format_table, tables = _csvformat.format_table, []
    monkeypatch.setattr(
        _csvformat, "format_table", lambda table: tables.append(table) or format_table(table)
    )
    every_value = lambda mag, cls: (np.full(len(mag), 10**16), np.ones(len(mag), bool))

    outputs = {}
    for name in ["arrays", "percent"]:
        if name == "percent":
            monkeypatch.setattr(_csvformat, "_significands", every_value)
        for i, (command, cfg) in enumerate(runs):
            out = tmp_path / f"{name}{i}.csv"
            path = _write_config(tmp_path, cfg, name=f"{i}.json")
            code = main([command, "--config", path, "--out", str(out)])
            outputs[name, i] = (code, capsys.readouterr(), out.read_bytes())
        if name == "arrays":
            assert tables and not any(map(_out_of_range, tables))
            assert len(near_ties) == len(tables) and not any(mask.any() for mask in near_ties)
    for i in range(len(runs)):
        assert outputs["arrays", i] == outputs["percent", i]
        assert outputs["arrays", i][0] == 0


def test_damped_trajectory_splices_values_below_the_arrays_range(tmp_path):
    # a damped joint evolve: its means fall to about 1e-143, far below the
    # values formatted from arrays, and every field is still '%.17g'
    cfg = {
        "setup": {"kind": "joint", "F_S": [[1.0, 0.0], [0.0, 1.0]],
                  "F_A": [[1.0, 0.0], [0.0, 1.0]], "G": [[0.8, 0.0], [0.0, 0.8]],
                  "sigma_A0": [[1.0, 0.0], [0.0, 1.0]]},
        "dt": 0.5,
        "steps": 4000,
        "mode": "both",
        "initial_state": {"mean": [1.0, -1.0], "cov": [[1.0, 0.0], [0.0, 1.0]]},
    }
    out = tmp_path / "damped.csv"
    assert main(["evolve", "--config", _write_config(tmp_path, cfg), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 4002
    fields = [field for line in lines[1:] for field in line.split(",")]
    assert all(field == "%.17g" % float(field) for field in fields)
    assert 0 < min(abs(float(field)) for field in fields if float(field)) < 1e-100


def test_the_cli_runs_without_loading_scipy(tmp_path):
    bath = _write_config(
        tmp_path, _bath_cfg({"rwa": {"g1": 0.3, "gw": 0.0}}, steps=20, mode="both"), "bath.json"
    )
    joint = _write_config(tmp_path, _joint_2mode_cfg(), "joint.json")
    code = (
        "import sys\n"
        "from rapidgauss import cli\n"
        f"assert cli.main(['evolve', '--config', {bath!r}, '--out', 'bath.csv']) == 0\n"
        f"assert cli.main(['series', '--config', {joint!r}, '--order', '3']) == 0\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
    )
    assert fresh_python(code, tmp_path).splitlines()[-1] == "[]"
