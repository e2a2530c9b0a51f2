import json
import tracemalloc
import warnings
from itertools import islice

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rapidgauss import cli
from rapidgauss.cli import main
from rapidgauss.channels import apply, hamiltonian_flow
from rapidgauss.interpolation import Generators
from rapidgauss.phasespace import GaussianState, QuadraticHamiltonian
from rapidgauss.thermalization import first_order_generators


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
    ham = QuadraticHamiltonian(
        F=np.array(cfg["setup"]["F_S"]), alpha=np.array(cfg["setup"]["alpha_S"])
    )
    state = GaussianState(mean=np.zeros(2), cov=np.eye(2))
    for row in data:
        t = row[0]
        expected = apply(hamiltonian_flow(ham, t), state)
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
    assert not out.exists()


def test_check_cp_single_setup(tmp_path, capsys):
    cfg = _bath_cfg([[0.3, 0.1], [-0.1, 0.2]], dt=0.01)
    code = main(["check-cp", "--config", _write_config(tmp_path, cfg), "--order", "2"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert [entry["cp"] for entry in report["orders"]] == [True, True, True]
    assert report["orders"][0]["margin"] == pytest.approx(0.0, abs=1e-12)


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
    assert report["route"] == "closed_form"
    coeffs = report["coefficients"]
    assert [c["k"] for c in coeffs] == [0, 1, 2]
    assert_allclose(np.asarray(coeffs[0]["A"]), np.eye(2))
    det_g = 0.2 * 0.1
    assert_allclose(
        np.asarray(coeffs[1]["A"]), 0.5 * det_g * np.array([[0, 1.0], [-1.0, 0]]), atol=1e-15
    )


def test_series_command_at_any_order(tmp_path, capsys):
    # past order 2 the series comes from the logarithm series of the lift
    cfg = _bath_cfg([[0.2, 0.0], [0.0, 0.1]], dt=0.05)
    assert main(["series", "--config", _write_config(tmp_path, cfg), "--order", "6"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["route"] == "log_series"
    assert [c["k"] for c in report["coefficients"]] == list(range(7))


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
    for command in ("evolve", "thermalize"):
        yield command, "initial-state-string", dict(good, initial_state="x")
        yield command, "mean-object", dict(good, initial_state={"mean": {}, "cov": [[1, 0], [0, 1]]})
    yield "check-cp", "sweep-scale-bool", {"dt": 0.1, "sweep": {"count": 2, "scale": True}}
    joint = _free_joint_cfg(steps=5)
    for command in ("evolve", "check-cp", "classify", "series"):
        yield command, "matrix-object", dict(joint, setup=dict(joint["setup"], F_S={"a": 1}))


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


def test_bath_near_the_float_limit_keeps_a_finite_uncertainty_margin(tmp_path, capsys):
    # nu_A = 1e308 is a valid thermal ancilla, but cov + cov^T overflows
    cfg = _bath_cfg({"rwa": {"g1": 0.1, "gw": 0.0}}, steps=5, dt=0.1, nu_A=1e308)
    path = _write_config(tmp_path, cfg)
    assert main(["series", "--config", path, "--order", "2"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert len(json.loads(captured.out)["coefficients"]) == 3
    out = tmp_path / "t.csv"
    with warnings.catch_warnings():
        # the trajectory itself overflows, and scipy's expm warns on the way
        warnings.simplefilter("ignore", RuntimeWarning)
        assert main(["thermalize", "--config", path, "--out", str(out)]) == 2
    assert "non-finite entries" in capsys.readouterr().err
    assert not out.exists()


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
    # rows are stepped and formatted a block at a time; block boundaries,
    # including one inside the first block's pairing in mode both, must not show
    cfg = dict(_bath_cfg([[0.3, 0.1], [-0.1, 0.2]], steps=40), **extra)
    path = _write_config(tmp_path, cfg)
    whole, blocked = tmp_path / "whole.csv", tmp_path / "blocked.csv"
    assert main([command, "--config", path, "--out", str(whole)]) == 0
    monkeypatch.setattr("rapidgauss.cli.BLOCK_ROWS", 7)
    assert main([command, "--config", path, "--out", str(blocked)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert whole.read_bytes() == blocked.read_bytes()
    if command == "thermalize":
        assert out[0] == out[1]


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
    monkeypatch.setattr(
        "rapidgauss.cli._write_atomic", lambda path, lines: head.extend(islice(lines, 3))
    )
    path = _write_config(tmp_path, _bath_cfg([[0.3, 0.1], [-0.1, 0.2]], **extra))
    tracemalloc.start()
    try:
        assert main(["evolve", "--config", path, "--out", str(tmp_path / "t.csv")]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(head) == 3
    assert peak < 2 * 2**20
