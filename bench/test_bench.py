"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest bench/test_bench.py -q
"""

import contextlib
import io
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


@pytest.fixture(scope="module")
def package():
    return run._import_package(ROOT)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace, capsys):
    argv = ["--workload", workload, "--seed", "7", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(
            line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines
        ), name
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert tracer.find_wrappers() == []


def _spy_on_main(package, monkeypatch):
    seen = []
    real_main = package.cli.main

    def spy(argv):
        seen.append(tracer.find_wrappers())
        return real_main(argv)

    monkeypatch.setattr(package.cli, "main", spy)
    return seen


def test_untraced_run_sees_unpatched_functions(package, monkeypatch):
    seen = _spy_on_main(package, monkeypatch)
    run.run("strobe-1mode", 1, 0, 0, root=ROOT)
    assert seen and all(found == [] for found in seen)


def test_traced_run_wraps_every_binding_then_restores(package, monkeypatch):
    seen = _spy_on_main(package, monkeypatch)
    result, _ = run.run("strobe-1mode", 1, 0, 1, root=ROOT)
    n_jobs = len(run.make_jobs("strobe-1mode", 1, package))
    untraced, traced = seen[-2 * n_jobs : -n_jobs], seen[-n_jobs:]
    assert seen[0] == []  # warm-up comes first
    assert all(found == [] for found in untraced)  # an untraced round precedes the traced one
    assert all(found == traced[0] for found in traced)
    for name in (
        "rapidgauss.propagate",
        "rapidgauss.interpolation.propagate",
        "rapidgauss.cli.propagate",
        "rapidgauss.thermalization.propagate",
    ):
        assert name in seen[-1]
    assert tracer.find_wrappers() == []
    assert package.cli.propagate is package.interpolation.propagate
    assert result["metrics"]["interpolation.propagate.calls"]["value"] > 0


def _perturb(obj):
    if isinstance(obj, bool):
        return not obj
    if isinstance(obj, float):
        return obj * (1 + 1e-6) + 1e-6
    if isinstance(obj, list):
        return [_perturb(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _perturb(v) for k, v in obj.items()}
    return obj


def _corrupting(real_main):
    """cli.main that perturbs every number of the job's output by 1e-6."""

    def corrupted(argv):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            rc = real_main(argv)
        if buffer.getvalue():
            print(json.dumps(_perturb(json.loads(buffer.getvalue().splitlines()[-1]))))
        if "--out" in argv:
            path = argv[argv.index("--out") + 1]
            with open(path) as handle:
                lines = handle.read().splitlines()
            last = [repr(_perturb(float(v))) for v in lines[-1].split(",")]
            lines[-1] = ",".join(last)
            with open(path, "w") as handle:
                handle.write("\n".join(lines) + "\n")
        return rc

    return corrupted


def _truncating(real_main):
    """cli.main whose CSV output stops halfway, as if the job ended early."""

    def truncated(argv):
        rc = real_main(argv)
        if "--out" in argv:
            path = argv[argv.index("--out") + 1]
            with open(path) as handle:
                lines = handle.read().splitlines()
            with open(path, "w") as handle:
                handle.write("\n".join(lines[: len(lines) // 2]) + "\n")
        return rc

    return truncated


def _exiting(real_main):
    """cli.main that gives up at once with a nonzero exit."""
    return lambda argv: 3


@pytest.mark.parametrize("broken", [_truncating, _exiting])
def test_broken_evolve_output_is_counted_as_failed(broken, package, monkeypatch, tmp_path):
    jobs = [job for job in run.make_jobs("strobe-1mode", 3, package) if job.kind != "thermalize"]
    monkeypatch.setattr(package.cli, "main", broken(package.cli.main))
    runner = run.Runner(package, jobs, str(tmp_path))
    for i in range(len(jobs)):
        runner.run_job(i)
    assert runner.failed == len(jobs)


def test_evolve_draws_in_the_branch_window_are_set_aside():
    rng = np.random.default_rng(0)
    assert workloads._strobe_job(rng, "both", "raw", 2.0) is None
    assert workloads._strobe_job(rng, "both", "raw", 0.5) is not None
    assert workloads._strobe_job(rng, "thermalize", "raw", 2.0) is not None


def test_cp_screen_margin_matches_the_package(package):
    rng = np.random.default_rng(0)
    for _ in range(20):
        dt = rng.uniform(0.02, 0.3)
        setup = package.sampling.random_joint_setup(rng, scale=0.4, dt=dt)
        series = package.bombardment.closed_form_series(setup, 2)
        for k in range(3):
            expected = package.bombardment.truncated_cp_check(series, k, dt).margin
            assert workloads.cp_margin(series, k, dt) == pytest.approx(expected, abs=1e-12)


def test_thermalize_rows_are_checked_against_the_reference(package, monkeypatch, tmp_path):
    jobs = [job for job in run.make_jobs("strobe-1mode", 3, package) if job.kind == "thermalize"]
    real_main = package.cli.main

    def shifted(argv):
        rc = real_main(argv)
        path = argv[argv.index("--out") + 1]
        with open(path) as handle:
            lines = handle.read().splitlines()
        middle = len(lines) // 2
        values = lines[middle].split(",")
        values[1] = repr(float(values[1]) * (1 + 1e-6))
        lines[middle] = ",".join(values)
        with open(path, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        return rc

    monkeypatch.setattr(package.cli, "main", shifted)
    runner = run.Runner(package, jobs, str(tmp_path))
    for i in range(len(jobs)):
        runner.run_job(i)
    assert runner.failed == len(jobs)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_corrupted_output_is_counted_as_failed(workload, package, monkeypatch, tmp_path):
    jobs = run.make_jobs(workload, 3, package)
    if workload == "multimode-joint":
        jobs = [job for job in jobs if job.tag in ("N4", None)]
    runner = run.Runner(package, jobs, str(tmp_path))
    for i in range(len(jobs)):
        runner.run_job(i)
    assert runner.failed == 0

    monkeypatch.setattr(package.cli, "main", _corrupting(package.cli.main))
    corrupted = run.Runner(package, jobs, str(tmp_path))
    for i in range(len(jobs)):
        corrupted.run_job(i)
    assert corrupted.attempted == len(jobs)
    assert corrupted.failed == len(jobs)


def test_same_seed_gives_same_inputs(package):
    first = [job.config for job in run.make_jobs("strobe-1mode", 11, package)]
    again = [job.config for job in run.make_jobs("strobe-1mode", 11, package)]
    other = [job.config for job in run.make_jobs("strobe-1mode", 12, package)]
    assert json.dumps(first) == json.dumps(again) != json.dumps(other)


def test_run_refuses_a_directory_without_the_package(tmp_path, capsys):
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        code = run.main(["--workload", "strobe-1mode", "--seed", "1", "--seconds", "1"])
    finally:
        os.chdir(cwd)
    assert code == 2
    assert capsys.readouterr().out == ""
    assert os.listdir(tmp_path) == []
