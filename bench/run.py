"""rapidgauss benchmark: seeded CLI jobs in a closed loop, one client, in one process.

Run from the repository root:

    python3 bench/run.py --workload strobe-1mode --seed 1 --seconds 45 --trace 0

The workload's round of jobs (see ``workloads.py``) is drawn from ``--seed``,
written as JSON configs and run back to back through
``rapidgauss.cli.main(argv)`` until ``--seconds`` have passed; the round in
progress is always finished.  Every job's output is checked.  BLAS and
OpenMP are pinned to one thread before numpy loads.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced rounds with rounds that record spans around every public function
of the package (``tracer.py``), and reports the per-layer metrics per traced
round.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Exit codes: 0 with a result, 2 when the run cannot be made (no
``src/rapidgauss`` under the working directory, or a bad argument).
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np
import scipy

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("strobe-1mode", "multimode-joint")

SETUP_REPEATS = 11
SETUP_SNIPPET = (
    "import time; t = time.perf_counter(); import rapidgauss.cli; "
    "print(repr(time.perf_counter() - t))"
)

# Share by which the summed span self times may differ from the traced job wall time.
TRACE_SUM_TOL = 0.02

SPLIT_FUNCTIONS = (
    "interpolation.generators_from_channel",
    "interpolation.propagate",
    "bombardment.generator_series_from_joint",
    "channels.reduce_from_joint",
)
CALL_COUNTS = (
    "interpolation.propagate",
    "interpolation.cp_differential_check",
    "channels.apply",
    "phasespace.validate_state",
)
SELF_TIMES = (
    "interpolation.propagate",
    "interpolation.generators_from_channel",
    "bombardment.generator_series_from_joint",
    "bombardment.closed_form_series",
    "channels.reduce_from_joint",
    "channels.trajectory",
    "thermalization.simulate_first_order",
)


class SetupError(Exception):
    pass


def _import_package(root):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "rapidgauss", "cli.py")):
        raise SetupError(f"no src/rapidgauss/cli.py under {root}; run from the repository root")
    if src not in sys.path:
        sys.path.insert(0, src)
    import rapidgauss.bombardment
    import rapidgauss.channels
    import rapidgauss.cli
    import rapidgauss.sampling

    package_dir = os.path.dirname(os.path.abspath(rapidgauss.cli.__file__))
    if package_dir != os.path.join(src, "rapidgauss"):
        raise SetupError(f"rapidgauss was imported from {package_dir}, not from {src}")
    return rapidgauss


def environment():
    """Versions and CPU count recorded with every result."""
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def measure_setup(root):
    """Median time of ``import rapidgauss.cli`` in fresh interpreters, after
    one discarded import that fills the bytecode cache."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    times = []
    for _ in range(SETUP_REPEATS + 1):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET],
            cwd=root, env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times[1:])


class Runner:
    """Runs a round of jobs through ``rapidgauss.cli.main`` and checks them."""

    def __init__(self, package, jobs, workdir, tracer=None):
        self.cli = package.cli
        self.jobs = jobs
        self.tracer = tracer
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.failures = []  # (job index, kind, exit code, end of stderr)
        for i, job in enumerate(jobs):
            job.path = os.path.join(workdir, f"job{i}.json")
            with open(job.path, "w") as handle:
                json.dump(job.config, handle)

    def run_job(self, i, record=True):
        job = self.jobs[i]
        out_path = os.path.join(self.workdir, f"job{i}.csv")
        argv = [job.argv[0], "--config", job.path, *job.argv[1:]]
        if job.writes_csv:
            argv += ["--out", out_path]
            if os.path.exists(out_path):
                os.unlink(out_path)
        stdout, stderr = io.StringIO(), io.StringIO()
        if self.tracer is not None:
            self.tracer.set_tag(job.tag)
            self.tracer.active = True
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = self.cli.main(argv)
        except Exception:  # a crash of the program is a failed job
            rc = None
            stderr.write(traceback.format_exc())
        wall = time.perf_counter() - start
        if self.tracer is not None:
            self.tracer.active = False
        csv_text = ""
        if job.writes_csv and rc == 0 and os.path.exists(out_path):
            with open(out_path) as handle:
                csv_text = handle.read()
        out = stdout.getvalue()
        ok = job.check(rc, out, csv_text)
        if record:
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.failures.append((i, job.kind, rc, stderr.getvalue()[-500:]))
        rows = workloads.rows_of(job, rc, out, csv_text)
        return wall, rows, len(out.encode()) + len(csv_text.encode())

    def warm_up(self):
        """Run the first job of each kind once, untimed, so that lazy imports and
        first-call set-up inside numpy/scipy are not counted."""
        seen = set()
        for i, job in enumerate(self.jobs):
            if job.kind not in seen:
                seen.add(job.kind)
                self.run_job(i, record=False)

    def run_rounds(self, seconds=None, rounds=None):
        """Closed loop over whole rounds, for ``seconds`` or for ``rounds``.
        Returns per-round (wall, rows, bytes) and per-round lists of job walls."""
        per_round, job_walls = [], []
        start = time.perf_counter()
        while True:
            if rounds is not None and len(per_round) >= rounds:
                break
            if rounds is None and per_round and time.perf_counter() - start >= seconds:
                break
            wall = rows = nbytes = 0
            job_walls.append([])
            for i in range(len(self.jobs)):
                job_wall, job_rows, job_bytes = self.run_job(i)
                job_walls[-1].append(job_wall)
                wall += job_wall
                rows += job_rows
                nbytes += job_bytes
            per_round.append((wall, rows, nbytes))
        return per_round, job_walls


def make_jobs(name, seed, package):
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    if name == "strobe-1mode":
        return workloads.strobe_1mode(rng)
    return workloads.multimode_joint(
        rng, package.bombardment.closed_form_series, package.channels.JointSetup,
        package.sampling.random_joint_setup,
    )


def end_to_end(per_round, job_walls, setup_s):
    """Throughputs are totals over the run's job wall time.  job_ms.p50 is the
    median over the round's jobs of each job's mean wall time across the
    rounds, so it is taken over ``len(job_walls[0])`` samples.  Every round
    repeats the same jobs; averaging over rounds first keeps the figures from
    jumping when the machine changes speed mid-run."""
    n_jobs = len(job_walls[0])
    per_job = [statistics.fmean(walls[j] for walls in job_walls) for j in range(n_jobs)]
    wall = sum(w for w, _, _ in per_round)
    return {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (n_jobs * len(per_round) / wall, "1/s"),
        "rows_per_s": (sum(r for _, r, _ in per_round) / wall, "rows/s"),
        "job_ms.p50": (1e3 * statistics.median(per_job), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, rounds, overhead, bytes_out):
    per_function, per_tag, root_s = tracer.summary()
    layer_calls = dict.fromkeys(tracing.LAYERS, 0)
    layer_self = dict.fromkeys(tracing.LAYERS, 0.0)
    for name, (calls, self_s) in per_function.items():
        layer = name.split(".")[0]
        layer_calls[layer] += calls
        layer_self[layer] += self_s
    metrics = {}
    for layer in tracing.LAYERS:
        metrics[f"{layer}.calls"] = (layer_calls[layer] / rounds, "calls/round")
        metrics[f"{layer}.self_s"] = (layer_self[layer] / rounds, "s/round")
    for name in CALL_COUNTS:
        metrics[f"{name}.calls"] = (per_function.get(name, [0, 0.0])[0] / rounds, "calls/round")
    for name in SELF_TIMES:
        metrics[f"{name}.self_s"] = (per_function.get(name, [0, 0.0])[1] / rounds, "s/round")
    metrics["cli.bytes_out"] = (bytes_out / rounds, "bytes/round")
    metrics["trace.overhead"] = (overhead, "ratio")
    dims = tracer.kernel_dims
    metrics["linalg.dim_max"] = (max(dims, default=0), "dim")
    metrics["linalg.flop_est"] = (sum(d**3 for d in dims) / rounds, "dim3/round")
    for name in SPLIT_FUNCTIONS:
        for n in workloads.MULTIMODE_SIZES:
            self_s, incl_s = per_tag.get((name, f"N{n}"), (0.0, 0.0))
            metrics[f"{name}.self_s.N{n}"] = (self_s / rounds, "s/round")
            metrics[f"{name}.incl_s.N{n}"] = (incl_s / rounds, "s/round")
    return metrics, sum(layer_self.values()), root_s, per_function


def run(name, seed, seconds, trace, root="."):
    """One benchmark run; returns the result object printed as the last line."""
    root = os.path.abspath(root)
    package = _import_package(root)
    env = environment()
    jobs = make_jobs(name, seed, package)
    workdir = os.path.join(root, ".bench_work", f"{name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    lines = [f"# workload {name} seed {seed} seconds {seconds} trace {trace}",
             "# " + " ".join(f"{k}={v}" for k, v in env.items())]
    try:
        if trace:
            tracer = tracing.Tracer()
            runner = Runner(package, jobs, workdir, tracer)
            runner.warm_up()
            # Untraced and traced rounds alternate, so that both see the
            # machine at the same speed; the wrappers are in place only for
            # the traced round of each pair.
            untraced, traced = [], []
            start = time.perf_counter()
            while not traced or time.perf_counter() - start < seconds:
                untraced += runner.run_rounds(rounds=1)[0]
                tracer.install()
                try:
                    traced += runner.run_rounds(rounds=1)[0]
                finally:
                    tracer.uninstall()
            ratios = [t[0] / u[0] for t, u in zip(traced, untraced)]
            traced_wall = sum(w for w, _, _ in traced)
            metrics, self_total, root_s, per_function = per_layer(
                tracer, len(traced), statistics.median(ratios), sum(b for _, _, b in traced),
            )
            consistent = abs(self_total - traced_wall) <= TRACE_SUM_TOL * traced_wall
            lines.append(f"# {len(traced)} traced rounds, each after an untraced one; "
                         f"{len(tracer.span_start)} spans; self-time sum {self_total:.6f} s, "
                         f"root spans {root_s:.6f} s, traced job wall {traced_wall:.6f} s")
            lines.append("# trace.overhead is the median of the per-pair ratios: "
                         + " ".join(f"{r:.4f}" for r in ratios))
            top = sorted(per_function.items(), key=lambda kv: -kv[1][1])[:12]
            for fn, (calls, self_s) in top:
                lines.append(f"#   {fn:<45} {calls / len(traced):>10.1f} calls/round "
                             f"{self_s / len(traced):>12.6f} s/round")
        else:
            runner = Runner(package, jobs, workdir)
            setup_s = measure_setup(root)
            runner.warm_up()
            per_round, job_walls = runner.run_rounds(seconds=seconds)
            metrics = end_to_end(per_round, job_walls, setup_s)
            consistent = True
            all_walls = [w for walls in job_walls for w in walls]
            lines.append(f"# rounds {len(per_round)} x {len(jobs)} jobs = {len(all_walls)} "
                         "jobs; round walls (s): "
                         + " ".join(f"{wall:.3f}" for wall, _, _ in per_round))
            lines.append(f"# job_ms.p50 is the median of {len(jobs)} per-job means, "
                         f"each over {len(per_round)} rounds")
            if len(all_walls) >= 100:
                p90 = statistics.quantiles(all_walls, n=10)[-1] * 1e3
                lines.append(f"# job_ms.p90 {p90:.3f} ms over {len(all_walls)} jobs")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.join(root, ".bench_work"))

    set_aside = {}
    for job in jobs:
        for reason, count in job.set_aside.items():
            set_aside[reason] = set_aside.get(reason, 0) + count
    lines.append(f"# fail_frac {runner.failed / runner.attempted:.6f} "
                 f"({runner.failed} of {runner.attempted} jobs)")
    lines.append("# draws set aside before the run, where the program is known to fail: "
                 + (", ".join(f"{k} {v}" for k, v in set_aside.items()) or "none"))
    for i, kind, rc, err in runner.failures[:5]:
        lines.append(f"# failure: job {i} ({kind}) exit {rc}: {err.strip()[-200:]}")
    for metric, (value, unit) in metrics.items():
        lines.append(f"{metric} {value!r} {unit}")
    result = {
        "correct": consistent and runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }
    return result, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, lines = run(args.workload, args.seed, args.seconds, args.trace)
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
