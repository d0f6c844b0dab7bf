#!/usr/bin/env python3
"""Layered benchmark for homnambu's exact cohomology reports.

Usage, from the root of a checkout::

    python3 layerbench/run.py --workload scalar-complex --seed 1 --seconds 25 --trace 0

Workloads: scalar-complex, adjoint-complex, pointwise-checks (see
README.md in this directory).  The seed generates the workload's inputs;
the same seed gives the same inputs.  One fresh worker process runs the
workload's job list through ``homnambu.cli.main`` pass after pass for at
least ``--seconds`` seconds.  With ``--trace 0`` the end-to-end metrics
are reported; with ``--trace 1`` the worker alternates untraced and
traced passes and the per-layer metrics are reported.  Every report and
every written cocycle basis is checked.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  A result file with the environment is written under
``.layerbench/results/``; job output goes to a temporary directory under
``.layerbench/`` that is removed at the end.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import monotonic, perf_counter

import checks
import speed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 9
DEADLINE_S = 170  # the whole run must end within this many seconds

UNITS = (("_mb", "MB"), ("_s", "s"), ("_calls", "count"), ("_nnz", "count"),
         ("_cells", "count"), ("_frac", "ratio"), ("_density", "ratio"), ("_bits", "bits"))


def unit_of(name: str) -> str:
    return next(unit for suffix, unit in UNITS if name.endswith(suffix))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed_info: dict) -> dict:
    import numpy

    from homnambu import backends

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": backends.backend_name(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "inputs": seed_info,
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["HOMNAMBU_WORKERS"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def process_seconds(argv, timeout: float) -> float:
    """Seconds from starting ``argv`` with ``child_env()`` to its exit."""
    # A blocking wait: subprocess's wait with a timeout polls, which
    # rounds the measured time up by as much as 50 ms.
    start = perf_counter()
    proc = subprocess.Popen(argv, env=child_env())
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        code = proc.wait()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
    elapsed = perf_counter() - start
    if code != 0:
        raise RuntimeError(f"{' '.join(argv[1:])} exited with code {code}")
    return elapsed


def setup_times(src: Path, files, remaining) -> list:
    """CLI start-ups: fresh interpreter to homnambu.cli imported and the
    workload's algebra files loaded (and the process gone), each between
    two reference start-ups and rescaled by their mean (see speed.py)."""
    probe = [sys.executable, str(HERE / "setup_probe.py"), str(src), *files]
    references = [process_seconds(speed.REFERENCE_STARTUP, remaining())]
    runs = []
    for _ in range(SETUP_PROBES):
        measured = process_seconds(probe, remaining())
        references.append(process_seconds(speed.REFERENCE_STARTUP, remaining()))
        reference = (references[-2] + references[-1]) / 2
        runs.append({
            "measured_s": measured,
            "reference_s": reference,
            "s": measured * speed.REFERENCE_STARTUP_S / reference,
        })
    return runs


def pass_figures(p) -> dict:
    """One untraced pass in reference seconds (see speed.py)."""
    jobs = [(j["seconds"] * j["speed"], j["cpu_s"] * j["speed"]) for j in p["jobs"]]
    return {
        "wall_s": sum(wall for wall, _ in jobs),
        "cpu_s": sum(cpu for _, cpu in jobs),
        "max_job_s": max(wall for wall, _ in jobs),
    }


def end_to_end(untraced, peak_rss_mb: float, setup: list) -> dict:
    figures = [pass_figures(p) for p in untraced]
    metrics = {
        name: statistics.median(f[name] for f in figures)
        for name in ("wall_s", "cpu_s", "max_job_s")
    }
    metrics["peak_rss_mb"] = peak_rss_mb
    metrics["setup_s"] = statistics.median(probe["s"] for probe in setup)
    return metrics


def measured(untraced, setup: list) -> dict:
    """The end-to-end times as measured, before rescaling."""
    return {
        "wall_s": statistics.median(p["wall_s"] for p in untraced),
        "cpu_s": statistics.median(p["cpu_s"] for p in untraced),
        "max_job_s": statistics.median(max(j["seconds"] for j in p["jobs"]) for p in untraced),
        "setup_s": statistics.median(probe["measured_s"] for probe in setup),
        "speed": statistics.median(j["speed"] for p in untraced for j in p["jobs"]),
    }


def per_layer(spans_path: Path, untraced, traced) -> dict:
    per_pass = {}
    with gzip.open(spans_path, "rt", encoding="utf-8") as fh:
        for line in fh:
            number, _idx, *span = json.loads(line)
            per_pass.setdefault(number, []).append(tuple(span))
    rows = [tracing.layer_metrics(per_pass[n], traced[n]["wall_s"]) for n in sorted(per_pass)]
    metrics = tracing.median_metrics(rows)
    metrics["trace.overhead_frac"] = (
        statistics.median(p["wall_s"] for p in traced)
        / statistics.median(p["wall_s"] for p in untraced) - 1.0
    )
    return metrics


def run(args, src: Path, fixtures: Path, work: Path, results: Path, started: float) -> int:
    sys.path.insert(0, str(src))
    import homnambu

    if not Path(homnambu.__file__).resolve().is_relative_to(src.resolve()):
        print(f"homnambu was imported from {homnambu.__file__}, not {src}", file=sys.stderr)
        return 2
    inputs = workloads.prepare(args.workload, args.seed, fixtures, work)
    job_specs = []
    for index, job in enumerate(inputs.jobs):
        cwd = work / "jobs" / f"{index:02d}"
        cwd.mkdir(parents=True)
        job_specs.append({"argv": list(job.argv), "cwd": str(cwd)})

    def remaining():
        return DEADLINE_S - (monotonic() - started)

    setup = setup_times(src, inputs.algebra_files, remaining)

    stem = f"{args.workload}-seed{args.seed}"
    spans_path = results / f"{stem}.spans.jsonl.gz"
    spec_path, result_path = work / "spec.json", work / "result.json"
    spec_path.write_text(json.dumps({
        "src": str(src),
        "jobs": job_specs,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "spans_out": str(spans_path),
    }))
    budget = remaining() - 15  # leave time for the checks
    try:
        subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path)],
            env=child_env(), check=True, timeout=budget,
        )
    except subprocess.TimeoutExpired:
        print(f"worker did not finish within {budget:.0f} s", file=sys.stderr)
        return 1
    except subprocess.CalledProcessError as exc:
        print(f"worker failed with exit code {exc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(result_path.read_text())
    passes = result["passes"]

    failed_runs, problems = checks.check_passes(
        inputs.jobs, [Path(s["cwd"]) for s in job_specs], passes, checks.load_expected()
    )
    attempted = len(passes) * len(inputs.jobs)
    failed = len(failed_runs)
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    if args.trace:
        metrics = per_layer(spans_path, untraced, traced)
    else:
        metrics = end_to_end(untraced, result["peak_rss_mb"], setup)

    env = environment(inputs.seed_info)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "passes": [
            {"wall_s": p["wall_s"], "cpu_s": p["cpu_s"], "traced": p["traced"],
             "job_s": [j["seconds"] for j in p["jobs"]],
             "job_speed": [j.get("speed") for j in p["jobs"]]}
            for p in passes
        ],
        "measured": measured(untraced, setup),
        "jobs": [list(job.argv) for job in inputs.jobs],
        "setup_runs_s": setup,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "problems": problems,
        "metrics": metrics,
    }
    result_file = results / f"{stem}-trace{args.trace}.json"
    result_file.write_text(json.dumps(summary, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  "
          f"passes {len(untraced)} untraced, {len(traced)} traced  jobs/pass {len(inputs.jobs)}")
    print(f"environment: python {env['python']}, numpy {env['numpy']}, backend {env['backend']}, "
          f"nproc {env['nproc']}, cpu {env['cpu_model']}")
    for problem in problems[:20]:
        print(f"FAILED CHECK: {problem}")
    for name, value in metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit_of(name)}")
    print("as measured, before rescaling to the reference speed:")
    for name, value in summary["measured"].items():
        print(f"  {name:36s} {value:14.6g} {'x reference' if name == 'speed' else unit_of(name)}")
    print(f"  {'error_rate':36s} {failed / attempted:14.6g} ratio ({failed} of {attempted} jobs)")
    print(f"result file: {result_file.relative_to(Path.cwd())}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


def _terminate(signum, _frame):
    # Unwind normally, so that child processes are killed and waited for
    # and the temporary directory is removed.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    started = monotonic()
    signal.signal(signal.SIGTERM, _terminate)
    args = parse_args(argv)
    root = Path.cwd()
    src, fixtures = root / "src", root / "fixtures"
    if not (src / "homnambu" / "cli.py").is_file() or not fixtures.is_dir():
        print("run from the root of a homnambu checkout: src/homnambu/ or fixtures/ is missing",
              file=sys.stderr)
        return 2
    state = root / ".layerbench"
    results = state / "results"
    results.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=state))
    try:
        return run(args, src, fixtures, work, results, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
