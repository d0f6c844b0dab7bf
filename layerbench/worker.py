"""Run one workload's job list in a fresh process, pass after pass.

Usage: ``python3 worker.py SPEC.json RESULT.json``.  The spec names the
checkout's ``src`` directory, the jobs (argv plus working directory),
the seconds to measure, whether to trace, and where to write spans.

A closed loop with one client: each job is a ``homnambu.cli.main`` call
that starts after the previous one returned; no threads.  Passes repeat
until the measured time reaches the requested seconds.  Untraced
passes run under the host-speed probe (``speed.py``): each job records
its wall and CPU seconds without the probes' own time, and the host's
speed while it ran.  With tracing, passes alternate untraced and
traced, starting untraced; traced passes run without the probe, so
spans hold only program time.  Report text and exit codes are kept for the correctness
checks, which run after the loop, outside any timing.
"""

from __future__ import annotations

import contextlib
import gc
import gzip
import hashlib
import io
import json
import os
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

from speed import Probe


def run_pass(cli, jobs, tracer, probe) -> dict:
    results, windows = [], []
    home = os.getcwd()
    gc.collect()
    wall0, cpu0 = perf_counter(), process_time()
    for index, job in enumerate(jobs):
        os.chdir(job["cwd"])
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.job = index
        start, cpu_start = perf_counter(), process_time()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(job["argv"])
            except SystemExit as exc:  # argparse rejects its input this way
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a crash is a failed job; keep measuring
                traceback.print_exc()
                code = -1
        end, cpu_end = perf_counter(), process_time()
        windows.append((start, end, cpu_end - cpu_start))
        results.append({
            "code": code,
            "stdout": out.getvalue(),
            "stderr": err.getvalue()[-2000:],
        })
    wall1, cpu1 = perf_counter(), process_time()
    os.chdir(home)
    pass_probe_s = probe.probe_seconds(wall0, wall1) if probe is not None else 0.0
    for record, (start, end, cpu) in zip(results, windows):
        probe_s = probe.probe_seconds(start, end) if probe is not None else 0.0
        record["seconds"] = end - start - probe_s
        record["cpu_s"] = cpu - probe_s
        if probe is not None:
            record["speed"] = probe.speed(start, end)
    return {
        "wall_s": wall1 - wall0 - pass_probe_s,
        "cpu_s": cpu1 - cpu0 - pass_probe_s,
        "traced": tracer is not None,
        "jobs": results,
    }


def written_files(jobs) -> list:
    """Digest of every file each job left in its working directory."""
    digests = []
    for job in jobs:
        cwd = Path(job["cwd"])
        digests.append({
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(cwd.iterdir()) if p.is_file()
        })
    return digests


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    import homnambu.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"homnambu was imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    probe, tracer = Probe(), None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()

    jobs = spec["jobs"]
    passes, spans = [], []
    begin = perf_counter()
    while True:
        if tracer is not None and len(passes) % 2 == 1:
            tracer.install()
            try:
                record = run_pass(cli, jobs, tracer, None)
            finally:
                tracer.uninstall()
            spans.append(tracer.take())
        else:
            probe.install()
            try:
                record = run_pass(cli, jobs, None, probe)
            finally:
                probe.uninstall()
        record["files"] = written_files(jobs)
        passes.append(record)
        enough = perf_counter() - begin >= spec["seconds"]
        if enough and (tracer is None or len(passes) >= 2):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if spans:
        with gzip.open(spec["spans_out"], "wt", encoding="utf-8") as fh:
            for number, pass_spans in enumerate(spans):
                for idx, span in enumerate(pass_spans):
                    fh.write(json.dumps([number, idx, *span]) + "\n")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"passes": passes, "peak_rss_mb": peak_rss_mb}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
