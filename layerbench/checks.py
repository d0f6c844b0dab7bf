"""Correctness checks on the reports and files the jobs produced.

* Every job must exit 0 and print a JSON report.
* Jobs on committed fixtures must match the answers pinned in
  ``expected.json`` (dimensions, verdicts).
* Every cohomology report must satisfy dim_H = dim_Z - dim_B, and every
  bridge-check must report that the commuting square holds.
* A pass must reproduce the first pass's reports and files exactly.
* After timing, every written cocycle basis is re-checked: it holds
  dim_Z cochains and each one satisfies dz = 0 under an exact sparse
  mat-vec with the public ``coboundary_matrix``.

Each function returns a list of problems; an empty list means correct.
"""

from __future__ import annotations

import json
import shlex
from pathlib import Path

EXPECTED = Path(__file__).resolve().parent / "expected.json"


def load_expected() -> dict:
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)


def check_report(job, result, expected: dict) -> list:
    """Problems with one job's exit code and report."""
    label = job.key or shlex.join(job.argv[1:])
    if result["code"] != 0:
        return [f"{label}: exit code {result['code']}: {result['stderr'].strip()[-300:]}"]
    try:
        report = json.loads(result["stdout"])
    except json.JSONDecodeError:
        return [f"{label}: report is not JSON"]
    problems = []
    command = job.argv[1]  # argv[0] is --json
    if command == "cohomology":
        dims = report.get("dimensions", {})
        if dims.get("dim_H") != dims.get("dim_Z", 0) - dims.get("dim_B", 0):
            problems.append(f"{label}: dim_H != dim_Z - dim_B in {dims}")
    elif command == "bridge-check":
        if report.get("commuting_square") != "holds":
            problems.append(f"{label}: commuting square {report.get('commuting_square')}")
        if "--ternary" in job.argv and report.get("ternary_paths_agree") is not True:
            problems.append(f"{label}: ternary lift paths disagree")
    if job.key is not None:
        pinned = expected.get(job.key)
        if pinned is None:
            problems.append(f"{label}: no pinned answer for {job.key!r}")
        else:
            for field, want in pinned.items():
                if report.get(field) != want:
                    problems.append(f"{job.key}: {field} = {report.get(field)!r}, pinned {want!r}")
    return problems


def strip_timing(stdout: str) -> str:
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return stdout
    report.pop("elapsed_seconds", None)
    return json.dumps(report, sort_keys=True)


def check_cocycle_files(job, report_stdout: str, cwd: Path) -> list:
    """Re-check a cohomology job's cocycle basis with dz = 0."""
    from homnambu import adjoint_cohomology, formats, linalg, scalar_cohomology

    report = json.loads(report_stdout)
    label = job.key or shlex.join(job.argv[1:])
    dims = report["dimensions"]
    written = report["cocycle_basis_file"]
    files = sorted(p for p in cwd.iterdir() if p.is_file())
    if dims["dim_Z"] == 0:
        return [f"{label}: basis file written for dim_Z = 0"] if files else []
    if written is None or Path(written).resolve() not in [p.resolve() for p in files]:
        return [f"{label}: cocycle basis file missing from the job directory"]
    alg = formats.load_algebra(job.argv[2])
    cochains = formats.load_cochains(written, alg)
    if len(cochains) != dims["dim_Z"]:
        return [f"{label}: {len(cochains)} cochains in the basis file, dim_Z = {dims['dim_Z']}"]
    p = report["degree"]
    module = scalar_cohomology if report["coefficients"] == "trivial" else adjoint_cohomology
    delta = module.coboundary_matrix(alg, p, report["mode"], out_mode="split")
    for number, z in enumerate(cochains, 1):
        if any(linalg.sparse_mat_vec(delta, z.to_flat())):
            return [f"{label}: cochain {number} of the basis has dz != 0"]
    return []


def check_passes(jobs, cwds, passes, expected: dict):
    """All checks of one run: ``(failed (pass, job) pairs, problems)``.

    A cocycle basis that fails dz = 0 fails its job in every pass, since
    every pass wrote the same file.
    """
    first = passes[0]
    failed = set()
    problems = []
    for number, record in enumerate(passes):
        for index, job in enumerate(jobs):
            result = record["jobs"][index]
            bad = check_report(job, result, expected)
            if not bad and strip_timing(result["stdout"]) != strip_timing(
                first["jobs"][index]["stdout"]
            ):
                bad = [f"job {index}: report differs from the first pass"]
            if not bad and record["files"][index] != first["files"][index]:
                bad = [f"job {index}: written files differ from the first pass"]
            if bad:
                failed.add((number, index))
                problems += bad
    for index, job in enumerate(jobs):
        if job.argv[1] != "cohomology" or any(i == index for _, i in failed):
            continue
        bad = check_cocycle_files(job, passes[-1]["jobs"][index]["stdout"], cwds[index])
        if bad:
            failed.update((number, index) for number in range(len(passes)))
            problems += bad
    return failed, problems
