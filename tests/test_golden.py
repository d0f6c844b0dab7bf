"""Golden cohomology reports: byte-identical output across refactors.

Each file under ``tests/golden/`` records one ``cohomology --json`` job
on a committed fixture: its arguments, the report without
``elapsed_seconds`` (the cocycle-basis file named by its file name, since
the directory differs per run) and the SHA-256 of the basis file the job
wrote (``null`` when dim Z = 0 and nothing is written).  The jobs are the
committed-fixture jobs of the ``scalar-complex`` and ``adjoint-complex``
benchmark workloads.  RREF is unique, so any correct elimination engine
must reproduce these files exactly.

After an intended change of output, regenerate them from the root of a
checkout with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from homnambu import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
ADJ = ("--coefficients", "adjoint")

JOBS = [
    ("filippov_n3", 2),
    ("filippov_n3", 2, "--mode", "split"),
    ("filippov_n3_twisted", 2),
    ("filippov_n4", 2),
    ("sl2", 4),
    ("filippov_n2", 4),
    ("volume_d3_twisted", 3),
    ("filippov_n3", 1, *ADJ),
    ("filippov_n3_reflected", 2, *ADJ),
    ("sl2", 3, *ADJ),
    ("filippov_n4", 1, *ADJ),
    ("volume_d3_twisted", 2, *ADJ),
]


def job_name(job) -> str:
    stem, p, *extra = job
    coefficients = "adjoint" if "adjoint" in extra else "trivial"
    mode = "split" if "split" in extra else "fused"
    return f"{stem}.p{p}.{coefficients}.{mode}"


def record(job) -> str:
    """Run one job in the current directory; its golden-file text."""
    stem, p, *extra = job
    argv = ["cohomology", f"fixtures/{stem}.alg", "-p", str(p), *extra]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["--json", argv[0], str(ROOT / argv[1]), *argv[2:]])
    if code != 0:
        raise RuntimeError(f"homnambu {' '.join(argv)} exited {code}")
    report = json.loads(out.getvalue())
    del report["elapsed_seconds"]
    digest = None
    if report["cocycle_basis_file"] is not None:
        written = Path(report["cocycle_basis_file"])
        digest = hashlib.sha256(written.read_bytes()).hexdigest()
        report["cocycle_basis_file"] = written.name
    golden = {"argv": argv, "report": report, "cocycle_basis_sha256": digest}
    return json.dumps(golden, indent=2) + "\n"


@pytest.mark.parametrize("job", JOBS, ids=job_name)
def test_report_matches_golden(job, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    expected = (GOLDEN / f"{job_name(job)}.json").read_bytes()
    assert record(job).encode() == expected


def write_all() -> None:
    GOLDEN.mkdir(exist_ok=True)
    home = os.getcwd()
    for job in JOBS:
        with tempfile.TemporaryDirectory() as work:
            os.chdir(work)
            try:
                text = record(job)
            finally:
                os.chdir(home)
        (GOLDEN / f"{job_name(job)}.json").write_text(text, encoding="utf-8")
        print(f"wrote {job_name(job)}.json", file=sys.stderr)


if __name__ == "__main__":
    write_all()
