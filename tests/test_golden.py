"""Golden reports: byte-identical output across refactors.

Each ``*.trivial.*``/``*.adjoint.*`` file under ``tests/golden/``
records one ``cohomology --json`` job on a committed fixture: its
arguments, the report without ``elapsed_seconds`` (the cocycle-basis
file named by its file name, since the directory differs per run) and
the SHA-256 of the basis file the job wrote (a cochain file, or at
degree 0 a matrix file with one covector per row; ``null`` exactly when
dim Z = 0, since then no file is written).  The jobs are the committed-fixture jobs of the
``scalar-complex`` and ``adjoint-complex`` benchmark workloads, plus
scalar degrees 0 and 1 (the degree-0 operator as the previous map), a
split-mode adjoint job and an adjoint job with an identity twist.  RREF
is unique, so any correct elimination engine must reproduce these files
exactly.

Every other file records a short run of other subcommands, each step
one ``--json`` CLI call in a fresh working directory (some steps first
write a cocycle basis that a later step reads): per step its arguments,
exit code and report without ``elapsed_seconds``, then the SHA-256 of
every file the run wrote.  These subcommands print or write matrices
(twists, derivations, the induced binary algebra, extensions).

Each ``*.bridge.json`` file records one ``bridge-check --json`` job at a
fixed seed: the report without ``elapsed_seconds`` and the SHA-256 of
canonical dumps of the four cochains behind the commuting square (delta
phi, lift phi, d(lift phi) and lift(delta phi)) for the cochain phi that
job draws.  A dump lists every stored key in sorted order with its
sorted components written by ``formats.format_rational``, so an entry
held as ``int`` and one held as an equal ``Fraction`` dump the same.

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

from homnambu import bridge, cli, formats

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
    ("filippov_n3", 0),
    ("filippov_n3_twisted", 1),
    ("solvable_d4", 1),
    ("filippov_n3", 1, *ADJ, "--mode", "split"),
    ("solvable_d4", 2, *ADJ),
    ("solvable_d4", 0),
]

# (fixture, degree, seed, extra flags); seeds whose cochain has full support
BRIDGE_JOBS = [
    ("filippov_n3", 0, 247514, "--ternary"),
    ("filippov_n3", 1, 94476, "--ternary"),
    ("solvable_d4", 1, 377744, "--ternary"),
    ("volume_d3_twisted", 2, 290122, "--ternary"),
    ("sl2", 2, 259336),
]


ROTATION = "0 -1 0 0\n1 0 0 0\n0 0 0 -1\n0 0 1 0\n"
COVECTOR = "0 1 0 -1\n"
# an equivariant degree-1 cochain on filippov_n3 that is not a cocycle
BAD_COCHAIN = (
    "kind = adjoint\ndegree = 1\ndim = 4\narity = 3\nmode = fused\n"
    "cochain 1\n[1,2,3] -> 1,0,0,0\n"
)


def _fx(stem: str) -> str:
    return f"fixtures/{stem}.alg"


def _basis(stem: str, *extra) -> list:
    return ["cohomology", _fx(stem), "-p", "1", *extra, "--basis-out", "z1.cochains"]


# (golden name, input files written first, steps)
CLI_JOBS = [
    ("filippov_n3.validate", {}, [["validate", _fx("filippov_n3")]]),
    ("perturbed_n3.validate", {}, [["validate", _fx("perturbed_n3")]]),
    *(
        (f"{stem}.derivations.k{k}", {}, [["derivations", _fx(stem), "-k", str(k)]])
        for stem in ("filippov_n3_twisted", "solvable_d4")
        for k in (-1, 0, 1)
    ),
    (
        "filippov_n3_twisted.fundamental",
        {},
        [["fundamental", _fx("filippov_n3_twisted"), "-o", "fundamental.leib"]],
    ),
    (
        "filippov_n3.twist",
        {"rotation.matrix": ROTATION},
        [["twist", _fx("filippov_n3"), "--map", "rotation.matrix", "-o", "twisted.alg"]],
    ),
    (
        "filippov_n3_twisted.extend",
        {"lam.matrix": COVECTOR},
        [
            _basis("filippov_n3_twisted"),
            *(
                ["extend", _fx("filippov_n3_twisted"), "--cochain", "z1.cochains",
                 "--index", str(i), "-o", f"ext{i}.alg"]
                for i in (1, 2)
            ),
            ["extend", _fx("filippov_n3_twisted"), "--cochain", "z1.cochains",
             "--lam", "lam.matrix", "-o", "ext_lam.alg"],
        ],
    ),
    (
        "solvable_d4.deform-check",
        {},
        [
            _basis("solvable_d4", "--coefficients", "adjoint"),
            *(
                ["deform-check", _fx("solvable_d4"), "--cochain", "z1.cochains", "--index", str(i)]
                for i in (1, 2, 3)
            ),
        ],
    ),
    (
        "filippov_n3.deform-check-fails",
        {"bad.cochains": BAD_COCHAIN},
        [["deform-check", _fx("filippov_n3"), "--cochain", "bad.cochains"]],
    ),
]


def job_name(job) -> str:
    stem, p, *extra = job
    coefficients = "adjoint" if "adjoint" in extra else "trivial"
    mode = "split" if "split" in extra else "fused"
    return f"{stem}.p{p}.{coefficients}.{mode}"


def bridge_job_name(job) -> str:
    stem, p, *_ = job
    return f"{stem}.p{p}.bridge"


def run_cli(argv) -> tuple:
    """Exit code and untimed ``--json`` report of one CLI call; a
    ``fixtures/`` argument names a committed fixture."""
    argv = [str(ROOT / a) if a.startswith("fixtures/") else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["--json", *argv])
    report = json.loads(out.getvalue()) if out.getvalue() else None
    if report is not None:
        del report["elapsed_seconds"]
    return code, report


def run_report(argv) -> dict:
    """``--json`` report of one job on a committed fixture, untimed."""
    code, report = run_cli(argv)
    if code != 0:
        raise RuntimeError(f"homnambu {' '.join(argv)} exited {code}")
    return report


def canonical_dump(coeffs) -> bytes:
    """One line per stored key: the key, then ``component:value`` pairs."""
    lines = []
    for key in sorted(coeffs):
        vec = coeffs[key]
        entries = " ".join(f"{k}:{formats.format_rational(vec[k])}" for k in sorted(vec))
        lines.append(f"{' '.join(map(str, key))} | {entries}\n")
    return "".join(lines).encode()


def record(job) -> str:
    """Run one job in the current directory; its golden-file text."""
    stem, p, *extra = job
    argv = ["cohomology", f"fixtures/{stem}.alg", "-p", str(p), *extra]
    report = run_report(argv)
    digest = None
    if report["cocycle_basis_file"] is not None:
        written = Path(report["cocycle_basis_file"])
        digest = hashlib.sha256(written.read_bytes()).hexdigest()
        report["cocycle_basis_file"] = written.name
    golden = {"argv": argv, "report": report, "cocycle_basis_sha256": digest}
    return json.dumps(golden, indent=2) + "\n"


def record_bridge(job) -> str:
    """Golden-file text of one bridge-check job."""
    stem, p, seed, *extra = job
    argv = ["bridge-check", f"fixtures/{stem}.alg", "-p", str(p), "--seed", str(seed), *extra]
    report = run_report(argv)
    alg = formats.load_algebra(ROOT / argv[1])
    leib = bridge.tensor_fundamental_of(alg)
    phi = cli.bridge_input_cochain(alg, leib, p, seed)
    delta_phi = bridge.bridge_coboundary(phi)
    lift_phi = bridge.delta_lift(phi)
    cochains = {
        "delta_phi": delta_phi,
        "lift_phi": lift_phi,
        "d_lift_phi": bridge.leibniz_coboundary(leib, lift_phi),
        "lift_delta_phi": bridge.delta_lift(delta_phi),
    }
    digests = {
        name: hashlib.sha256(canonical_dump(c.coeffs)).hexdigest()
        for name, c in cochains.items()
    }
    golden = {"argv": argv, "report": report, "cochain_sha256": digests}
    return json.dumps(golden, indent=2) + "\n"


def record_cli(job) -> str:
    """Run one multi-step job in the current (empty) directory."""
    _, inputs, steps = job
    for name, text in inputs.items():
        Path(name).write_text(text, encoding="utf-8")
    runs = []
    for argv in steps:
        code, report = run_cli(argv)
        runs.append({"argv": argv, "exit_code": code, "report": report})
    written = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(Path.cwd().iterdir())
        if path.name not in inputs
    }
    golden = {"steps": runs, "written_sha256": written}
    return json.dumps(golden, indent=2) + "\n"


@pytest.mark.parametrize("job", JOBS, ids=job_name)
def test_report_matches_golden(job, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    expected = (GOLDEN / f"{job_name(job)}.json").read_bytes()
    assert record(job).encode() == expected


@pytest.mark.parametrize("job", BRIDGE_JOBS, ids=bridge_job_name)
def test_bridge_report_matches_golden(job):
    expected = (GOLDEN / f"{bridge_job_name(job)}.json").read_bytes()
    assert record_bridge(job).encode() == expected


@pytest.mark.parametrize("job", CLI_JOBS, ids=lambda job: job[0])
def test_cli_run_matches_golden(job, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    expected = (GOLDEN / f"{job[0]}.json").read_bytes()
    assert record_cli(job).encode() == expected


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
    for job in CLI_JOBS:
        with tempfile.TemporaryDirectory() as work:
            os.chdir(work)
            try:
                text = record_cli(job)
            finally:
                os.chdir(home)
        (GOLDEN / f"{job[0]}.json").write_text(text, encoding="utf-8")
        print(f"wrote {job[0]}.json", file=sys.stderr)
    for job in BRIDGE_JOBS:
        (GOLDEN / f"{bridge_job_name(job)}.json").write_text(record_bridge(job), encoding="utf-8")
        print(f"wrote {bridge_job_name(job)}.json", file=sys.stderr)


if __name__ == "__main__":
    write_all()
