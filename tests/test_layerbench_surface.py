"""The names the benchmark harness in ``layerbench/`` uses from the package.

The harness wraps public functions by name to trace them and drives the
CLI to make its inputs.  A renamed or deleted function would break only
traced runs or input generation, so these tests run both on small
inputs.
"""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

import homnambu.cli as cli

ROOT = Path(__file__).resolve().parents[1]


def load_layerbench(name):
    """A module of ``layerbench/`` (not a package) imported from this checkout."""
    path = ROOT / "layerbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"layerbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_target():
    tracer = load_layerbench("tracing").Tracer()
    try:
        tracer.install()  # raises when a TARGETS name is gone
    finally:
        tracer.uninstall()


@pytest.mark.parametrize("workload", ["scalar-complex", "adjoint-complex", "pointwise-checks"])
def test_workload_inputs_are_generated(workload, tmp_path):
    # seeds 0-9: the seed-twist search validates a Yau twist and reads the
    # commutant basis for each candidate automorphism
    workloads = load_layerbench("workloads")
    for seed in range(10):
        work = tmp_path / str(seed)
        work.mkdir()
        inputs = workloads.prepare(workload, seed, ROOT / "fixtures", work)
        assert inputs.jobs
        assert all(Path(path).is_file() for path in inputs.algebra_files)


@pytest.mark.parametrize(
    "workload, key",
    [
        ("scalar-complex", "cohomology filippov_n3 -p 2 --mode split"),
        ("scalar-complex", "cohomology volume_d3_twisted -p 3"),
        ("adjoint-complex", None),
        ("adjoint-complex", "cohomology filippov_n3_reflected -p 2 --coefficients adjoint"),
    ],
)
def test_cocycle_files_pass_the_harness_check(workload, key, tmp_path, monkeypatch):
    # jobs of each cohomology workload (key None: the seed twist's), fused
    # and split, run and re-checked the way a timed pass is: dim_Z
    # cochains in the written basis file, each read back through
    # load_cochains(...)[i].to_flat() with dz = 0
    workloads = load_layerbench("workloads")
    checks = load_layerbench("checks")
    inputs = workloads.prepare(workload, 1, ROOT / "fixtures", tmp_path)
    job = next(job for job in inputs.jobs if job.key == key)
    cwd = tmp_path / "job"
    cwd.mkdir()
    monkeypatch.chdir(cwd)  # cohomology writes its cocycle basis here
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(job.argv)) == 0
    assert json.loads(out.getvalue())["dimensions"]["dim_Z"] > 0
    assert checks.check_cocycle_files(job, out.getvalue(), cwd) == []


def test_traced_run_records_layer_spans(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # cohomology writes its cocycle bases here
    tracer = load_layerbench("tracing").Tracer()
    fixture = str(ROOT / "fixtures" / "sl2.alg")
    tracer.install()
    try:
        for argv in (
            ["cohomology", fixture, "-p", "2", "--coefficients", "adjoint"],
            ["bridge-check", fixture, "-p", "1"],
            ["cohomology", fixture, "-p", "1", "--coefficients", "adjoint",
             "--basis-out", "z1.cochains"],
            ["deform-check", fixture, "--cochain", "z1.cochains"],
        ):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["--json", *argv]) == 0
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.take()}
    for name in (
        "fundamental.build",
        "adjoint_cohomology.assemble",
        "adjoint_cohomology.equivariance",
        "backends.echelon",
        "bridge.tensor_fundamental",
        "bridge.bridge_coboundary",
        "bridge.leibniz_coboundary",
        "bridge.delta_lift",
        "cochains.functional",
        "algebra.validate",
        "adjoint_cohomology.residuals",
        "adjoint_cohomology.deform_check",
    ):
        assert name in names


def test_degree_one_reports_trace_two_assemblies(tmp_path, monkeypatch):
    # the operator and its predecessor are both built through the traced
    # module wrappers, so assembly time and operator nnz are counted for both
    monkeypatch.chdir(tmp_path)
    tracer = load_layerbench("tracing").Tracer()
    fixture = str(ROOT / "fixtures" / "sl2.alg")
    tracer.install()
    try:
        for coefficients in ("trivial", "adjoint"):
            argv = ["cohomology", fixture, "-p", "1", "--coefficients", coefficients]
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["--json", *argv]) == 0
    finally:
        tracer.uninstall()
    spans = tracer.take()
    for name in ("scalar_cohomology.assemble", "adjoint_cohomology.assemble"):
        assembled = [span for span in spans if span[0] == name]
        assert len(assembled) == 2, name
        assert all("nnz" in span[5] for span in assembled), name
