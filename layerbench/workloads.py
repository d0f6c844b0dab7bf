"""The three workloads: fixed lists of CLI report jobs plus the inputs a
workload seed generates.

Every job is one ``homnambu.cli.main`` call.  Jobs on committed fixtures
carry a ``key`` under which ``expected.json`` pins their answers; jobs
on seed-generated inputs have ``key = None`` and are checked by
invariants instead (see ``checks.py``).

Left out on purpose because one job alone is longer than a sensible
pass today: ``cohomology filippov_n3_twisted -p 3`` (26 s),
``cohomology solvable_d4 -p 3`` (20 s), ``bridge-check filippov_n3
-p 2`` (32 s) and ``bridge-check filippov_n4 -p 1`` (410 s).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

NAMES = ("scalar-complex", "adjoint-complex", "pointwise-checks")

# Class of automorphism every seed twist is drawn from.  The commutant
# of a twist (``equivariant_matrix_space``, which is also its degree-1
# equivariant basis) sets how much work its adjoint and bridge jobs do.
# Over the 191 non-identity signed-permutation automorphisms of
# filippov_n3 it has dimension 4 (48), 6 (88), 8 (54) or 16 (1), and the
# degree-2 adjoint job takes about 0.8x, 1x, 2x or 5x the time of the
# dimension-6 class; within that class, 24 commutants touch only 8 of the
# 16 matrix entries and make the bridge job about 35% cheaper.  So every
# seed twist has a commutant of dimension 6 touching all 16 entries (64
# automorphisms), and the pass time is a function of the code, not of
# the seed.  The dimension-8 class is still measured through
# filippov_n3_reflected.
TWIST_COMMUTANT = 6
# Bridge seeds tried per bridge-check job before giving up.
BRIDGE_SEED_TRIES = 5000


@dataclass(frozen=True)
class Job:
    key: str | None  # name in expected.json; None for seed-generated input
    argv: tuple  # arguments to homnambu.cli.main


@dataclass(frozen=True)
class Inputs:
    jobs: tuple
    algebra_files: tuple  # every algebra file the jobs read
    seed_info: dict


def _run_cli(cli, argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["--json", *argv])
    if code != 0:
        raise RuntimeError(f"input generation failed: homnambu {' '.join(argv)} exited {code}")
    return json.loads(out.getvalue())


def seed_twist(base, rng):
    """A non-identity signed-permutation automorphism of ``base`` picked
    by ``rng`` from the class described at ``TWIST_COMMUTANT``, and the
    Yau twist along it."""
    from homnambu import adjoint_cohomology, algebra, linalg

    candidates = [
        rho for rho in algebra.signed_permutation_automorphisms(base)
        if not linalg.is_zero_matrix(rho - linalg.eye(base.dim))
    ]
    rng.shuffle(candidates)
    for rho in candidates:
        twisted = algebra.yau_twist(base, rho)
        commutant = adjoint_cohomology.equivariant_matrix_space(twisted)
        touched = sum(1 for entry in zip(*commutant.vectors) if any(entry))
        if commutant.dim == TWIST_COMMUTANT and touched == base.dim**2:
            return rho, twisted
    raise RuntimeError(f"no automorphism with a full commutant of dimension {TWIST_COMMUTANT}")


def bridge_seed(alg, p: int, rng) -> int:
    """A ``bridge-check --seed`` value picked by ``rng``.

    ``bridge-check`` lifts a random integer combination (coefficients -3
    to 3) of the degree-``p`` equivariant basis, and its pointwise work
    grows with the cochain's support: on ``filippov_n3 -p 1`` a cochain
    with 10 of 16 coefficients nonzero takes 0.85 s and one with all 16
    takes 1.12 s.  So for ``p >= 1`` only seeds whose cochain is
    nonzero wherever some basis cochain is are taken; every seed then
    asks for the same amount of work.  Degree 0 draws from the
    commutant in the CLI itself and takes under 0.1 s, so any seed does.
    """
    from homnambu import adjoint_cohomology

    if p == 0:
        return rng.randrange(10**6)
    basis = adjoint_cohomology.equivariant_basis(alg, p, "fused")
    support = sum(1 for column in zip(*basis.vectors) if any(column))
    for _ in range(BRIDGE_SEED_TRIES):
        seed = rng.randrange(10**6)
        flat = adjoint_cohomology.random_equivariant_cochain(alg, p, random.Random(seed)).to_flat()
        if sum(1 for x in flat if x) == support:
            return seed
    raise RuntimeError(f"no bridge seed with a full-support cochain in {BRIDGE_SEED_TRIES} tries")


def prepare(workload: str, seed: int, fixtures: Path, work: Path) -> Inputs:
    """Write the seed's input files into ``work`` and list the jobs."""
    from homnambu import cli, formats

    rng = random.Random(seed)

    def fx(stem):
        return str(fixtures / f"{stem}.alg")

    rho, twisted = seed_twist(formats.load_algebra(fx("filippov_n3")), rng)
    twist = str(work / "seed_twist.alg")
    formats.save_algebra(twisted, twist)
    seed_info = {
        "seed": seed,
        "twist_rows": [[str(rho[r, c]) for c in range(rho.shape[1])] for r in range(rho.shape[0])],
    }
    files = [twist]

    def job(command, path, p, *extra, argv_only=()):
        files.append(path)
        key = None if path == twist else " ".join([command, Path(path).stem, "-p", str(p), *extra])
        return Job(key, ("--json", command, path, "-p", str(p), *extra, *argv_only))

    if workload == "scalar-complex":
        jobs = [
            job("cohomology", fx("filippov_n3"), 2),
            job("cohomology", fx("filippov_n3"), 2, "--mode", "split"),
            job("cohomology", fx("filippov_n3_twisted"), 2),
            job("cohomology", twist, 2),
            job("cohomology", fx("filippov_n4"), 2),
            job("cohomology", fx("sl2"), 4),
            job("cohomology", fx("filippov_n2"), 4),
            job("cohomology", fx("volume_d3_twisted"), 3),
        ]
    elif workload == "adjoint-complex":
        adj = ("--coefficients", "adjoint")
        jobs = [
            job("cohomology", fx("filippov_n3"), 1, *adj),
            job("cohomology", fx("filippov_n3_reflected"), 2, *adj),
            job("cohomology", twist, 2, *adj),
            job("cohomology", fx("sl2"), 3, *adj),
            job("cohomology", fx("filippov_n4"), 1, *adj),
            job("cohomology", fx("volume_d3_twisted"), 2, *adj),
        ]
    else:
        seed_info["bridge_seeds"] = []

        def bridge(path, p, *extra):
            seed = bridge_seed(formats.load_algebra(path), p, rng)
            seed_info["bridge_seeds"].append(seed)
            return job("bridge-check", path, p, *extra, argv_only=("--seed", str(seed)))

        jobs = [
            bridge(fx("filippov_n3"), 0, "--ternary"),
            bridge(fx("filippov_n3"), 1, "--ternary"),
            bridge(twist, 1),
            bridge(fx("solvable_d4"), 1),
            bridge(fx("volume_d3_twisted"), 2),
            bridge(fx("sl2"), 2),
        ]
        # Degree-1 adjoint cocycle files, made before any timing.
        for stem in ("filippov_n3", "filippov_n4"):
            cochains = str(work / f"{stem}.z1.adjoint.cochains")
            report = _run_cli(cli, [
                "cohomology", fx(stem), "-p", "1", "--coefficients", "adjoint",
                "--basis-out", cochains,
            ])
            index = rng.randint(1, report["dimensions"]["dim_Z"])
            seed_info[f"deform_index_{stem}"] = index
            files.append(fx(stem))
            jobs.append(Job(
                f"deform-check {stem}",
                ("--json", "deform-check", fx(stem), "--cochain", cochains, "--index", str(index)),
            ))
    return Inputs(tuple(jobs), tuple(dict.fromkeys(files)), seed_info)
