"""Command-line front end.

Subcommands: validate, twist, derivations, fundamental, cohomology,
extend, deform-check, bridge-check.  All file I/O uses the text grammar
from :mod:`homnambu.formats`; ``--json`` switches every report to a
machine-readable dump.  Exit codes: 0 all requested checks pass,
2 parse error, 3 a check failed, 4 a precondition was violated.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import adjoint_cohomology, algebra, bridge, derivations, formats
from . import fundamental as fundamental_mod
from . import scalar_cohomology
from .cochains import Cochain, CochainSpace
from .indices import exact_vec, sv_add, sv_to_dense

OK, PARSE_ERROR, CHECK_FAILED, PRECONDITION = 0, 2, 3, 4

_PRECONDITION_ERRORS = (
    algebra.NotAnEndomorphismError,
    derivations.FixedPointError,
    derivations.LevelUnderflowError,
    derivations.SingularMapError,
    scalar_cohomology.NotACocycleError,
    adjoint_cohomology.NotEquivariantError,
)


class Refused(Exception):
    """A command precondition failed (unvalidated algebra and friends)."""


def _fmt(value) -> str:
    return formats.format_rational(value)


def _fmt_tuple(key) -> str:
    return "(" + ",".join(str(i + 1) for i in key) + ")"


def _fmt_vector(vec) -> str:
    return ",".join(_fmt(v) for v in vec)


def _fmt_sparse(diff, dim) -> str:
    return _fmt_vector(sv_to_dense(diff, dim))


def _load(path) -> algebra.HomNambuAlgebra:
    return formats.load_algebra(path)


def _require_valid(alg):
    bad = algebra.validate(alg)
    if any(bad.values()):
        failing = ", ".join(name for name, v in bad.items() if v)
        raise Refused(f"algebra does not validate ({failing}); refusing")


def _pick_cochain(args, alg):
    """The cochain at the 1-based ``--index`` of the ``--cochain`` file."""
    cochains = formats.load_cochains(args.cochain, alg)
    if not cochains:
        raise Refused("cochain file holds no cochains")
    if not 1 <= args.index <= len(cochains):
        raise Refused(f"cochain index {args.index} out of range (file holds {len(cochains)})")
    return cochains[args.index - 1]


def _algebra_summary(alg) -> dict:
    return {
        "dim": alg.dim,
        "arity": alg.arity,
        "skew_checked": alg.skew_checked,
        "hom_nambu_checked": alg.hom_nambu_checked,
        "multiplicative_checked": alg.multiplicative_checked,
    }


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, indent=2, default=str))
        return
    for key, value in report.items():
        if isinstance(value, dict):
            print(f"{key}:")
            for k2, v2 in value.items():
                print(f"  {k2}: {v2}")
        elif isinstance(value, list):
            print(f"{key}:")
            for item in value:
                print(f"  {item}")
        else:
            print(f"{key}: {value}")


# -- subcommands ---------------------------------------------------------------


def cmd_validate(args) -> tuple:
    alg = _load(args.algebra)
    results = algebra.validate(alg)
    outcome = {}
    for name, violations in results.items():
        if not violations:
            outcome[name] = "pass"
        elif name == "hom_nambu":
            x, y, diff = violations[0]
            outcome[name] = f"fail at x={_fmt_tuple(x)}, y={_fmt_tuple(y)}: {_fmt_sparse(diff, alg.dim)}"
        else:
            key, diff = violations[0]
            outcome[name] = f"fail at {_fmt_tuple(key)}: {_fmt_sparse(diff, alg.dim)}"
    report = {
        "command": "validate",
        "algebra": _algebra_summary(alg),
        "checks": outcome,
    }
    code = OK if all(v == "pass" for v in outcome.values()) else CHECK_FAILED
    return report, code


def cmd_twist(args) -> tuple:
    alg = _load(args.algebra)
    rho = formats.load_matrix(args.map)
    if rho.shape != (alg.dim, alg.dim):
        raise Refused(f"twist map must be {alg.dim}x{alg.dim}")
    try:
        twisted = algebra.yau_twist(alg, rho)
    except algebra.NotAnEndomorphismError:
        raise
    except algebra.AlgebraError as exc:
        raise Refused(str(exc)) from exc
    formats.save_algebra(twisted, args.output)
    report = {
        "command": "twist",
        "algebra": _algebra_summary(alg),
        "output": str(args.output),
        "twisted_validates": True,
    }
    return report, OK


def cmd_derivations(args) -> tuple:
    alg = _load(args.algebra)
    _require_valid(alg)
    space = derivations.derivation_space(alg, args.level)
    basis = []
    for flat in space.vectors:
        basis.append(formats.matrix_lines(derivations.unflatten_matrix(flat, alg.dim)))
    report = {
        "command": "derivations",
        "algebra": _algebra_summary(alg),
        "level": args.level,
        "dimension": space.dim,
        "basis": basis,
    }
    return report, OK


def cmd_fundamental(args) -> tuple:
    alg = _load(args.algebra)
    _require_valid(alg)
    fund = fundamental_mod.fundamental_of(alg)
    leibniz_ok = not fundamental_mod.check_hom_leibniz(fund)
    l_ok = not fundamental_mod.check_l_compatibility(alg)
    if args.output:
        formats.save_leibniz(fund, args.output)
    report = {
        "command": "fundamental",
        "algebra": _algebra_summary(alg),
        "wedge_dimension": fund.dim,
        "hom_leibniz_identity": "pass" if leibniz_ok else "fail",
        "l_action_compatibility": "pass" if l_ok else "fail",
        "output": str(args.output) if args.output else None,
    }
    return report, OK if (leibniz_ok and l_ok) else CHECK_FAILED


def cmd_cohomology(args) -> tuple:
    alg = _load(args.algebra)
    adjoint = args.coefficients == "adjoint"
    lowest = 1 if adjoint else 0
    if args.degree < lowest:
        raise Refused(f"{args.coefficients} cohomology starts at degree {lowest}")
    _require_valid(alg)
    kind = "adjoint" if adjoint else "scalar"
    module = adjoint_cohomology if adjoint else scalar_cohomology
    result = module.cohomology(alg, args.degree, args.mode)
    dims = {
        "dim_C": result.dim_c,
        "dim_C_equivariant": result.dim_compatible,
        "dim_Z": result.dim_z,
        "dim_B": result.dim_b,
        "dim_H": result.dim_h,
        "dim_H_without_defect_boundaries": result.dim_h_no_defect,
    }
    if not adjoint:  # the scalar complex imposes no compatibility
        del dims["dim_C_equivariant"], dims["dim_H_without_defect_boundaries"]
    cocycles = result.cocycle_basis
    basis_out = args.basis_out
    if basis_out is None:
        stem = Path(args.algebra).stem
        suffix = "matrix" if args.degree == 0 else "cochains"
        basis_out = str(Path.cwd() / f"{stem}.z{args.degree}.{kind}.{suffix}")
    written = None
    if cocycles.vectors:
        if args.degree == 0:
            formats.save_matrix(cocycles.matrix(), basis_out)  # one covector per row
        else:
            space = CochainSpace(alg, args.degree, kind, args.mode)
            cochains = [Cochain.from_flat(space, v) for v in cocycles.vectors]
            formats.save_cochains(cochains, basis_out)
        written = basis_out
    report = {
        "command": "cohomology",
        "algebra": _algebra_summary(alg),
        "coefficients": args.coefficients,
        "degree": args.degree,
        "mode": args.mode,
        "dimensions": dims,
        "cocycle_basis_file": written,
    }
    return report, OK


def cmd_extend(args) -> tuple:
    alg = _load(args.algebra)
    _require_valid(alg)
    phi = _pick_cochain(args, alg)
    if phi.space.degree != 1 or phi.space.kind != "scalar":
        raise Refused("extensions need a scalar degree-1 cochain")
    lam = None
    if args.lam:
        m = formats.load_matrix(args.lam)
        if m.shape not in ((1, alg.dim), (alg.dim, 1)):
            raise Refused(f"lambda must be a covector of length {alg.dim}")
        lam = (m if m.rows == 1 else m.T).to_dense()[0]
    ext = scalar_cohomology.central_extension(alg, phi, lam)
    beta_multiplicative = not algebra.check_multiplicativity(ext)
    identity_ok = not algebra.check_hom_nambu_identity(ext)
    formats.save_algebra(ext, args.output)
    report = {
        "command": "extend",
        "algebra": _algebra_summary(alg),
        "extension_dim": ext.dim,
        "hom_nambu_identity": "pass" if identity_ok else "fail",
        "beta_multiplicative": beta_multiplicative,
        "output": str(args.output),
    }
    return report, OK if identity_ok else CHECK_FAILED


def cmd_deform_check(args) -> tuple:
    alg = _load(args.algebra)
    _require_valid(alg)
    psi = _pick_cochain(args, alg)
    if psi.space.degree != 1 or psi.space.kind != "adjoint":
        raise Refused("deformation checks need an adjoint degree-1 cochain")
    residuals = adjoint_cohomology.deformation_residuals(alg, psi)
    verdict = adjoint_cohomology.check_infinitesimal_deformation(alg, psi, residuals)
    report = {
        "command": "deform-check",
        "algebra": _algebra_summary(alg),
        "cocycle": verdict,
        "infinitesimal_deformation": verdict,
        "first_residual": (
            f"x={_fmt_tuple(residuals[0][0])}, y={_fmt_tuple(residuals[0][1])}: "
            + _fmt_sparse(residuals[0][2], alg.dim)
            if residuals
            else None
        ),
    }
    return report, OK if verdict else CHECK_FAILED


def bridge_input_cochain(alg, leib, degree: int, seed: int) -> Cochain:
    """The random equivariant cochain ``bridge-check --seed`` lifts: an
    integer combination (coefficients -3 to 3) of the commutant in
    degree 0, of the equivariant basis pulled back to tensor blocks
    above."""
    rng = random.Random(seed)
    if degree == 0:  # psi[r, c] at r*d + c goes to column c
        cols = {}
        for v in adjoint_cohomology.equivariant_matrix_space(alg).vectors:
            c = Fraction(rng.randint(-3, 3))
            if c:
                for i, x in enumerate(v):
                    sv_add(cols.setdefault((i % alg.dim,), {}), i // alg.dim, c * x)
        space = CochainSpace(alg, 0, "adjoint", "tensor")
        return Cochain(space, {key: exact_vec(cols[key]) for key in sorted(cols) if cols[key]})
    psi = adjoint_cohomology.random_equivariant_cochain(alg, degree, rng)
    return bridge.pullback_wedge_cochain(alg, leib, psi)


def cmd_bridge_check(args) -> tuple:
    alg = _load(args.algebra)
    _require_valid(alg)
    if args.ternary and alg.arity != 3:
        raise Refused("--ternary needs an arity-3 algebra")
    leib = bridge.tensor_fundamental_of(alg)
    phi = bridge_input_cochain(alg, leib, args.degree, args.seed)
    lifted = bridge.delta_lift(phi)
    holds, residuals = bridge.check_commuting_square(phi, lifted)
    ternary_agree = None
    if args.ternary:
        ternary_agree = lifted.coeffs == bridge.delta_lift_ternary(phi).coeffs
    residual_table = [
        f"{_fmt_tuple(key)} -> {_fmt_sparse(val, leib.dim)}"
        for key, val in sorted(residuals.items())
    ]
    report = {
        "command": "bridge-check",
        "algebra": _algebra_summary(alg),
        "degree": args.degree,
        "seed": args.seed,
        "commuting_square": "holds" if holds else "fails",
        "ternary_paths_agree": ternary_agree,
        "residuals": residual_table[:10],
    }
    ok = holds and (ternary_agree in (None, True))
    return report, OK if ok else CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homnambu",
        description="exact computations with n-ary multiplicative Hom-Nambu-Lie algebras",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable reports")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="run the three structure validators")
    p.add_argument("algebra")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("twist", help="apply a Yau twist along an endomorphism")
    p.add_argument("algebra")
    p.add_argument("--map", required=True, help="matrix file with the endomorphism")
    p.add_argument("--output", "-o", required=True)
    p.set_defaults(func=cmd_twist)

    p = sub.add_parser("derivations", help="basis of a derivation space")
    p.add_argument("algebra")
    p.add_argument("--level", "-k", type=int, default=0, help="twist power (>= -1)")
    p.set_defaults(func=cmd_derivations)

    p = sub.add_parser("fundamental", help="induced binary algebra on wedges")
    p.add_argument("algebra")
    p.add_argument("--output", "-o", help="write the binary algebra file")
    p.set_defaults(func=cmd_fundamental)

    p = sub.add_parser("cohomology", help="cocycle/coboundary/quotient report")
    p.add_argument("algebra")
    p.add_argument("--coefficients", choices=("trivial", "adjoint"), default="trivial")
    p.add_argument("--degree", "-p", type=int, required=True)
    p.add_argument("--mode", choices=("fused", "split"), default="fused")
    p.add_argument("--basis-out", help="where to write the cocycle basis")
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("extend", help="central extension by a scalar cocycle")
    p.add_argument("algebra")
    p.add_argument("--cochain", required=True)
    p.add_argument("--index", type=int, default=1, help="1-based cochain index in the file")
    p.add_argument("--lam", help="covector file extending the twist")
    p.add_argument("--output", "-o", required=True)
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("deform-check", help="is a degree-1 cochain an infinitesimal deformation?")
    p.add_argument("algebra")
    p.add_argument("--cochain", required=True)
    p.add_argument("--index", type=int, default=1)
    p.set_defaults(func=cmd_deform_check)

    p = sub.add_parser("bridge-check", help="commuting square of the Leibniz lift")
    p.add_argument("algebra")
    p.add_argument("--degree", "-p", type=int, default=1, choices=(0, 1, 2))
    p.add_argument("--ternary", action="store_true", help="also compare the ternary lift path")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bridge_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        report, code = args.func(args)
    except formats.ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return PARSE_ERROR
    except (Refused, *_PRECONDITION_ERRORS) as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return PRECONDITION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return PARSE_ERROR
    report["elapsed_seconds"] = round(time.perf_counter() - start, 3)
    _emit(report, args.json)
    return code


if __name__ == "__main__":
    sys.exit(main())
