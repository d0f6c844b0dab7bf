"""Algebra-valued complex: four-term coboundary, equivariance, deformations."""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from homnambu import fixtures, linalg
from homnambu.adjoint_cohomology import (
    NotEquivariantError,
    check_infinitesimal_deformation,
    coboundary_matrix,
    cohomology,
    deformation_residuals,
    equivariance_violations,
    equivariant_basis,
    equivariant_matrix_space,
    random_equivariant_cochain,
    zero_coboundary_matrix,
)
from homnambu.algebra import bracket_eval, zero_algebra
from homnambu.cochains import Cochain, CochainSpace, apply_coboundary, coboundary_preserves_fusion
from homnambu.derivations import adjoint_representation
from homnambu.formats import load_algebra
from homnambu.fundamental import fundamental_of, l_action_sparse
from homnambu.indices import sv_to_dense

ONE = Fraction(1)
FIXDIR = Path(__file__).resolve().parent.parent / "fixtures"
SPLIT_CAP = 20_000  # coordinates of the split output space a fusion check builds


def test_zero_cochain_maps_to_zero():
    alg = fixtures.filippov_n3()
    space = CochainSpace(alg, 1, "adjoint")
    assert apply_coboundary(adjoint_representation(alg), Cochain.zero(space)).coeffs == {}


def test_zero_bracket_all_terms_vanish():
    alg = zero_algebra(3, 3)
    for p in (1, 2):
        assert not coboundary_matrix(alg, p).entries
    assert not zero_coboundary_matrix(alg).entries


def test_degree1_matches_six_term_display():
    # independent second path: psi(a(x), L(y)z) - psi(a(y), L(x)z)
    # - psi([x,y], a(z)) + L(a(x)).psi(y,z) - L(a(y)).psi(x,z)
    # - sum_i [a(y^1), ..., psi(x, y^i), ..., a(y^{n-1}), a(z)]
    for alg in (fixtures.filippov_n3(), fixtures.twisted_filippov_rotation()):
        fund = fundamental_of(alg)
        space1 = CochainSpace(alg, 1, "adjoint")
        space2 = CochainSpace(alg, 2, "adjoint", "split")
        rng = random.Random(9)
        psi = random_equivariant_cochain(alg, 1, rng)
        out = apply_coboundary(adjoint_representation(alg), psi, out_mode="split")
        alpha_cols = [alg.twist_power(1).column(i) for i in range(alg.dim)]
        zero = (Fraction(0),) * alg.dim
        for key in space2.keys:
            (bx, by), z = space2.decode_args(key)
            ax = fund.twist_sparse({bx: ONE})
            ay = fund.twist_sparse({by: ONE})
            lyz = l_action_sparse(alg, fund.basis, {by: ONE}, {z: ONE})
            lxz = l_action_sparse(alg, fund.basis, {bx: ONE}, {z: ONE})
            total = list(sv_to_dense(psi.evaluate([ax], lyz), alg.dim))
            for i, v in psi.evaluate([ay], lxz).items():
                total[i] -= v
            for i, v in psi.evaluate([fund.table[bx][by]], alpha_cols[z]).items():
                total[i] -= v
            lax = l_action_sparse(alg, fund.basis, ax, psi.value((by,), z))
            for i, v in lax.items():
                total[i] += v
            lay = l_action_sparse(alg, fund.basis, ay, psi.value((bx,), z))
            for i, v in lay.items():
                total[i] -= v
            yt = fund.basis[by]
            n = alg.arity
            from homnambu.algebra import bracket_eval_sparse

            for s in range(n - 1):
                val = psi.value((bx,), yt[s])
                args = [alpha_cols[yt[t]] for t in range(s)]
                args.append(val)
                args += [alpha_cols[yt[t]] for t in range(s + 1, n - 1)]
                args.append(alpha_cols[z])
                for i, v in bracket_eval_sparse(alg, args).items():
                    total[i] -= v
            assert tuple(total) == sv_to_dense(out.value((bx, by), z), alg.dim)


def test_delta_squared_zero_on_equivariant_subspace():
    for alg in (
        fixtures.filippov_n3(),
        fixtures.twisted_filippov_rotation(),
        fixtures.twisted_filippov_reflection(),
        fixtures.volume_form_d3_twisted(),
        fixtures.solvable_d4(),
    ):
        for p in (1, 2):
            equi = equivariant_basis(alg, p)
            lo = linalg.restrict_columns(coboundary_matrix(alg, p), equi)
            hi = coboundary_matrix(alg, p + 1)
            assert linalg.is_zero_matrix(linalg.sparse_matmul(hi, lo))


def test_delta_preserves_equivariance():
    from homnambu.adjoint_cohomology import equivariance_matrix

    for alg in (fixtures.twisted_filippov_rotation(), fixtures.volume_form_d3_twisted()):
        for p in (1, 2):
            equi = equivariant_basis(alg, p)
            lo = linalg.restrict_columns(coboundary_matrix(alg, p), equi)
            e_out = equivariance_matrix(alg, p + 1)
            assert linalg.is_zero_matrix(linalg.sparse_matmul(e_out, lo))


def test_coboundary_preserves_fusion():
    # every fixture file, perturbed_n3 too: fusion needs no fundamental identity
    for path in sorted(FIXDIR.glob("*.alg")):
        alg = load_algebra(path)
        rep = adjoint_representation(alg)
        for p in range(4):
            if CochainSpace(alg, p + 1, rep, "split").dim <= SPLIT_CAP:
                assert coboundary_preserves_fusion(alg, rep, p), (path.stem, p)


def test_apply_coboundary_rejects_non_equivariant():
    alg = fixtures.twisted_filippov_rotation()
    space = CochainSpace(alg, 1, "adjoint")
    flat = [Fraction(0)] * space.dim
    flat[0] = ONE
    psi = Cochain.from_flat(space, flat)
    bad = equivariance_violations(alg, psi)
    assert bad
    with pytest.raises(NotEquivariantError):
        check_infinitesimal_deformation(alg, psi)


def test_zero_bracket_h1_is_whole_space():
    alg = zero_algebra(3, 3)
    rep = cohomology(alg, 1)
    assert rep.dim_z == rep.dim_c == rep.dim_compatible
    assert rep.dim_b == 0
    assert rep.dim_h == rep.dim_c == rep.dim_h_no_defect


def test_filippov_report_consistent():
    rep = cohomology(fixtures.filippov_n3(), 1)
    assert rep.dim_h == rep.dim_z - rep.dim_b >= 0
    assert rep.dim_h_no_defect == rep.dim_z
    assert rep.cocycle_basis.verify() and rep.coboundary_basis.verify()


def test_twisted_report_consistent():
    rep = cohomology(fixtures.twisted_filippov_rotation(), 1)
    assert rep.dim_compatible < rep.dim_c
    assert rep.dim_h == rep.dim_z - rep.dim_b >= 0


def test_degree2_report_small_fixture():
    rep = cohomology(fixtures.volume_form_d3_twisted(), 2)
    assert rep.dim_h == rep.dim_z - rep.dim_b >= 0


# -- deformations --------------------------------------------------------------


VALID_FIXTURES = [path for path in sorted(FIXDIR.glob("*.alg")) if path.stem != "perturbed_n3"]


def test_residuals_match_coboundary_entrywise():
    # the t-linear defect of bracket + t psi is d psi, key by key and in
    # key order: x-wedge and n-form of each residual are a fused output key
    for path in VALID_FIXTURES:
        alg = load_algebra(path)
        out_space = CochainSpace(alg, 2, "adjoint", "fused")
        d = alg.dim
        for mode in ("fused", "split"):
            rng = random.Random(21)
            for psi in (
                random_equivariant_cochain(alg, 1, rng, mode),
                Cochain.random(CochainSpace(alg, 1, "adjoint", mode), rng),
            ):
                flat = linalg.sparse_mat_vec(
                    coboundary_matrix(alg, 1, mode, "fused"), psi.to_flat()
                )
                rows = [
                    (key, {r: flat[i * d + r] for r in range(d) if flat[i * d + r]})
                    for i, key in enumerate(out_space.keys)
                ]
                got = [
                    ((out_space.windex[x], out_space.nindex[y]), res)
                    for x, y, res in deformation_residuals(alg, psi)
                ]
                assert got == [(key, row) for key, row in rows if row], (path.stem, mode)


def test_zero_cochain_is_deformation():
    alg = fixtures.filippov_n3()
    space = CochainSpace(alg, 1, "adjoint")
    assert check_infinitesimal_deformation(alg, Cochain.zero(space))


def test_defect_images_are_deformations():
    alg = fixtures.twisted_filippov_rotation()
    d0 = zero_coboundary_matrix(alg)
    for flat0 in equivariant_matrix_space(alg).vectors[:3]:
        psi = Cochain.from_flat(
            CochainSpace(alg, 1, "adjoint"), linalg.sparse_mat_vec(d0, flat0)
        )
        assert check_infinitesimal_deformation(alg, psi)


def test_random_cochains_dual_paths_agree():
    alg = fixtures.filippov_n3()
    rng = random.Random(31)
    seen_false = 0
    for _ in range(8):
        psi = random_equivariant_cochain(alg, 1, rng)
        verdict = check_infinitesimal_deformation(alg, psi)
        if not verdict:
            seen_false += 1
            assert deformation_residuals(alg, psi)
    assert seen_false > 0


def test_cocycles_are_deformations():
    alg = fixtures.twisted_filippov_rotation()
    rep = cohomology(alg, 1)
    space = CochainSpace(alg, 1, "adjoint")
    for flat in rep.cocycle_basis.vectors[:4]:
        psi = Cochain.from_flat(space, flat)
        assert check_infinitesimal_deformation(alg, psi)


def test_n2_matches_hand_coded_lie_formula():
    # classical adjoint Chevalley-Eilenberg differential of a 2-cochain,
    # written independently, must equal the degree-1 coboundary at n=2:
    # d psi(x,y,z) = [x,psi(y,z)] - [y,psi(x,z)] + [z,psi(x,y)]
    #              - psi([x,y],z) + psi([x,z],y) - psi([y,z],x)
    import itertools

    alg = fixtures.sl2()
    rng = random.Random(17)
    psi = random_equivariant_cochain(alg, 1, rng)
    out = apply_coboundary(adjoint_representation(alg), psi, out_mode="split")
    basis = [alg.basis_vector(i) for i in range(3)]
    w = psi.space.windex

    def psi_vec(v, u):
        sv = {i: c for i, c in enumerate(v) if c}
        su = {i: c for i, c in enumerate(u) if c}
        from homnambu.fundamental import wedge_of_vectors

        return sv_to_dense(psi.evaluate([wedge_of_vectors(w, [sv])], su), 3)

    for x, y, z in itertools.product(range(3), repeat=3):
        lhs = sv_to_dense(out.value((w[(x,)], w[(y,)]), z), 3)
        bxy = bracket_eval(alg, [basis[x], basis[y]])
        bxz = bracket_eval(alg, [basis[x], basis[z]])
        byz = bracket_eval(alg, [basis[y], basis[z]])
        terms = [
            (1, bracket_eval(alg, [basis[x], psi_vec(basis[y], basis[z])])),
            (-1, bracket_eval(alg, [basis[y], psi_vec(basis[x], basis[z])])),
            (1, bracket_eval(alg, [basis[z], psi_vec(basis[x], basis[y])])),
            (-1, psi_vec(bxy, basis[z])),
            (1, psi_vec(bxz, basis[y])),
            (-1, psi_vec(byz, basis[x])),
        ]
        total = [Fraction(0)] * 3
        for sign, vec in terms:
            for i, v in enumerate(vec):
                total[i] += sign * v
        assert tuple(total) == tuple(lhs), (x, y, z)
