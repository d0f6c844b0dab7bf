"""Trivial-coefficient complex: coboundaries, reports, extensions."""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from homnambu import fixtures, linalg
from homnambu.algebra import check_hom_nambu_identity, check_skew_symmetry, validate, zero_algebra
from homnambu.cochains import Cochain, CochainSpace, apply_coboundary, coboundary_preserves_fusion
from homnambu.derivations import trivial_representation
from homnambu.formats import load_algebra
from homnambu.fundamental import fundamental_of, l_action_sparse
from homnambu.scalar_cohomology import (
    NotACocycleError,
    apply_zero_coboundary,
    central_extension,
    coboundary_matrix,
    cohomology,
    filippov_potential,
    potential_by_solve,
    restrict_extension,
    trivialization_map,
    zero_coboundary_matrix,
)

ONE = Fraction(1)
FIXDIR = Path(__file__).resolve().parent.parent / "fixtures"
SPLIT_CAP = 20_000  # coordinates of the split output space a fusion check builds

FIXTURES = [
    "filippov_n3",
    "filippov_n3_twisted",
    "filippov_n3_reflected",
    "sl2",
    "volume_d3_twisted",
    "solvable_d4",
    "zero_d3_n3",
]


def algs():
    table = fixtures.standard_fixtures()
    table["solvable_d4"] = fixtures.solvable_d4()
    return [(name, table[name]) for name in FIXTURES]


def test_zero_cochain_maps_to_zero():
    alg = fixtures.filippov_n3()
    space = CochainSpace(alg, 1, "scalar")
    out = apply_coboundary(trivial_representation(alg), Cochain.zero(space))
    assert out.coeffs == {}


def test_zero_bracket_coboundary_vanishes():
    alg = zero_algebra(3, 3)
    assert not zero_coboundary_matrix(alg).entries
    for p in (1, 2):
        assert not coboundary_matrix(alg, p).entries


def test_degree1_matches_three_term_display():
    # second, independent code path for the degree-1 coboundary
    for name, alg in algs():
        fund = fundamental_of(alg)
        space1 = CochainSpace(alg, 1, "scalar")
        space2 = CochainSpace(alg, 2, "scalar", "split")
        rng = random.Random(5)
        phi = Cochain.random(space1, rng)
        out = apply_coboundary(trivial_representation(alg), phi, out_mode="split")
        alpha_cols = [alg.twist_power(1).column(i) for i in range(alg.dim)]
        for key in space2.keys:
            (bx, by), z = space2.decode_args(key)
            ax = fund.twist_sparse({bx: ONE})
            ay = fund.twist_sparse({by: ONE})
            lyz = l_action_sparse(alg, fund.basis, {by: ONE}, {z: ONE})
            lxz = l_action_sparse(alg, fund.basis, {bx: ONE}, {z: ONE})
            expected = (
                phi.evaluate([ax], lyz).get(0, 0)
                - phi.evaluate([ay], lxz).get(0, 0)
                - phi.evaluate([fund.table[bx][by]], alpha_cols[z]).get(0, 0)
            )
            assert out.value((bx, by), z).get(0, 0) == expected


def test_degree2_matches_display():
    # the same independent path at degree 2, where the bracket can sit in
    # a slot before the last: d1 over the pairs i < j of three blocks,
    # then d2, against a fused cochain read in the split output space
    for name, alg in algs():
        fund = fundamental_of(alg)
        space2 = CochainSpace(alg, 2, "scalar")
        space3 = CochainSpace(alg, 3, "scalar", "split")
        phi = Cochain.random(space2, random.Random(7))
        out = apply_coboundary(trivial_representation(alg), phi, out_mode="split")
        alpha_cols = [alg.twist_power(1).column(i) for i in range(alg.dim)]
        for key in space3.keys:
            xs, z = space3.decode_args(key)
            ax = [fund.twist_sparse({x: ONE}) for x in xs]
            expected = 0
            for i in range(3):  # 0-based i, so the sign (-1)^(i+1)
                sign = -1 if i % 2 == 0 else 1
                for j in range(i + 1, 3):  # d1: [x_i, x_j] in slot j
                    bracket = fund.table[xs[i]][xs[j]]
                    args = [bracket if k == j else ax[k] for k in range(3) if k != i]
                    expected += sign * phi.evaluate(args, alpha_cols[z]).get(0, 0)
                lz = l_action_sparse(alg, fund.basis, {xs[i]: ONE}, {z: ONE})  # d2
                expected += sign * phi.evaluate(ax[:i] + ax[i + 1:], lz).get(0, 0)
            assert out.value(xs, z).get(0, 0) == expected, (name, key)


@pytest.mark.parametrize("mode", ["fused", "split"])
def test_delta_squared_is_zero(mode):
    for name, alg in algs():
        for p in (1, 2):
            lo = coboundary_matrix(alg, p, mode)
            hi = coboundary_matrix(alg, p + 1, mode)
            assert linalg.is_zero_matrix(linalg.sparse_matmul(hi, lo)), (name, mode, p)


def test_delta_squared_dense_oracle():
    # independent route: dense backend product of the two operators
    alg = fixtures.twisted_filippov_rotation()
    lo = coboundary_matrix(alg, 1)
    hi = coboundary_matrix(alg, 2)
    assert linalg.is_zero_matrix(linalg.matmul(hi, lo))


def test_coboundary_preserves_fusion():
    # every fixture file, perturbed_n3 too: fusion needs no fundamental identity
    for path in sorted(FIXDIR.glob("*.alg")):
        alg = load_algebra(path)
        rep = trivial_representation(alg)
        for p in range(4):
            if CochainSpace(alg, p + 1, rep, "split").dim <= SPLIT_CAP:
                assert coboundary_preserves_fusion(alg, rep, p), (path.stem, p)


def test_zero_bracket_h1_is_c1():
    alg = zero_algebra(2, 2)
    rep = cohomology(alg, 1)
    assert rep.dim_c == rep.dim_z == rep.dim_h == 1  # one 2-form on 2 dims
    assert rep.dim_b == 0
    alg = zero_algebra(3, 3)
    rep = cohomology(alg, 1)
    assert rep.dim_c == rep.dim_z == rep.dim_h == 1
    assert rep.dim_b == 0


def test_twisted_filippov_h1_vanishes():
    rep = cohomology(fixtures.twisted_filippov_rotation(), 1)
    assert (rep.dim_c, rep.dim_z, rep.dim_b, rep.dim_h) == (4, 4, 4, 0)


def test_degree2_reports_consistent():
    for alg in (fixtures.volume_form_d3(), fixtures.volume_form_d3_twisted(), fixtures.solvable_d4()):
        rep = cohomology(alg, 2)
        assert rep.dim_h == rep.dim_z - rep.dim_b >= 0
        assert rep.cocycle_basis.verify() and rep.coboundary_basis.verify()


def test_degree0_report_kernel_only():
    alg = fixtures.filippov_n3()
    rep = cohomology(alg, 0)
    # the bracket is surjective here, so no covector kills it
    assert rep.dim_z == rep.dim_h == 0 and rep.dim_b == 0


def test_potential_formula_exact():
    signs = [1, 1, 1, 1]
    alpha = fixtures.rotation_twist_4d()
    alg = fixtures.twisted_filippov_rotation()
    space = CochainSpace(alg, 1, "scalar")
    rng = random.Random(12)
    for _ in range(6):
        phi = Cochain.random(space, rng)
        psi = filippov_potential(signs, alpha, phi)
        assert apply_zero_coboundary(alg, psi).coeffs == phi.coeffs
        by_solve = potential_by_solve(alg, phi)
        assert by_solve is not None
        assert apply_zero_coboundary(alg, by_solve).coeffs == phi.coeffs


def test_potential_formula_exhaustive_on_basis():
    # linearity makes the basis loop an exhaustive check of the formula
    signs = [1, 1, 1, 1]
    alpha = fixtures.rotation_twist_4d()
    alg = fixtures.twisted_filippov_rotation()
    space = CochainSpace(alg, 1, "scalar")
    for i in range(space.dim):
        flat = [Fraction(0)] * space.dim
        flat[i] = ONE
        phi = Cochain.from_flat(space, flat)
        psi = filippov_potential(signs, alpha, phi)
        assert apply_zero_coboundary(alg, psi).coeffs == phi.coeffs


def test_potential_formula_mixed_signs_identity_twist():
    from homnambu.algebra import filippov_algebra

    signs = [1, -1, 1, -1]
    alg = filippov_algebra(3, signs)
    space = CochainSpace(alg, 1, "scalar")
    rng = random.Random(4)
    phi = Cochain.random(space, rng)
    psi = filippov_potential(signs, linalg.eye(4), phi)
    assert apply_zero_coboundary(alg, psi).coeffs == phi.coeffs


# -- central extensions -------------------------------------------------------


def test_trivial_extension_is_direct_sum():
    alg = fixtures.filippov_n3()
    space = CochainSpace(alg, 1, "scalar")
    ext = central_extension(alg, Cochain.zero(space))
    assert ext.dim == 5
    assert not any(validate(ext).values())
    for key, value in alg.coeffs.items():
        assert ext.bracket_basis(key) == value + (0,)


def test_extension_from_coboundary_is_trivializable():
    alg = fixtures.twisted_filippov_rotation()
    psi = (Fraction(1), Fraction(-2), Fraction(0), Fraction(3))
    phi = apply_zero_coboundary(alg, psi)
    ext = central_extension(alg, phi)
    triv = central_extension(alg, Cochain.zero(phi.space))
    t = trivialization_map(alg, psi)
    # bracket intertwining: T([x]_ext) = [T x]_triv on basis tuples
    for key in ext.coeffs | triv.coeffs:
        lhs = linalg.sparse_mat_vec(t, ext.bracket_basis(key))
        rhs = triv.bracket_basis(key)
        assert lhs == rhs, key
    # twist intertwining with the shifted lambda
    lam0 = tuple(linalg.sparse_mat_vec(alg.twist.T, psi))  # psi o alpha
    triv_shifted = central_extension(alg, Cochain.zero(phi.space), lam0)
    assert linalg.matmul(t, ext.twist) == linalg.matmul(triv_shifted.twist, t)


def test_extension_from_cocycle_basis_validates():
    alg = fixtures.twisted_filippov_rotation()
    rep = cohomology(alg, 1)
    space = CochainSpace(alg, 1, "scalar")
    for flat in rep.cocycle_basis.vectors:
        ext = central_extension(alg, Cochain.from_flat(space, flat))
        assert check_skew_symmetry(ext) == []
        assert check_hom_nambu_identity(ext) == []


def test_extension_rejects_non_cocycle():
    alg = fixtures.solvable_d4()
    space = CochainSpace(alg, 1, "scalar")
    # find a non-cocycle by scanning basis n-forms
    mat = coboundary_matrix(alg, 1, "fused", "split")
    for i in range(space.dim):
        flat = [Fraction(0)] * space.dim
        flat[i] = ONE
        phi = Cochain.from_flat(space, flat)
        if any(linalg.sparse_mat_vec(mat, flat)):
            with pytest.raises(NotACocycleError) as exc:
                central_extension(alg, phi)
            assert len(exc.value.triple) == 3
            return
    pytest.skip("every basis form is a cocycle on this fixture")


def test_extension_restricts_to_original():
    alg = fixtures.twisted_filippov_rotation()
    rep = cohomology(alg, 1)
    space = CochainSpace(alg, 1, "scalar")
    phi = Cochain.from_flat(space, rep.cocycle_basis.vectors[0])
    ext = central_extension(alg, phi, lam=(1, 0, 0, 2))
    back = restrict_extension(ext)
    assert back.coeffs == alg.coeffs
    assert back.twist == alg.twist


def test_extension_lambda_free_and_beta_multiplicativity_reported():
    # the identity holds for any lambda; multiplicativity of the
    # extended twist is a separate, reportable property
    from homnambu.algebra import check_multiplicativity

    alg = fixtures.twisted_filippov_rotation()
    space = CochainSpace(alg, 1, "scalar")
    ext = central_extension(alg, Cochain.zero(space), lam=(5, -1, 2, 7))
    assert check_hom_nambu_identity(ext) == []
    assert isinstance(bool(check_multiplicativity(ext)), bool)