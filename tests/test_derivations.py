"""Derivation spaces, inner derivations, commutators, representations."""

import itertools
import random
from fractions import Fraction

import pytest

from homnambu import fixtures, linalg
from homnambu.algebra import (
    HomNambuAlgebra,
    bracket_eval,
    check_hom_nambu_identity,
    zero_algebra,
)
from homnambu.derivations import (
    Derivation,
    FixedPointError,
    LevelUnderflowError,
    RepresentationMap,
    adjoint_representation,
    check_rep_equivalence,
    check_representation,
    derivation_commutator,
    derivation_space,
    derivation_violations,
    inner_derivation,
    unflatten_matrix,
    SingularMapError,
)


def e(d, i):
    return tuple(Fraction(int(j == i)) for j in range(d))


def flat(m) -> tuple:
    """The entries of a matrix row by row, zeros included."""
    return tuple(v for row in m.to_dense() for v in row)


def _brute_force_derivation_dim(alg, k):
    """Independent oracle: assemble the constraint system by evaluating
    both defining conditions on every matrix unit E_{rc}, over all basis
    tuples in every order (not just increasing ones)."""
    d, n = alg.dim, alg.arity
    units = []
    for r in range(d):
        for c in range(d):
            units.append(linalg.SparseMatrix(d, d, {(r, c): Fraction(1)}))
    alpha_k = alg.twist_power(k)
    rows = []
    for unit in units:
        col = []
        comm = linalg.matmul(unit, alg.twist) - linalg.matmul(alg.twist, unit)
        col.extend(flat(comm))
        for key in itertools.product(range(d), repeat=n):
            basis = [alg.basis_vector(i) for i in key]
            lhs = linalg.sparse_mat_vec(unit, bracket_eval(alg, basis))
            rhs = [Fraction(0)] * d
            for i in range(n):
                args = [linalg.sparse_mat_vec(alpha_k, v) for v in basis]
                args[i] = linalg.sparse_mat_vec(unit, basis[i])
                rhs = [a + b for a, b in zip(rhs, bracket_eval(alg, args))]
            col.extend(a - b for a, b in zip(lhs, rhs))
        rows.append(col)
    constraint = linalg.mat(rows).T
    return constraint.shape[1] - linalg.rank(constraint)


def test_zero_bracket_all_endomorphisms():
    alg = zero_algebra(3, 3)
    for k in (-1, 0, 2):
        assert derivation_space(alg, k).dim == 9


def test_zero_twist_drops_commutation_constraint():
    # with twist = 0 the commutation condition is vacuous and the space
    # is the kernel of the Leibniz-rule system alone; with twist^0 = id
    # in the untouched slots this is the classical derivation algebra
    alg = fixtures.filippov_n3()
    alg0 = HomNambuAlgebra(4, 3, alg.coeffs, linalg.zeros(4, 4))
    space = derivation_space(alg0, 0)
    classical = derivation_space(alg, 0)
    assert space.dim == classical.dim
    stacked = space.matrix().to_dense() + classical.matrix().to_dense()
    assert linalg.rank(stacked) == space.dim


def test_filippov_derivation_dim_matches_brute_force():
    alg = fixtures.filippov_n3()
    space = derivation_space(alg, 0)
    assert space.dim == _brute_force_derivation_dim(alg, 0)
    assert space.dim == 6


def test_derivation_space_members_verify():
    alg = fixtures.twisted_filippov_rotation()
    space = derivation_space(alg, 1)
    for flat in space.vectors:
        m = unflatten_matrix(flat, alg.dim)
        assert derivation_violations(alg, m, 1) == []


@pytest.mark.parametrize(
    "alg",
    [
        fixtures.solvable_d4(),
        fixtures.perturbed_filippov(),
        fixtures.twisted_filippov_rotation(),
        zero_algebra(3, 3),
    ],
    ids=["solvable_d4", "perturbed_filippov", "twisted_filippov_rotation", "zero_d3_n3"],
)
def test_derivation_violations_match_pointwise_reference(alg):
    # the defect D([x]) - sum_i [a^k x_1, ..., D x_i, ..., a^k x_n], per
    # increasing tuple, evaluated bracket by bracket on random matrices
    d, n = alg.dim, alg.arity
    rng = random.Random(11)
    for k in (-1, 0, 1, 2):
        alpha_k = alg.twist_power(k)
        for _ in range(3):
            m = linalg.mat([[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)])
            expected = []
            comm = linalg.matmul(m, alg.twist) - linalg.matmul(alg.twist, m)
            if not linalg.is_zero_matrix(comm):
                expected.append(("twist_commutation", comm))
            for key in itertools.combinations(range(d), n):
                basis = [alg.basis_vector(i) for i in key]
                diff = linalg.sparse_mat_vec(m, bracket_eval(alg, basis))
                for i in range(n):
                    args = [linalg.sparse_mat_vec(alpha_k, v) for v in basis]
                    args[i] = linalg.sparse_mat_vec(m, basis[i])
                    diff = tuple(a - b for a, b in zip(diff, bracket_eval(alg, args)))
                if any(diff):
                    expected.append((key, diff))
            assert derivation_violations(alg, m, k) == expected, k


def test_level_minus_one_kills_brackets():
    # twist^(-1) = 0 wipes every slot on the right-hand side, so a
    # level -1 derivation must annihilate all bracket values
    alg = fixtures.filippov_n3()
    space = derivation_space(alg, -1)
    for flat in space.vectors:
        m = unflatten_matrix(flat, alg.dim)
        for key in alg.coeffs:
            assert not any(linalg.sparse_mat_vec(m, alg.bracket_basis(key)))


def test_inner_derivation_zero_component():
    alg = fixtures.filippov_n3()
    der = inner_derivation(alg, [alg.zero_vector(), e(4, 1)], 1)
    assert linalg.is_zero_matrix(der.matrix)
    assert der.level == 2


def test_inner_derivation_filippov():
    alg = fixtures.filippov_n3()
    der = inner_derivation(alg, [e(4, 0), e(4, 1)], 1)
    assert der.level == 2
    # with identity twist this is the plain adjoint map of (e1, e2)
    assert der.matrix.column(2) == {3: -1}
    assert derivation_violations(alg, der.matrix, 2) == []
    space = derivation_space(alg, 2)
    assert space.contains(flat(der.matrix))


def test_inner_derivation_twisted_fixed_points():
    alg = fixtures.twisted_filippov_reflection()  # fixes e1, e2
    der = inner_derivation(alg, [e(4, 0), e(4, 1)], 1)
    comm = linalg.matmul(der.matrix, alg.twist) - linalg.matmul(alg.twist, der.matrix)
    assert linalg.is_zero_matrix(comm)


def test_inner_derivation_rejects_moving_point():
    alg = fixtures.twisted_filippov_reflection()
    with pytest.raises(FixedPointError) as exc:
        inner_derivation(alg, [e(4, 0), e(4, 2)], 1)
    assert exc.value.component == 1


def test_commutator_with_self_is_zero():
    alg = fixtures.filippov_n3()
    d1 = inner_derivation(alg, [e(4, 0), e(4, 1)], 1)
    z = derivation_commutator(alg, d1, d1)
    assert linalg.is_zero_matrix(z.matrix)
    assert z.level == 4


def test_commutator_with_identity_on_zero_bracket():
    alg = zero_algebra(3, 2)
    ident = Derivation(linalg.eye(3), 0)
    other = Derivation(linalg.mat([[0, 1, 0], [0, 0, 0], [0, 0, 0]]), 0)
    z = derivation_commutator(alg, ident, other)
    assert linalg.is_zero_matrix(z.matrix)


def test_commutator_level_underflow():
    alg = zero_algebra(3, 2)
    d1 = Derivation(linalg.eye(3), -1)
    with pytest.raises(LevelUnderflowError):
        derivation_commutator(alg, d1, d1)


def test_commutator_stays_in_space():
    alg = fixtures.filippov_n3()
    space = derivation_space(alg, 0)
    mats = [unflatten_matrix(v, 4) for v in space.vectors[:3]]
    for a, b in itertools.combinations(mats, 2):
        c = derivation_commutator(alg, Derivation(a, 0), Derivation(b, 0))
        assert space.contains(flat(c.matrix))


def test_commutator_jacobi_identity():
    alg = fixtures.filippov_n3()
    space = derivation_space(alg, 0)
    a, b, c = (unflatten_matrix(v, 4) for v in space.vectors[:3])

    def br(x, y):
        return linalg.matmul(x, y) - linalg.matmul(y, x)

    total = br(br(a, b), c) + br(br(b, c), a) + br(br(c, a), b)
    assert linalg.is_zero_matrix(total)


def test_bracketing_inner_with_derivation_stays_inner():
    # [D, ad(x)] = sum_i ad(x_1, ..., D(x_i), ..., x_{n-1}) at the summed
    # level, on fixtures where the twist fixes the x_i and commutes with D
    alg = fixtures.filippov_n3()
    space = derivation_space(alg, 1)
    d_mat = unflatten_matrix(space.vectors[0], 4)
    inner = inner_derivation(alg, [e(4, 0), e(4, 1)], 1)
    commutator = derivation_commutator(alg, Derivation(d_mat, 1), inner)
    assert commutator.level == 3
    expected = linalg.zeros(4, 4)
    xs = [e(4, 0), e(4, 1)]
    for i in range(2):
        replaced = list(xs)
        replaced[i] = linalg.sparse_mat_vec(d_mat, xs[i])
        from homnambu.algebra import ad_matrix

        expected = expected + linalg.matmul(ad_matrix(alg, replaced), alg.twist_power(3))
    assert commutator.matrix == expected


# -- representations ---------------------------------------------------------


def test_zero_representation_passes():
    alg = fixtures.filippov_n3()
    rep = RepresentationMap(arity=3, dim=4, rho={}, nu=alg.twist)
    assert check_representation(alg, rep) == []


def test_adjoint_representation_passes():
    for alg in (
        fixtures.filippov_n3(),
        fixtures.twisted_filippov_rotation(),
        fixtures.sl2(),
        fixtures.volume_form_d3_twisted(),
    ):
        assert check_representation(alg, adjoint_representation(alg)) == []


def test_adjoint_of_invalid_algebra_fails():
    bad = fixtures.perturbed_filippov()
    assert check_hom_nambu_identity(bad)
    assert check_representation(bad, adjoint_representation(bad))


def test_adjoint_equivalence_with_identity_matches_nambu_check():
    # over a grab bag of small structure tensors, the adjoint action is a
    # representation exactly when the algebra satisfies the identity
    cases = [
        fixtures.sl2(),
        fixtures.perturbed_filippov(),
        HomNambuAlgebra(3, 2, {(0, 1): (0, 0, 1), (0, 2): (0, 1, 0)}),
        HomNambuAlgebra(3, 3, {(0, 1, 2): (2, 0, 5)}),
        HomNambuAlgebra(4, 3, {(0, 1, 2): (0, 0, 0, 1), (0, 1, 3): (0, 0, 1, 0)}),
    ]
    for alg in cases:
        nambu_ok = not check_hom_nambu_identity(alg)
        rep_ok = not check_representation(alg, adjoint_representation(alg))
        assert nambu_ok == rep_ok


def test_rep_equivalence_identity():
    alg = fixtures.filippov_n3()
    rep = adjoint_representation(alg)
    assert check_rep_equivalence(rep, rep, linalg.eye(4))


def test_rep_equivalence_zero_reps():
    rep = RepresentationMap(arity=3, dim=4, rho={}, nu=linalg.eye(4))
    rep2 = RepresentationMap(arity=3, dim=4, rho={}, nu=linalg.eye(4))
    f = linalg.mat([[2, 1, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 5]])
    assert check_rep_equivalence(rep, rep2, f)


def test_rep_equivalence_needs_nu_intertwined():
    rep = RepresentationMap(arity=3, dim=4, rho={}, nu=linalg.eye(4))
    rep2 = RepresentationMap(arity=3, dim=4, rho={}, nu=2 * linalg.eye(4))
    assert not check_rep_equivalence(rep, rep2, linalg.eye(4))


def test_rep_equivalence_scalar_conjugation():
    alg = fixtures.filippov_n3()
    rep = adjoint_representation(alg)
    f = linalg.mat([[3, 0, 0, 0], [0, 3, 0, 0], [0, 0, 3, 0], [0, 0, 0, 3]])
    assert check_rep_equivalence(rep, rep, f)


def test_rep_equivalence_detects_difference():
    alg = fixtures.filippov_n3()
    rep = adjoint_representation(alg)
    rho2 = {k: -m for k, m in rep.rho.items()}
    rep2 = RepresentationMap(arity=3, dim=4, rho=rho2, nu=rep.nu)
    assert not check_rep_equivalence(rep, rep2, linalg.eye(4))


def test_rep_equivalence_rejects_singular_map():
    alg = fixtures.filippov_n3()
    rep = adjoint_representation(alg)
    with pytest.raises(SingularMapError):
        check_rep_equivalence(rep, rep, linalg.zeros(4, 4))
