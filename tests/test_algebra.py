"""Structure constants, validators, Filippov family, Yau twists."""

import itertools
import random
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homnambu import algebra, linalg
from homnambu.algebra import (
    AlgebraError,
    HomNambuAlgebra,
    InconsistentBracketError,
    NotAnEndomorphismError,
    ad_matrix,
    bracket_eval,
    bracket_eval_sparse,
    check_hom_nambu_identity,
    check_multiplicativity,
    check_skew_symmetry,
    endomorphism_failure,
    filippov_algebra,
    signed_permutation_automorphisms,
    validate,
    yau_twist,
    zero_algebra,
)
from homnambu.formats import load_algebra
from homnambu.indices import sort_with_sign, sv_add, wedge_basis

FIXDIR = Path(__file__).resolve().parent.parent / "fixtures"


def e(d, i):
    return tuple(Fraction(int(j == i)) for j in range(d))


def test_filippov_bracket_values():
    alg = filippov_algebra(3, [1, 1, 1, 1])
    # dropping e1 gives +e1, dropping e2 gives -e2, dropping e4 gives -e4
    assert bracket_eval(alg, [e(4, 1), e(4, 2), e(4, 3)]) == e(4, 0)
    assert bracket_eval(alg, [e(4, 0), e(4, 2), e(4, 3)]) == tuple(-v for v in e(4, 1))
    assert bracket_eval(alg, [e(4, 0), e(4, 1), e(4, 2)]) == tuple(-v for v in e(4, 3))


def test_filippov_signs_scale_values():
    alg = filippov_algebra(3, [1, -1, 1, -1])
    assert bracket_eval(alg, [e(4, 1), e(4, 2), e(4, 3)]) == e(4, 0)
    assert bracket_eval(alg, [e(4, 0), e(4, 2), e(4, 3)]) == e(4, 1)


def test_repeated_argument_vanishes():
    alg = filippov_algebra(3, [1, 1, 1, 1])
    v = (Fraction(2), Fraction(1), Fraction(0), Fraction(3))
    assert bracket_eval(alg, [v, v, e(4, 0)]) == alg.zero_vector()


def test_bracket_permutation_signs_exhaustive():
    # the permutation oracle behind the structural skew check: on every
    # shipped algebra, every order of every increasing basis tuple
    # evaluates to the signed stored value
    paths = sorted(FIXDIR.glob("*.alg"))
    assert any(p.stem == "perturbed_n3" for p in paths)
    for path in paths:
        alg = load_algebra(path)
        for key in wedge_basis(alg.dim, alg.arity):
            stored = {i: v for i, v in enumerate(alg.coeffs.get(key, ())) if v}
            for perm in itertools.permutations(key):
                _, sign = sort_with_sign(perm)
                got = bracket_eval_sparse(alg, [{i: 1} for i in perm])
                assert got == {i: sign * v for i, v in stored.items()}, (path.stem, perm)


def test_check_skew_symmetry_sets_flag():
    alg = filippov_algebra(2, [1, 1, 1])
    assert check_skew_symmetry(alg) == []
    assert alg.skew_checked


@pytest.mark.parametrize(
    "key, value",
    [
        ((1, 0, 2), (0, 0, 0, 1)),  # not increasing
        ((0, 1, 1), (0, 0, 0, 1)),  # repeated index
        ((0, 1, 4), (0, 0, 0, 1)),  # out of range
        ((0, 1), (0, 0, 0, 1)),  # wrong arity
        ((0, 1, 2), (0, 0, 0)),  # wrong value length
        ((0, 1, 2), (0, 0, 0, 0)),  # stored zero
    ],
)
def test_check_skew_symmetry_reports_injected_key(key, value):
    alg = HomNambuAlgebra(4, 3, filippov_algebra(3, [1, 1, 1, 1]).coeffs)
    alg.coeffs[key] = value
    assert check_skew_symmetry(alg) == [(key, {i: v for i, v in enumerate(value) if v})]
    assert not alg.skew_checked


def test_check_skew_symmetry_evaluates_no_bracket(monkeypatch):
    alg = load_algebra(FIXDIR / "filippov_n4.alg")
    calls = []
    evaluate, basis = algebra.bracket_eval_sparse, HomNambuAlgebra.bracket_basis_sparse
    monkeypatch.setattr(
        algebra, "bracket_eval_sparse", lambda *a: calls.append("eval") or evaluate(*a)
    )
    monkeypatch.setattr(
        HomNambuAlgebra, "bracket_basis_sparse", lambda *a: calls.append("basis") or basis(*a)
    )
    assert check_skew_symmetry(alg) == [] and alg.skew_checked
    assert calls == []
    assert not any(validate(alg).values())
    assert {"eval", "basis"} <= set(calls)  # the counters do see the other checks


def test_bracket_basis_sparse_matches_dense_on_every_ordered_tuple():
    for path in sorted(FIXDIR.glob("*.alg")):
        alg = load_algebra(path)
        for key in itertools.product(range(alg.dim), repeat=alg.arity):
            sparse = alg.bracket_basis_sparse(key)
            assert sparse == {i: v for i, v in enumerate(alg.bracket_basis(key)) if v}, (path.stem, key)
            assert all(type(v) is (int if v.denominator == 1 else Fraction) for v in sparse.values())


def test_bracket_basis_sparse_columns_follow_inserts_and_stay_private():
    alg = zero_algebra(3, 2)
    assert alg.bracket_basis_sparse((0, 1)) == {}  # builds the column table
    alg._insert((1, 0), (2, 0, Fraction(1, 2)))
    col = alg.bracket_basis_sparse((0, 1))
    assert col == {0: -2, 2: Fraction(-1, 2)}
    assert type(col[0]) is int and type(col[2]) is Fraction
    for key in ((0, 1), (1, 0)):
        got = alg.bracket_basis_sparse(key)
        got[1] = 7
        got.pop(0)
    assert alg.bracket_basis_sparse((1, 0)) == {0: 2, 2: Fraction(1, 2)}
    assert bracket_eval_sparse(alg, [{0: 1}, {1: 3}]) == {0: -6, 2: Fraction(-3, 2)}


def test_hom_nambu_zero_bracket():
    alg = zero_algebra(3, 3, linalg.mat([[0, 1, 0], [1, 0, 0], [0, 0, 2]]))
    assert check_hom_nambu_identity(alg) == []


@given(st.lists(st.sampled_from([1, -1]), min_size=4, max_size=4))
@settings(max_examples=16, deadline=None)
def test_filippov_satisfies_identity(signs):
    alg = filippov_algebra(3, signs)
    assert check_hom_nambu_identity(alg) == []


def test_rescaled_filippov_still_satisfies_identity():
    # scaling a structure constant of the (n+1)-dim family keeps the
    # identity: on n+1 letters every instance degenerates to at most one
    # matching nonzero term per side
    alg = filippov_algebra(3, [1, 1, 1, 1])
    coeffs = dict(alg.coeffs)
    coeffs[(1, 2, 3)] = tuple(2 * v for v in coeffs[(1, 2, 3)])
    scaled = HomNambuAlgebra(4, 3, coeffs)
    assert check_hom_nambu_identity(scaled) == []


def test_perturbed_filippov_fails_identity():
    # redirecting [e2,e3,e4] from e1 to e2 breaks the identity; hand
    # oracle at x=(e1,e3), y=(e2,e3,e4): lhs = [e1,e3,[e2,e3,e4]] =
    # [e1,e3,e2] = -[e1,e2,e3] = +e4, while every rhs term carries a
    # repeated letter and vanishes
    alg = filippov_algebra(3, [1, 1, 1, 1])
    coeffs = dict(alg.coeffs)
    coeffs[(1, 2, 3)] = (0, 1, 0, 0)
    bad = HomNambuAlgebra(4, 3, coeffs)
    violations = check_hom_nambu_identity(bad)
    assert violations
    assert any(v[0] == (0, 2) and v[1] == (1, 2, 3) for v in violations)


def test_multiplicativity_identity_twist():
    alg = filippov_algebra(3, [1, 1, 1, 1])
    assert check_multiplicativity(alg) == []
    assert alg.multiplicative_checked


def test_multiplicativity_zero_twist():
    alg = filippov_algebra(3, [1, 1, 1, 1])
    alg2 = HomNambuAlgebra(4, 3, alg.coeffs, linalg.zeros(4, 4))
    assert check_multiplicativity(alg2) == []


def test_automorphism_search_finds_rotation():
    alg = filippov_algebra(3, [1, 1, 1, 1])
    autos = signed_permutation_automorphisms(alg)
    assert autos, "expected at least one signed-permutation automorphism"
    # the block rotation e1->e2->-e1, e3->e4->-e3 preserves the bracket
    rho = linalg.mat([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
    assert endomorphism_failure(alg, rho) is None
    assert any(a == rho for a in autos)


def test_automorphisms_are_det_one():
    alg = filippov_algebra(3, [1, 1, 1, 1])
    for rho in signed_permutation_automorphisms(alg):
        perm, signs = [], []
        for col in range(4):
            row = next(r for r in range(4) if rho[r, col])
            perm.append(row)
            signs.append(rho[row, col])
        _, psign = sort_with_sign(tuple(perm))
        det = psign
        for s in signs:
            det *= s
        assert det == 1


def test_yau_twist_identity_is_same_algebra():
    alg = filippov_algebra(3, [1, 1, 1, 1])
    twisted = yau_twist(alg, linalg.eye(4))
    assert twisted.coeffs == alg.coeffs
    assert twisted.twist == linalg.eye(4)


def test_yau_twist_zero_map():
    alg = filippov_algebra(3, [1, 1, 1, 1])
    twisted = yau_twist(alg, linalg.zeros(4, 4))
    assert twisted.coeffs == {}
    assert check_hom_nambu_identity(twisted) == []


def test_yau_twist_automorphism_postconditions():
    alg = filippov_algebra(3, [1, 1, 1, 1])
    rho = linalg.mat([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
    twisted = yau_twist(alg, rho)
    assert check_hom_nambu_identity(twisted) == []
    assert check_multiplicativity(twisted) == []
    # twisted bracket is rho composed with the original one
    for key, value in alg.coeffs.items():
        assert twisted.bracket_basis(key) == linalg.sparse_mat_vec(rho, value)


def test_yau_twist_rejects_non_endomorphism():
    alg = filippov_algebra(3, [1, 1, 1, 1])
    rho = linalg.mat([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]])
    with pytest.raises(NotAnEndomorphismError) as exc:
        yau_twist(alg, rho)
    assert exc.value.failing_tuple  # 1-based witness tuple


def test_yau_twist_requires_identity_twist():
    alg = filippov_algebra(3, [1, 1, 1, 1])
    twisted = yau_twist(
        alg, linalg.mat([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
    )
    with pytest.raises(AlgebraError):
        yau_twist(twisted, linalg.eye(4))


def test_cross_product_algebra_n2():
    alg = filippov_algebra(2, [1, 1, 1])
    assert alg.dim == 3
    assert bracket_eval(alg, [e(3, 1), e(3, 2)]) == e(3, 0)
    assert bracket_eval(alg, [e(3, 0), e(3, 1)]) == e(3, 2)
    assert not any(validate(alg).values())


def _jacobi_violations(alg):
    """Hand-coded Jacobi checker for binary brackets (independent oracle)."""
    out = []
    d = alg.dim
    basis = [alg.basis_vector(i) for i in range(d)]
    for i, j, k in itertools.combinations(range(d), 3):
        s = [Fraction(0)] * d
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            inner = bracket_eval(alg, [basis[a], basis[b]])
            term = bracket_eval(alg, [inner, basis[c]])
            s = [x + y for x, y in zip(s, term)]
        if any(s):
            out.append((i, j, k, tuple(s)))
    return out


def test_n2_identity_reduces_to_jacobi():
    sl2 = HomNambuAlgebra(
        3,
        2,
        {
            (0, 1): (0, 2, 0),
            (0, 2): (0, 0, -2),
            (1, 2): (1, 0, 0),
        },
    )
    assert _jacobi_violations(sl2) == []
    assert check_hom_nambu_identity(sl2) == []
    bad = HomNambuAlgebra(3, 2, {(0, 1): (0, 2, 0), (0, 2): (0, 0, -2), (1, 2): (1, 0, 1)})
    assert bool(_jacobi_violations(bad)) == bool(check_hom_nambu_identity(bad))


def test_ad_matrix_zero_argument():
    alg = filippov_algebra(3, [1, 1, 1, 1])
    m = ad_matrix(alg, [alg.zero_vector(), e(4, 0)])
    assert linalg.is_zero_matrix(m)


def test_ad_matrix_repeated_arguments():
    alg = filippov_algebra(3, [1, 1, 1, 1])
    v = (Fraction(1), Fraction(2), Fraction(0), Fraction(0))
    assert linalg.is_zero_matrix(ad_matrix(alg, [v, v]))


def test_ad_matrix_filippov_columns():
    alg = filippov_algebra(3, [1, 1, 1, 1])
    m = ad_matrix(alg, [e(4, 0), e(4, 1)])
    # [e1,e2,e3] = -e4 and [e1,e2,e4] = +e3 by expanding the sign rule
    assert m.column(2) == {3: -1}
    assert m.column(3) == {2: 1}
    assert m.column(0) == {}


def test_loader_normalizes_order_with_sign():
    alg = HomNambuAlgebra(3, 2, {(1, 0): (0, 0, 1)})
    assert alg.bracket_basis((0, 1)) == (0, 0, -1)


def test_loader_rejects_inconsistent_duplicates():
    with pytest.raises(InconsistentBracketError):
        HomNambuAlgebra(3, 2, {(0, 1): (0, 0, 1), (1, 0): (0, 0, 1)})


def test_loader_accepts_consistent_duplicates():
    alg = HomNambuAlgebra(3, 2, {(0, 1): (0, 0, 1)})
    again = HomNambuAlgebra(3, 2, {(0, 1): (0, 0, 1), (1, 0): (0, 0, -1)})
    assert alg.coeffs == again.coeffs


# -- the fundamental-identity defect against its term-by-term expansion -------


def reference_defects(alg, pairs):
    """The defect of :func:`algebra.fundamental_identity_defects` expanded
    term by term: every outer bracket evaluated on its full arguments."""
    n, d = alg.arity, alg.dim
    alpha_cols = [alg.twist_power(1).column(i) for i in range(d)]
    defects = []
    for x in wedge_basis(d, n - 1):
        alpha_x = [alpha_cols[i] for i in x]
        for y in wedge_basis(d, n):
            diff = {}
            for outer, inner in pairs:
                for idx, v in outer(alpha_x + [inner(y)]).items():
                    sv_add(diff, idx, v)
                for i in range(n):
                    inner_i = inner(x + (y[i],))
                    if inner_i:
                        args = [alpha_cols[j] for j in y]
                        args[i] = inner_i
                        for idx, v in outer(args).items():
                            sv_add(diff, idx, -v)
            if diff:
                defects.append((x, y, diff))
    return defects


def bracket_pairs(alg):
    return [(partial(bracket_eval_sparse, alg), alg.bracket_basis_sparse)]


@pytest.mark.parametrize("path", sorted(FIXDIR.glob("*.alg")), ids=lambda p: p.stem)
def test_identity_defects_match_the_expansion_on_fixtures(path):
    alg = load_algebra(path)
    want = reference_defects(alg, bracket_pairs(alg))
    assert algebra.fundamental_identity_defects(alg, bracket_pairs(alg)) == want
    assert check_hom_nambu_identity(alg) == want


def test_identity_defects_match_the_expansion_on_every_yau_twist():
    # each twist of filippov_n3 satisfies the identity; its twisted
    # bracket under the identity twist in general does not
    base = load_algebra(FIXDIR / "filippov_n3.alg")
    twists = [rho for rho in signed_permutation_automorphisms(base) if rho != linalg.eye(4)]
    assert len(twists) == 191
    failing = 0
    for rho in twists:
        twisted = yau_twist(base, rho)
        for alg in (twisted, HomNambuAlgebra(4, 3, twisted.coeffs)):
            want = reference_defects(alg, bracket_pairs(alg))
            assert algebra.fundamental_identity_defects(alg, bracket_pairs(alg)) == want
            failing += bool(want)
    assert failing > 0


@pytest.mark.parametrize("path", sorted(FIXDIR.glob("*.alg")), ids=lambda p: p.stem)
def test_deformation_residuals_match_the_expansion(path, monkeypatch):
    # every degree-1 adjoint cocycle, fused and split, and a random
    # equivariant cochain of each mode, which need not be a cocycle
    from homnambu import adjoint_cohomology
    from homnambu.cochains import Cochain, CochainSpace

    alg = load_algebra(path)
    for mode in ("fused", "split"):
        space = CochainSpace(alg, 1, "adjoint", mode)
        # Z as the report reads it; perturbed_n3 has no report, since d d != 0
        cocycles = linalg.kernel_basis(linalg.stack(
            adjoint_cohomology.coboundary_matrix(alg, 1, mode),
            adjoint_cohomology.equivariance_matrix(alg, 1, mode),
        ))
        cochains = [Cochain.from_coordinates(space, row) for row in cocycles.rows]
        cochains.append(adjoint_cohomology.random_equivariant_cochain(alg, 1, random.Random(3), mode))
        for psi in cochains:
            got = adjoint_cohomology.deformation_residuals(alg, psi)
            with monkeypatch.context() as m:
                m.setattr(algebra, "fundamental_identity_defects", reference_defects)
                assert adjoint_cohomology.deformation_residuals(alg, psi) == got
