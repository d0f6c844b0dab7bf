"""Fundamental set, induced binary bracket, Hom-Leibniz verification."""

from fractions import Fraction
from pathlib import Path


from homnambu import fixtures
from homnambu.algebra import filippov_algebra, zero_algebra
from homnambu.fundamental import (
    build_fundamental,
    check_hom_leibniz,
    check_l_compatibility,
    fundamental_of,
    l_action_sparse,
    wedge_of_vectors,
)
from homnambu.formats import load_algebra
from homnambu.indices import sort_with_sign, sv_add, sv_to_dense, wedge_basis

ONE = Fraction(1)
FIXDIR = Path(__file__).resolve().parent.parent / "fixtures"


def e(d, i):
    return tuple(Fraction(int(j == i)) for j in range(d))


def _setup(alg):
    wedge = wedge_basis(alg.dim, alg.arity - 1)
    windex = {t: i for i, t in enumerate(wedge)}
    return wedge, windex


def test_l_action_zero_wedge():
    alg = fixtures.filippov_n3()
    wedge, _ = _setup(alg)
    assert l_action_sparse(alg, wedge, {}, {0: ONE}) == {}


def _l_action(alg, factors, z):
    """L(x).z on the wedge of ``factors``, all basis indices, densely."""
    wedge, windex = _setup(alg)
    x = wedge_of_vectors(windex, [{i: ONE} for i in factors])
    return sv_to_dense(l_action_sparse(alg, wedge, x, {z: ONE}), alg.dim)


def test_l_action_matches_bracket():
    alg = fixtures.filippov_n3()
    assert _l_action(alg, (0, 1), 2) == tuple(alg.bracket_basis((0, 1, 2)))


def test_l_action_repeated_factor():
    alg = fixtures.filippov_n3()
    assert _l_action(alg, (1, 1), 2) == alg.zero_vector()


def test_fundamental_bracket_zero_right():
    alg = fixtures.filippov_n3()
    assert fundamental_of(alg).bracket_sparse({0: ONE}, {}) == {}


def test_fundamental_bracket_term_expansion():
    # [e1^e2, e3^e4] = [e1,e2,e3]^e4 + e3^[e1,e2,e4], expanded by hand
    alg = fixtures.filippov_n3()
    _, windex = _setup(alg)
    x = wedge_of_vectors(windex, [{0: ONE}, {1: ONE}])
    y = wedge_of_vectors(windex, [{2: ONE}, {3: ONE}])
    got = fundamental_of(alg).bracket_sparse(x, y)
    b123 = {i: v for i, v in enumerate(alg.bracket_basis((0, 1, 2))) if v}
    b124 = {i: v for i, v in enumerate(alg.bracket_basis((0, 1, 3))) if v}
    expected = {}
    for k, v in wedge_of_vectors(windex, [b123, {3: ONE}]).items():
        expected[k] = expected.get(k, 0) + v
    for k, v in wedge_of_vectors(windex, [{2: ONE}, b124]).items():
        expected[k] = expected.get(k, 0) + v
    expected = {k: v for k, v in expected.items() if v}
    assert got == expected


def test_fundamental_bracket_skew_left_factor():
    alg = fixtures.filippov_n3()
    _, windex = _setup(alg)
    y = wedge_of_vectors(windex, [{0: ONE}, {2: ONE}])
    assert fundamental_of(alg).bracket_sparse({}, y) == {}


def test_build_fundamental_zero_bracket():
    alg = zero_algebra(4, 3, fixtures.rotation_twist_4d())
    fund = build_fundamental(alg)
    assert fund.dim == 6
    assert all(not cell for row in fund.table for cell in row)
    # twist columns are the wedge square of the twist
    x = fund.twist_sparse({fund.index[(0, 1)]: ONE})
    # a(e1)^a(e2) = e2 ^ -e1 = e1^e2... with the rotation twist
    assert x == {fund.index[(0, 1)]: ONE}


def test_build_fundamental_n2_is_algebra_itself():
    alg = fixtures.sl2()
    fund = build_fundamental(alg)
    assert fund.dim == 3
    for i in range(3):
        for j in range(3):
            got = fund.table[i][j]
            want = alg.bracket_basis_sparse((i, j))
            assert got == want
    assert fund.twist_matrix() == alg.twist


def test_fundamental_filippov_is_hom_leibniz():
    alg = fixtures.filippov_n3()
    fund = build_fundamental(alg)
    assert fund.dim == 6
    assert check_hom_leibniz(fund) == []


def test_fundamental_twisted_is_hom_leibniz():
    for alg in (
        fixtures.twisted_filippov_rotation(),
        fixtures.twisted_filippov_reflection(),
        fixtures.volume_form_d3_twisted(),
        filippov_algebra(4, [1, -1, 1, 1, -1]),
    ):
        assert check_hom_leibniz(build_fundamental(alg)) == []


def test_corrupted_constants_fail_hom_leibniz():
    alg = fixtures.filippov_n3()
    fund = build_fundamental(alg)
    i = fund.index[(0, 1)]
    j = fund.index[(2, 3)]
    fund.table[i][j] = {0: Fraction(1)}
    assert check_hom_leibniz(fund)


def test_l_compatibility_zero_bracket():
    assert check_l_compatibility(zero_algebra(3, 3)) == []


def test_l_compatibility_fixtures():
    for alg in (
        fixtures.filippov_n3(),
        fixtures.twisted_filippov_rotation(),
        fixtures.volume_form_d3_twisted(),
    ):
        assert check_l_compatibility(alg) == []


def _l_compatibility_by_brackets(alg):
    """The L-compatibility violations with every L(x).z evaluated from the
    structure constants by :func:`l_action_sparse`, independently of the
    tables of the fundamental algebra."""
    fund = fundamental_of(alg)
    wedge = fund.basis
    alpha_cols = [alg.twist_column_sparse(i) for i in range(alg.dim)]
    units = [{i: ONE} for i in range(len(wedge))]
    violations = []
    for i in range(len(wedge)):
        ax = fund.twist_sparse(units[i])
        for j in range(len(wedge)):
            ay = fund.twist_sparse(units[j])
            xy = fund.bracket_sparse(units[i], units[j])
            for z in range(alg.dim):
                az = alpha_cols[z]
                lhs = l_action_sparse(alg, wedge, xy, az)
                rhs = l_action_sparse(
                    alg, wedge, ax, l_action_sparse(alg, wedge, units[j], {z: ONE})
                )
                for key, v in l_action_sparse(
                    alg, wedge, ay, l_action_sparse(alg, wedge, units[i], {z: ONE})
                ).items():
                    sv_add(rhs, key, -v)
                diff = dict(lhs)
                for key, v in rhs.items():
                    sv_add(diff, key, -v)
                if diff:
                    violations.append((i, j, z, diff))
    return violations


def test_l_compatibility_matches_bracket_oracle():
    # every fixture file, the perturbed one (which fails) included
    failing = {}
    for path in sorted(FIXDIR.glob("*.alg")):
        alg = load_algebra(path)
        got = check_l_compatibility(alg)
        assert got == _l_compatibility_by_brackets(alg), path.name
        if got:
            failing[path.stem] = len(got)
    assert failing == {"perturbed_n3": 18}


def _non_skew_pairs(fund):
    out = []
    for i in range(fund.dim):
        for j in range(fund.dim):
            flipped = {k: -v for k, v in fund.table[j][i].items()}
            if fund.table[i][j] != flipped:
                out.append((i, j))
    return out


def test_fundamental_bracket_symmetry_status():
    # the induced bracket is Leibniz, not Lie: skewness is a property of
    # the example, not a law. Recorded outcomes: the Filippov fixture
    # happens to be skew; the solvable d=4 fixture is not, e.g.
    # [e1^e2, e3^e4] = [e1,e2,e3]^e4 = e1^e4 while [e3^e4, e1^e2] = 0.
    skew_fund = build_fundamental(fixtures.filippov_n3())
    assert _non_skew_pairs(skew_fund) == []

    alg = fixtures.solvable_d4()
    from homnambu.algebra import validate

    assert not any(validate(alg).values())
    fund = build_fundamental(alg)
    pairs = _non_skew_pairs(fund)
    assert pairs
    i, j = fund.index[(0, 1)], fund.index[(2, 3)]
    assert fund.table[i][j] == {fund.index[(0, 3)]: ONE}
    assert fund.table[j][i] == {}
    assert check_hom_leibniz(fund) == []


def test_n2_leibniz_check_reduces_to_jacobi():
    # at arity 2 with identity twist, the fundamental algebra is the
    # algebra itself and the Leibniz identity is the Jacobi identity
    import itertools

    from homnambu.algebra import HomNambuAlgebra, bracket_eval

    def jacobi_violations(alg):
        out = []
        basis = [alg.basis_vector(i) for i in range(alg.dim)]
        for i, j, k in itertools.combinations(range(alg.dim), 3):
            total = [Fraction(0)] * alg.dim
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                term = bracket_eval(alg, [bracket_eval(alg, [basis[a], basis[b]]), basis[c]])
                total = [x + y for x, y in zip(total, term)]
            if any(total):
                out.append((i, j, k))
        return out

    good = fixtures.sl2()
    assert jacobi_violations(good) == []
    assert check_hom_leibniz(build_fundamental(good)) == []

    bad = HomNambuAlgebra(3, 2, {(0, 1): (0, 2, 0), (0, 2): (0, 0, -2), (1, 2): (1, 1, 0)})
    assert bool(jacobi_violations(bad)) == bool(check_hom_leibniz(build_fundamental(bad)))
    assert jacobi_violations(bad)


def test_wedge_canonicalization_involution():
    # re-sorting an already canonical tuple is the identity, and
    # re-expressing any permutation twice returns the original sign
    for t in ((0, 1), (2, 3), (1, 3)):
        canon, sign = sort_with_sign(t)
        assert canon == t and sign == 1
    perm = (3, 1)
    canon, sign = sort_with_sign(perm)
    back, sign2 = sort_with_sign(canon)
    assert back == canon and sign2 == 1 and sign == -1
