"""Tensor fundamental algebra, Leibniz coboundary, the lift, commuting square."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from homnambu import fixtures, linalg
from homnambu.adjoint_cohomology import (
    equivariant_matrix_space,
    random_equivariant_cochain,
)
from homnambu.algebra import HomNambuAlgebra, is_valid, zero_algebra
from homnambu.cochains import Cochain, CochainSpace, apply_coboundary, coboundary_matrix
from homnambu.derivations import adjoint_representation
from homnambu.bridge import (
    bridge_coboundary,
    bridge_equivariance_violations,
    build_tensor_fundamental,
    check_commuting_square,
    delta_lift,
    delta_lift_ternary,
    leibniz_coboundary,
    leibniz_coboundary_matrix,
    pullback_wedge_cochain,
    random_bridge_cochain,
    tensor_fundamental_of,
    wedge_projection,
)
from homnambu.fundamental import check_hom_leibniz, fundamental_of, tensor_of_vectors
from homnambu.indices import exact_vec, expand, sv_add

ONE = Fraction(1)


def stored(coeffs):
    """Values as a cochain stores them: nonzero, integral entries as
    ints, keys in order."""
    return {key: vec for key, value in sorted(coeffs.items()) if (vec := exact_vec(value))}


def leibniz_cochain(leib, p, coeffs):
    """A degree-p cochain of the Leibniz algebra ``leib`` with values in it."""
    return Cochain(CochainSpace(leib.source, p, "adjoint", "leibniz"), stored(coeffs))


def bridge_cochain(alg, p, coeffs):
    """A cochain on p tensor blocks plus one algebra slot, algebra-valued."""
    return Cochain(CochainSpace(alg, p, "adjoint", "tensor"), stored(coeffs))


def equivariant_matrix_cochain(alg, leib, rng):
    """Degree-0 cochain: a random combination of the twist's commutant,
    whose row-major entry r*d + c goes to row r of the column at key (c,)."""
    basis = equivariant_matrix_space(alg)
    cols = {}
    for v in basis.vectors:
        c = Fraction(rng.randint(-2, 2))
        if c:
            for i, x in enumerate(v):
                sv_add(cols.setdefault((i % alg.dim,), {}), i // alg.dim, c * x)
    return bridge_cochain(alg, 0, cols)


def test_tensor_fundamental_ternary_display():
    alg = fixtures.filippov_n3()
    leib = build_tensor_fundamental(alg)
    # [e1 x e2, e3 x e4] = [e1,e2,e3] x e4 + e3 x [e1,e2,e4] at twist id
    got = leib.table[leib.index[(0, 1)]][leib.index[(2, 3)]]
    expected = {}
    b123 = alg.bracket_basis((0, 1, 2))
    b124 = alg.bracket_basis((0, 1, 3))
    for i, v in enumerate(b123):
        if v:
            expected[leib.index[(i, 3)]] = expected.get(leib.index[(i, 3)], 0) + v
    for i, v in enumerate(b124):
        if v:
            expected[leib.index[(2, i)]] = expected.get(leib.index[(2, i)], 0) + v
    assert got == {k: v for k, v in expected.items() if v}


def test_tensor_fundamental_zero_bracket():
    leib = build_tensor_fundamental(zero_algebra(3, 3))
    assert all(not cell for row in leib.table for cell in row)
    assert leib.dim == 9


def test_tensor_fundamental_is_hom_leibniz():
    for alg in (
        fixtures.filippov_n3(),
        fixtures.twisted_filippov_rotation(),
        fixtures.volume_form_d3_twisted(),
        fixtures.solvable_d4(),
    ):
        assert check_hom_leibniz(build_tensor_fundamental(alg)) == []


def test_wedge_quotient_consistency():
    # antisymmetrizing tensor brackets reproduces the wedge brackets
    for alg in (fixtures.filippov_n3(), fixtures.twisted_filippov_rotation()):
        leib_t = build_tensor_fundamental(alg)
        fund = fundamental_of(alg)
        proj = wedge_projection(alg, leib_t)
        for i, j in itertools.product(range(leib_t.dim), repeat=2):
            pi, pj = proj[i], proj[j]
            if not pi or not pj:
                continue
            projected = {}
            for k, v in leib_t.table[i][j].items():
                for w, c in proj[k].items():
                    projected[w] = projected.get(w, 0) + v * c
            projected = {k: v for k, v in projected.items() if v}
            (wi, si), = pi.items()
            (wj, sj), = pj.items()
            expected = {
                k: si * sj * v for k, v in fund.table[wi][wj].items()
            }
            assert projected == expected


def test_leibniz_coboundary_zero_cochain():
    alg = fixtures.filippov_n3()
    leib = tensor_fundamental_of(alg)
    assert not leibniz_coboundary(leib, leibniz_cochain(leib, 1, {})).coeffs


def test_leibniz_coboundary_zero_bracket():
    leib = build_tensor_fundamental(zero_algebra(3, 3))
    rng = random.Random(0)
    alg = zero_algebra(3, 3)
    phi = leibniz_cochain(
        leib, 1, {(i,): {j: ONE} for i in range(leib.dim) for j in range(leib.dim) if i == j}
    )
    assert not leibniz_coboundary(leib, phi).coeffs


def test_leibniz_degree0_rule():
    alg = fixtures.filippov_n3()
    leib = tensor_fundamental_of(alg)
    c = {leib.index[(0, 1)]: ONE}
    out = leibniz_coboundary(leib, leibniz_cochain(leib, 0, {(): c}))
    for a in range(leib.dim):
        expected = {k: -v for k, v in leib.bracket_sparse(c, {a: ONE}).items()}
        assert out.coeffs.get((a,), {}) == expected


def test_leibniz_d_squared_zero_matrix_composition():
    # exact operator composition on the 9-dim twisted tensor algebra
    alg = fixtures.volume_form_d3_twisted()
    leib = build_tensor_fundamental(alg)
    m1 = leibniz_coboundary_matrix(leib, 1)
    m2 = leibniz_coboundary_matrix(leib, 2)
    assert linalg.is_zero_matrix(linalg.sparse_matmul(m2, m1))


def test_leibniz_d_squared_zero_pointwise_filippov():
    alg = fixtures.filippov_n3()
    leib = tensor_fundamental_of(alg)
    rng = random.Random(8)
    for _ in range(3):
        keys = [
            (rng.randrange(leib.dim), rng.randrange(leib.dim))
            for _ in range(5)
        ]
        phi = leibniz_cochain(
            leib, 2, {k: {rng.randrange(leib.dim): Fraction(rng.randint(1, 3))} for k in keys}
        )
        assert not leibniz_coboundary(leib, leibniz_coboundary(leib, phi)).coeffs


def test_delta_lift_identity_degree0():
    alg = fixtures.filippov_n3()
    leib = tensor_fundamental_of(alg)
    phi = bridge_cochain(alg, 0, {(z,): {z: ONE} for z in range(4)})
    lifted = delta_lift(phi)
    for a in range(leib.dim):
        assert lifted.coeffs[(a,)] == {a: Fraction(2)}


def test_delta_lift_zero():
    alg = fixtures.filippov_n3()
    leib = tensor_fundamental_of(alg)
    assert not delta_lift(bridge_cochain(alg, 1, {})).coeffs


def test_ternary_lift_paths_agree():
    rng = random.Random(14)
    for alg in (fixtures.filippov_n3(), fixtures.twisted_filippov_rotation()):
        leib = tensor_fundamental_of(alg)
        for p in (0, 1, 2):
            phi = random_bridge_cochain(alg, leib, p, rng)
            assert delta_lift(phi).coeffs == delta_lift_ternary(phi).coeffs


def test_commuting_square_zero_cochain():
    alg = fixtures.filippov_n3()
    leib = tensor_fundamental_of(alg)
    holds, residuals = check_commuting_square(bridge_cochain(alg, 1, {}))
    assert holds and not residuals


def test_commuting_square_zero_bracket_any_cochain():
    alg = zero_algebra(3, 3)
    leib = tensor_fundamental_of(alg)
    rng = random.Random(3)
    phi = random_bridge_cochain(alg, leib, 1, rng)
    holds, _ = check_commuting_square(phi)
    assert holds


def test_commuting_square_identity_twist_random():
    rng = random.Random(23)
    for alg in (fixtures.filippov_n3(), fixtures.volume_form_d3()):
        leib = tensor_fundamental_of(alg)
        for p in (0, 1):
            phi = random_bridge_cochain(alg, leib, p, rng)
            holds, residuals = check_commuting_square(phi)
            assert holds, (alg.dim, p, len(residuals))


def test_commuting_square_twisted_equivariant():
    rng = random.Random(29)
    for alg in (fixtures.twisted_filippov_rotation(), fixtures.volume_form_d3_twisted()):
        leib = tensor_fundamental_of(alg)
        phi0 = equivariant_matrix_cochain(alg, leib, rng)
        assert bridge_equivariance_violations(phi0) == []
        holds, _ = check_commuting_square(phi0)
        assert holds
        psi = random_equivariant_cochain(alg, 1, rng)
        phi1 = pullback_wedge_cochain(alg, leib, psi)
        assert bridge_equivariance_violations(phi1) == []
        holds, _ = check_commuting_square(phi1)
        assert holds


def test_commuting_square_degree2_small_fixture():
    rng = random.Random(31)
    alg = fixtures.volume_form_d3_twisted()
    leib = tensor_fundamental_of(alg)
    psi = random_equivariant_cochain(alg, 2, rng)
    phi = pullback_wedge_cochain(alg, leib, psi)
    holds, _ = check_commuting_square(phi)
    assert holds


def test_commuting_square_reports_a_tampered_lift():
    # a residual table, built only when the sides differ, is the one the
    # key-by-key loop below builds
    rng = random.Random(41)
    alg = fixtures.filippov_n3()
    leib = tensor_fundamental_of(alg)
    phi = random_bridge_cochain(alg, leib, 1, rng)
    lifted = delta_lift(phi)
    assert check_commuting_square(phi, lifted) == (True, {})
    key = lifted.space.keys[0]
    value = {r: Fraction(v) for r, v in lifted.coeffs.get(key, {}).items()}
    sv_add(value, 0, ONE)
    tampered = Cochain(lifted.space, stored({**lifted.coeffs, key: value}))
    holds, residuals = check_commuting_square(phi, tampered)
    lhs = leibniz_coboundary(leib, tampered)
    rhs = delta_lift(bridge_coboundary(phi))
    want = {}
    for k in set(lhs.coeffs) | set(rhs.coeffs):
        diff = dict(lhs.coeffs.get(k, {}))
        for r, v in rhs.coeffs.get(k, {}).items():
            sv_add(diff, r, -v)
        if diff:
            want[k] = diff
    assert not holds
    assert want and residuals == want


def test_lift_kills_double_coboundary():
    # lift(delta(delta phi)) = d(d(lift ...)) = 0 without assuming
    # delta^2 itself vanishes on the full tensor space
    rng = random.Random(37)
    alg = fixtures.twisted_filippov_rotation()
    leib = tensor_fundamental_of(alg)
    phi = equivariant_matrix_cochain(alg, leib, rng)
    ddphi = bridge_coboundary(bridge_coboundary(phi))
    assert not delta_lift(ddphi).coeffs


def test_bridge_coboundary_matches_wedge_complex_on_pullbacks():
    # the four-term operator on tensor blocks agrees with the wedge-space
    # operator after antisymmetrization
    rng = random.Random(41)
    for alg in (fixtures.filippov_n3(), fixtures.twisted_filippov_rotation()):
        leib = tensor_fundamental_of(alg)
        psi = random_equivariant_cochain(alg, 1, rng)
        lhs = bridge_coboundary(pullback_wedge_cochain(alg, leib, psi))
        dpsi = apply_coboundary(adjoint_representation(alg), psi, out_mode="split")
        rhs = pullback_wedge_cochain(alg, leib, dpsi)
        assert lhs.coeffs == rhs.coeffs


def test_random_cochain_not_equivariant_on_twisted():
    alg = fixtures.twisted_filippov_rotation()
    leib = tensor_fundamental_of(alg)
    rng = random.Random(43)
    phi = random_bridge_cochain(alg, leib, 1, rng)
    assert bridge_equivariance_violations(phi)
    # degree 0 runs the same loop, over the keys (z,)
    phi0 = random_bridge_cochain(alg, leib, 0, rng)
    bad = bridge_equivariance_violations(phi0)
    assert bad and all(len(key) == 1 and key[0] in range(alg.dim) for key in bad)


def test_tensor_mode_operator_is_the_bridge_coboundary():
    # the tensor-mode matrix and the pointwise evaluator are one operator,
    # and the equivariance rows flag exactly the keys where
    # a . phi(args, z) != phi(a args, a z) at basis arguments
    rng = random.Random(61)
    twisted, sl2 = fixtures.twisted_filippov_rotation(), fixtures.sl2()
    cases = [(twisted, 0), (twisted, 1), (sl2, 0), (sl2, 1), (zero_algebra(3, 3), 2)]
    for alg, p in cases:
        d = alg.dim
        leib = tensor_fundamental_of(alg)
        phi = random_bridge_cochain(alg, leib, p, rng)
        m = coboundary_matrix(alg, adjoint_representation(alg), p, "tensor")
        dphi = bridge_coboundary(phi)
        assert linalg.sparse_mat_vec(m, phi.to_flat()) == dphi.to_flat(), (alg.dim, alg.arity, p)
        assert dphi.coeffs or not alg.coeffs
        alpha = [alg.twist_power(1).column(i) for i in range(d)]
        expected = []
        for *args, z in phi.space.keys:
            lhs = {}
            for c, v in phi.evaluate([{a: ONE} for a in args], {z: ONE}).items():
                for r, w in alpha[c].items():
                    sv_add(lhs, r, v * w)
            if lhs != phi.evaluate([leib.twist_cols[a] for a in args], alpha[z]):
                expected.append((*args, z))
        assert bridge_equivariance_violations(phi) == expected
        assert expected or alg is not twisted


def scaled(phi, c):
    """The bridge cochain c * phi."""
    coeffs = {k: {r: c * v for r, v in vec.items()} for k, vec in phi.coeffs.items()}
    return Cochain(phi.space, coeffs)


def rescaled_basis(alg, k, s):
    """The same algebra in the basis where e_k is replaced by s * e_k."""
    scale = [Fraction(1)] * alg.dim
    scale[k] = Fraction(s)
    coeffs = {}
    for key, value in alg.coeffs.items():
        w = math.prod(scale[i] for i in key)
        coeffs[key] = tuple(w * v / scale[r] for r, v in enumerate(value))
    twist = linalg.zeros(alg.dim, alg.dim)
    for r, c in itertools.product(range(alg.dim), repeat=2):
        twist.add(r, c, alg.twist[r, c] * scale[c] / scale[r])
    return HomNambuAlgebra(alg.dim, alg.arity, coeffs, twist)


def test_rational_cochain_values():
    # integral kernels meet Fraction cochain values: the square still
    # commutes and d(lift(phi / 3)) is exactly d(lift phi) / 3
    rng = random.Random(47)
    third = Fraction(1, 3)
    alg = fixtures.filippov_n3()
    leib = tensor_fundamental_of(alg)
    for p in (0, 1):
        phi = random_bridge_cochain(alg, leib, p, rng)
        phi3 = scaled(phi, third)
        holds, residuals = check_commuting_square(phi3)
        assert holds and not residuals
        d_lift = leibniz_coboundary(leib, delta_lift(phi)).coeffs
        d_lift3 = leibniz_coboundary(leib, delta_lift(phi3)).coeffs
        assert d_lift and set(d_lift3) == set(d_lift)
        for key, vec in d_lift.items():
            assert d_lift3[key] == {r: third * v for r, v in vec.items()}
        assert any(
            isinstance(v, Fraction) and v.denominator == 3
            for vec in d_lift3.values() for v in vec.values()
        )


def test_rational_structure_constants():
    # volume_d3_twisted with e_1 halved: [e1,e2,e3] = -e1 - e2 + e3/2
    alg = rescaled_basis(fixtures.volume_form_d3_twisted(), 0, Fraction(1, 2))
    assert is_valid(alg)
    assert alg.coeffs[(0, 1, 2)] == (-1, -1, Fraction(1, 2))
    leib = build_tensor_fundamental(alg)
    assert check_hom_leibniz(leib) == []
    assert any(
        isinstance(v, Fraction) and v.denominator == 2
        for row in leib.table for cell in row for v in cell.values()
    )
    rng = random.Random(53)
    phi0 = equivariant_matrix_cochain(alg, leib, rng)
    phi1 = pullback_wedge_cochain(alg, leib, random_equivariant_cochain(alg, 1, rng))
    for phi in (phi0, phi1, scaled(phi1, Fraction(1, 3))):
        assert delta_lift(phi).coeffs
        holds, residuals = check_commuting_square(phi)
        assert holds and not residuals
        assert delta_lift(phi).coeffs == delta_lift_ternary(phi).coeffs


def flat_leibniz(phi, dim):
    """Coordinates of a Leibniz cochain: component m of phi at the k-th
    lex-ordered tuple is entry k * dim + m (degree 0: the empty tuple)."""
    tuples = itertools.product(range(dim), repeat=phi.space.degree)
    return [phi.coeffs.get(t, {}).get(m, 0) for t in tuples for m in range(dim)]


def test_leibniz_matrix_agrees_with_pointwise():
    rng = random.Random(59)
    for alg in (fixtures.volume_form_d3_twisted(), zero_algebra(3, 3)):
        leib = build_tensor_fundamental(alg)
        assert leib.dim == 9
        for p in (0, 1, 2):
            m = leibniz_coboundary_matrix(leib, p)
            for _ in range(3):
                coeffs = {
                    tuple(rng.randrange(9) for _ in range(p)): {
                        rng.randrange(9): Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                    }
                    for _ in range(12 if p else 1)
                }
                phi = leibniz_cochain(leib, p, coeffs)
                via_matrix = linalg.sparse_mat_vec(m, flat_leibniz(phi, 9))
                pointwise = leibniz_coboundary(leib, phi)
                assert list(via_matrix) == flat_leibniz(pointwise, 9)


# -- slow literal references for the scattered kernels ------------------------


def reference_leibniz_coboundary(leib, phi):
    """(d phi)(a_1, ..., a_{p+1}) at every basis tuple, term by term as
    the bridge docstring writes it (1-based k, j), with phi extended
    multilinearly and the twist powers applied to basis vectors."""
    p = phi.space.degree

    def phi_at(vectors):
        out = {}
        for ids, w in expand(vectors):
            for r, v in phi.coeffs.get(ids, {}).items():
                sv_add(out, r, w * v)
        return out

    def x(a):  # a^(p-1)(b_a); a^0 in degree 0, where (d phi)(a) = -[phi, a]
        vec = {a: 1}
        for _ in range(max(p - 1, 0)):
            vec = leib.twist_sparse(vec)
        return vec

    out = {}
    for args in itertools.product(range(leib.dim), repeat=p + 1):
        e = [{a: 1} for a in args]
        total = {}
        for k in range(1, p + 1):
            rest = e[:k - 1] + e[k:]
            for r, v in leib.bracket_sparse(x(args[k - 1]), phi_at(rest)).items():
                sv_add(total, r, (-1) ** (k - 1) * v)
        for r, v in leib.bracket_sparse(phi_at(e[:p]), x(args[p])).items():
            sv_add(total, r, (-1) ** (p + 1) * v)
        for k in range(1, p + 2):
            for j in range(k + 1, p + 2):
                vecs = [leib.twist_sparse(e[i]) for i in range(p + 1) if i != k - 1]
                vecs[j - 2] = leib.bracket_sparse(e[k - 1], e[j - 1])
                for r, v in phi_at(vecs).items():
                    sv_add(total, r, (-1) ** k * v)
        if total:
            out[args] = total
    return out


def reference_lift(phi):
    """(lift phi)(a_1, ..., a_p, x^1 x ... x x^(n-1)) at every basis
    tuple: sum_i a^p(x^1) x ... x phi(a_1, ..., a_p, x^i) x ... x a^p(x^(n-1))."""
    alg, p = phi.space.alg, phi.space.degree
    leib = tensor_fundamental_of(alg)
    alpha_p = [alg.twist_power(p).column(i) for i in range(alg.dim)]
    out = {}
    for args in itertools.product(range(leib.dim), repeat=p):
        blocks = [{a: 1} for a in args]
        for t, block in enumerate(leib.basis):
            total = {}
            for i, xi in enumerate(block):
                factors = [alpha_p[y] for y in block]
                factors[i] = phi.evaluate(blocks, {xi: 1})
                for r, v in tensor_of_vectors(leib.index, factors).items():
                    sv_add(total, r, v)
            if total:
                out[args + (t,)] = total
    return out


def random_value(rng, dim, rational):
    vec = {r: Fraction(rng.randint(-3, 3), rng.randint(1, 3) if rational else 1)
           for r in range(dim) if rng.random() < 0.4}
    return {r: (v if rational else int(v)) for r, v in vec.items() if v}


REFERENCE_ALGEBRAS = {
    "filippov_n3": fixtures.filippov_n3,
    "twisted_filippov_rotation": fixtures.twisted_filippov_rotation,
    "volume_form_d3_twisted": fixtures.volume_form_d3_twisted,
    "zero_algebra_3_3": lambda: zero_algebra(3, 3),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_ALGEBRAS))
def test_scattered_kernels_match_literal_references(name):
    alg = REFERENCE_ALGEBRAS[name]()
    leib = tensor_fundamental_of(alg)
    rng = random.Random(67)
    for p in (0, 1, 2):
        for rational in (False, True):
            # a sparse Leibniz cochain on random p-tuples
            coeffs = {
                tuple(rng.randrange(leib.dim) for _ in range(p)):
                    random_value(rng, leib.dim, rational)
                for _ in range(10 if p else 1)
            }
            phi = leibniz_cochain(leib, p, {k: v for k, v in coeffs.items() if v})
            assert phi.coeffs
            assert leibniz_coboundary(leib, phi).coeffs == reference_leibniz_coboundary(leib, phi)
            # a bridge cochain on every key, and the Leibniz cochain it lifts to
            values = {}
            for args in itertools.product(range(leib.dim), repeat=p):
                for z in range(alg.dim):
                    if vec := random_value(rng, alg.dim, rational):
                        values[args + (z,)] = vec
            psi = bridge_cochain(alg, p, values)
            lifted = delta_lift(psi)
            assert lifted.coeffs == reference_lift(psi)
            assert delta_lift_ternary(psi).coeffs == lifted.coeffs
            if p < 2:  # the literal d of a degree-3 lift would visit dim^4 tuples
                assert leibniz_coboundary(leib, lifted).coeffs == reference_leibniz_coboundary(
                    leib, lifted
                )
