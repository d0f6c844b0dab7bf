"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a PASS line on success (run with ``pytest -s`` or
``-v`` to see them); every tolerance is exact zero.
"""

import itertools
import random
from fractions import Fraction


from homnambu import fixtures, linalg
from homnambu import adjoint_cohomology as ac
from homnambu import scalar_cohomology as sc
from homnambu.algebra import (
    bracket_eval,
    check_hom_nambu_identity,
    check_multiplicativity,
    check_skew_symmetry,
    filippov_algebra,
    signed_permutation_automorphisms,
    yau_twist,
)
from homnambu.bridge import (
    bridge_equivariance_violations,
    check_commuting_square,
    delta_lift,
    delta_lift_ternary,
    pullback_wedge_cochain,
    random_bridge_cochain,
    tensor_fundamental_of,
)
from homnambu.cochains import Cochain, CochainSpace, apply_coboundary
from homnambu.derivations import trivial_representation
from homnambu.fundamental import build_fundamental, check_hom_leibniz, check_l_compatibility
from homnambu.indices import sv_add, wedge_basis

ONE = Fraction(1)


def _ok(msg):
    print(f"PASS {msg}")


def test_criterion_01_filippov_validity():
    rng = random.Random(101)
    for n in (2, 3, 4):
        for _ in range(8):
            signs = [rng.choice((1, -1)) for _ in range(n + 1)]
            alg = filippov_algebra(n, signs)
            assert check_skew_symmetry(alg) == []
            assert check_hom_nambu_identity(alg) == []
    _ok("criterion 1: Filippov families valid for n in {2,3,4}, 8 random sign vectors each")


def test_criterion_02_yau_twist_soundness():
    alg = fixtures.filippov_n3()
    autos = signed_permutation_automorphisms(alg)
    assert len(autos) == 192
    for rho in autos:
        twisted = yau_twist(alg, rho)
        assert check_hom_nambu_identity(twisted) == []
        assert check_multiplicativity(twisted) == []
    _ok(f"criterion 2: all {len(autos)} signed-permutation twists validate exactly")


SCALAR_FIXTURES = [
    "filippov_n2",
    "filippov_n3",
    "filippov_n3_twisted",
    "filippov_n3_reflected",
    "filippov_n4",
    "sl2",
    "volume_d3_twisted",
    "solvable_d4",
    "zero_d3_n3",
]


def test_criterion_03_delta_squared_trivial_coefficients():
    table = fixtures.standard_fixtures()
    table["solvable_d4"] = fixtures.solvable_d4()
    count = 0
    for name in SCALAR_FIXTURES:
        alg = table[name]
        for p in (1, 2):
            lo = sc.coboundary_matrix(alg, p)
            hi = sc.coboundary_matrix(alg, p + 1)
            assert linalg.is_zero_matrix(linalg.sparse_matmul(hi, lo)), (name, p)
        count += 1
    assert count >= 5
    _ok(f"criterion 3: trivial-coefficient matrix(d(p+1)) . matrix(d(p)) = 0, p in {{1,2}}, {count} fixtures")


ADJOINT_FIXTURES = [
    "filippov_n3",
    "filippov_n3_twisted",
    "filippov_n3_reflected",
    "sl2",
    "volume_d3_twisted",
    "solvable_d4",
]


def test_criterion_04_delta_squared_adjoint_equivariant():
    table = fixtures.standard_fixtures()
    table["solvable_d4"] = fixtures.solvable_d4()
    for name in ADJOINT_FIXTURES:
        alg = table[name]
        for p in (1, 2):
            equi = ac.equivariant_basis(alg, p)
            lo = linalg.restrict_columns(ac.coboundary_matrix(alg, p), equi)
            hi = ac.coboundary_matrix(alg, p + 1)
            assert linalg.is_zero_matrix(linalg.sparse_matmul(hi, lo)), (name, p)
    _ok(
        "criterion 4: adjoint compositions vanish on the equivariant subspace, "
        f"p in {{1,2}}, {len(ADJOINT_FIXTURES)} fixtures"
    )


def test_criterion_05_h1_vanishing_with_potentials():
    alg = fixtures.twisted_filippov_rotation()
    report = sc.cohomology(alg, 1)
    assert report.dim_h == 0
    rng = random.Random(105)
    space = CochainSpace(alg, 1, "scalar")
    for _ in range(20):
        phi = Cochain.random(space, rng, span=6)
        psi = sc.filippov_potential([1, 1, 1, 1], fixtures.rotation_twist_4d(), phi)
        assert sc.apply_zero_coboundary(alg, psi).coeffs == phi.coeffs
        solved = sc.potential_by_solve(alg, phi)
        assert solved is not None
        assert sc.apply_zero_coboundary(alg, solved).coeffs == phi.coeffs
    _ok("criterion 5: H1(twisted Filippov) = 0; 20 random potentials with exactly zero residual")


def test_criterion_06_hom_leibniz_structure():
    count = 0
    for name, alg in fixtures.standard_fixtures().items():
        fund = build_fundamental(alg)
        assert check_hom_leibniz(fund) == [], name
        assert check_l_compatibility(alg) == [], name
        count += 1
    _ok(f"criterion 6: fundamental algebras of {count} fixtures pass the Leibniz identities")


def test_criterion_07_deformation_equivalence():
    alg = fixtures.filippov_n3()
    rng = random.Random(107)
    space = CochainSpace(alg, 1, "adjoint")
    d0 = ac.zero_coboundary_matrix(alg)
    matrix_space = ac.equivariant_matrix_space(alg)
    cocycles_seen = non_cocycles_seen = 0
    samples = []
    for i in range(12):
        samples.append(Cochain.random(space, rng))
    for flat0 in matrix_space.vectors[:8]:
        samples.append(Cochain.from_flat(space, linalg.sparse_mat_vec(d0, flat0)))
    assert len(samples) == 20
    for psi in samples:
        cocycle = not any(
            linalg.sparse_mat_vec(ac.coboundary_matrix(alg, 1, "fused", "split"), psi.to_flat())
        )
        residual_zero = not ac.deformation_residuals(alg, psi)
        assert cocycle == residual_zero
        assert ac.check_infinitesimal_deformation(alg, psi) == cocycle
        cocycles_seen += cocycle
        non_cocycles_seen += not cocycle
    assert cocycles_seen and non_cocycles_seen
    _ok(
        "criterion 7: cocycle condition and identity residual agree on 20 samples "
        f"({cocycles_seen} cocycles, {non_cocycles_seen} non-cocycles)"
    )


def test_criterion_08_central_extension_soundness():
    alg = fixtures.twisted_filippov_rotation()
    report = sc.cohomology(alg, 1)
    space = CochainSpace(alg, 1, "scalar")
    for flat in report.cocycle_basis.vectors:
        ext = sc.central_extension(alg, Cochain.from_flat(space, flat))
        assert check_skew_symmetry(ext) == []
        assert check_hom_nambu_identity(ext) == []
    # coboundary extensions are trivializable by an explicit basis change
    rng = random.Random(108)
    for _ in range(4):
        psi = tuple(Fraction(rng.randint(-4, 4)) for _ in range(4))
        phi = sc.apply_zero_coboundary(alg, psi)
        ext = sc.central_extension(alg, phi)
        triv = sc.central_extension(alg, Cochain.zero(space))
        t = sc.trivialization_map(alg, psi)
        for key in ext.coeffs | triv.coeffs:
            assert linalg.sparse_mat_vec(t, ext.bracket_basis(key)) == triv.bracket_basis(key)
        lam0 = tuple(linalg.sparse_mat_vec(alg.twist.T, psi))
        triv_shifted = sc.central_extension(alg, Cochain.zero(space), lam0)
        assert linalg.matmul(t, ext.twist) == linalg.matmul(triv_shifted.twist, t)
    _ok("criterion 8: all basis-cocycle extensions validate; coboundary extensions trivialize")


def test_criterion_09_commuting_square():
    rng = random.Random(109)
    checked = 0
    # identity twist: arbitrary cochains
    for alg in (fixtures.filippov_n3(), fixtures.volume_form_d3()):
        leib = tensor_fundamental_of(alg)
        for p in (0, 1):
            phi = random_bridge_cochain(alg, leib, p, rng)
            holds, residuals = check_commuting_square(phi)
            assert holds and not residuals
            checked += 1
    # genuine twists: equivariant cochains
    for alg in (fixtures.twisted_filippov_rotation(), fixtures.volume_form_d3_twisted()):
        leib = tensor_fundamental_of(alg)
        basis = ac.equivariant_matrix_space(alg)
        cols = {}  # row-major entry r*d + c goes to row r of column (c,)
        for v in basis.vectors:
            c = Fraction(rng.randint(-3, 3))
            if c:
                for i, x in enumerate(v):
                    sv_add(cols.setdefault((i % alg.dim,), {}), i // alg.dim, c * x)
        cols = {key: vec for key, vec in sorted(cols.items()) if vec}
        phi0 = Cochain(CochainSpace(alg, 0, "adjoint", "tensor"), cols)
        assert bridge_equivariance_violations(phi0) == []
        holds, _ = check_commuting_square(phi0)
        assert holds
        phi1 = pullback_wedge_cochain(alg, leib, ac.random_equivariant_cochain(alg, 1, rng))
        holds, _ = check_commuting_square(phi1)
        assert holds
        checked += 2
    # ternary and n-ary lift paths agree entry for entry
    alg = fixtures.twisted_filippov_rotation()
    leib = tensor_fundamental_of(alg)
    for p in (0, 1, 2):
        phi = random_bridge_cochain(alg, leib, p, rng)
        assert delta_lift(phi).coeffs == delta_lift_ternary(phi).coeffs
    _ok(f"criterion 9: commuting square exact on {checked} fixture/degree pairs; lift paths agree")


def _chevalley_eilenberg(alg, omega, args):
    """Hand-coded classical trivial-coefficient differential of a fully
    skew form given as {increasing tuple: value}."""
    from homnambu.indices import sort_with_sign

    def ev(vals):
        # multilinear evaluation of omega at basis-vector list with one
        # bracket-value vector allowed in any slot
        total = Fraction(0)
        for combo in itertools.product(*(range(alg.dim) for _ in vals)):
            coeff = ONE
            for slot, idx in enumerate(combo):
                coeff *= vals[slot][idx]
            if not coeff:
                continue
            canon, sign = sort_with_sign(combo)
            if sign:
                total += coeff * sign * omega.get(canon, Fraction(0))
        return total

    total = Fraction(0)
    q = len(args)
    basis = [alg.basis_vector(i) for i in range(alg.dim)]
    for i in range(q):
        for j in range(i + 1, q):
            sign = Fraction((-1) ** (i + 1 + j + 1))  # (-1)^(i+j), 1-based
            rest = [basis[args[t]] for t in range(q) if t not in (i, j)]
            bij = bracket_eval(alg, [basis[args[i]], basis[args[j]]])
            total += sign * ev([list(bij)] + rest)
    return total


def test_criterion_10_classical_reduction():
    alg = fixtures.sl2()
    rng = random.Random(110)
    for p in (1, 2):
        space = CochainSpace(alg, p, "scalar")
        # fully skew (p+1)-form, embedded as a cochain via canonical values
        omega = {
            t: Fraction(rng.randint(-5, 5)) for t in wedge_basis(3, p + 1)
        }
        coeffs = {}
        for key in space.keys:
            block_ids, z = space.decode_args(key)
            flatargs = [i for b in block_ids for i in space.wedge[b]] + [z]
            from homnambu.indices import sort_with_sign

            canon, sign = sort_with_sign(tuple(flatargs))
            if sign and canon in omega and omega[canon]:
                coeffs[key] = {0: sign * omega[canon]}
        phi = Cochain(space, coeffs)
        ours = apply_coboundary(trivial_representation(alg), phi, out_mode="split")
        out_space = ours.space
        for key in out_space.keys:
            block_ids, z = out_space.decode_args(key)
            flatargs = tuple([i for b in block_ids for i in out_space.wedge[b]] + [z])
            expected = _chevalley_eilenberg(alg, omega, flatargs)
            got = ours.value(block_ids, z).get(0, 0)
            assert got == expected, (p, flatargs)
    _ok("criterion 10: scalar complex equals the hand-coded classical differential entrywise")
