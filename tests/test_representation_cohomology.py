"""The coboundary with values in a representation: the standard
representation of sl2, the trivial representation on Q^2 and the
adjoint representation moved by a change of basis."""

import itertools
import math
import random
from fractions import Fraction
from functools import cache, partial
from pathlib import Path

import pytest

from homnambu import adjoint_cohomology, cochains, fixtures, linalg, scalar_cohomology
from homnambu.bridge import bridge_coboundary, tensor_fundamental_of
from homnambu.cochains import Cochain, CochainSpace
from homnambu.formats import load_algebra
from homnambu.fundamental import fundamental_of
from homnambu.indices import exact, exact_vec, expand, sv_add
from homnambu.algebra import HomNambuAlgebra, bracket_eval_sparse, is_valid
from homnambu.derivations import (
    RepresentationMap,
    adjoint_representation,
    check_rep_equivalence,
    check_representation,
    level_representation,
    trivial_representation,
)
from representations import sl2_standard


def operator(alg, rep, p, mode="fused", out_mode=None):
    """d: C^p -> C^(p+1) with values in rep, degree 0 included."""
    return cochains.coboundary_matrix(alg, rep, p, mode, out_mode)


def compatible(alg, rep, p):
    return linalg.kernel_basis(cochains.equivariance_matrix(alg, rep, p))


def dims(alg, rep, p, restrict):
    """(dim Z, dim B, dim H) of the shared report at p >= 2, inside the
    compatible cochains when ``restrict``."""
    compatibility = partial(cochains.equivariance_matrix, alg, rep) if restrict else None
    report = cochains.cohomology(
        p, "fused", partial(cochains.coboundary_matrix, alg, rep), compatibility
    )
    return report.dim_z, report.dim_b, report.dim_h


def d_squared_is_zero(alg, rep, p, restrict=False):
    first = operator(alg, rep, p)
    if restrict:
        first = linalg.restrict_columns(first, compatible(alg, rep, p))
    return linalg.is_zero_matrix(linalg.sparse_matmul(operator(alg, rep, p + 1), first))


def test_sl2_standard_representation_complex():
    alg = fixtures.sl2()
    rep = sl2_standard()
    assert check_representation(alg, rep) == []
    for p in (1, 2, 3):
        assert d_squared_is_zero(alg, rep, p)
    assert dims(alg, rep, 2, restrict=False) == (2, 2, 0)
    assert dims(alg, rep, 3, restrict=False) == (16, 16, 0)


def test_broken_representation_breaks_d_squared():
    alg = fixtures.sl2()
    rep = sl2_standard(f_scale=2)
    assert check_representation(alg, rep)
    assert not d_squared_is_zero(alg, rep, 2)


@pytest.mark.parametrize("name", ["twisted_filippov_rotation", "solvable_d4"])
def test_trivial_representation_on_q2_is_scalar_tensor_identity(name):
    alg = getattr(fixtures, name)()
    rep = RepresentationMap(arity=alg.arity, dim=2, rho={}, nu=linalg.eye(2))
    for p in (1, 2):
        scalar = scalar_cohomology.coboundary_matrix(alg, p)
        general = cochains.coboundary_matrix(alg, rep, p)
        assert (general.rows, general.cols) == (2 * scalar.rows, 2 * scalar.cols)
        expected = {
            (2 * r + i, 2 * c + i): v for (r, c), v in scalar.entries.items() for i in (0, 1)
        }
        assert general.entries == expected


def transported_adjoint(alg, seed):
    """The adjoint representation moved by a random invertible integer f:
    rho' = f rho f^-1 and nu' = f nu f^-1."""
    rng = random.Random(seed)
    d = alg.dim
    while True:
        f = linalg.mat([[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)])
        if linalg.rank(f) == d:
            break
    f_inv = linalg.mat(
        [linalg.solve(f, tuple(int(i == j) for i in range(d))) for j in range(d)]
    ).T
    adj = adjoint_representation(alg)

    def conj(m):
        return linalg.matmul(linalg.matmul(f, m), f_inv)

    rho = {key: conj(m) for key, m in adj.rho.items()}
    return adj, RepresentationMap(arity=alg.arity, dim=d, rho=rho, nu=conj(adj.nu)), f


@pytest.mark.parametrize("name", ["twisted_filippov_rotation", "solvable_d4"])
def test_transported_adjoint_is_a_complex(name):
    alg = getattr(fixtures, name)()
    adj, rep, f = transported_adjoint(alg, seed=0)
    assert check_rep_equivalence(adj, rep, f)
    for p in (1, 2):
        assert d_squared_is_zero(alg, rep, p, restrict=True)


def test_transported_adjoint_keeps_adjoint_dimensions():
    alg = fixtures.solvable_d4()
    _, rep, _ = transported_adjoint(alg, seed=0)
    report = adjoint_cohomology.cohomology(alg, 2)
    assert dims(alg, rep, 2, restrict=True) == (report.dim_z, report.dim_b, report.dim_h)
    assert dims(alg, rep, 2, restrict=True) == (15, 8, 7)
    # the adjoint report at p = 3 gives the same numbers
    assert dims(alg, rep, 3, restrict=True) == (102, 81, 21)


def test_integral_operators_have_int_entries():
    # integral structure constants keep assembly in int arithmetic; a
    # Fraction entry equal to an int would pass every golden file
    alg = fixtures.filippov_n3()
    for m in (
        scalar_cohomology.coboundary_matrix(alg, 2, "fused", "split"),
        adjoint_cohomology.coboundary_matrix(alg, 1),
        adjoint_cohomology.coboundary_matrix(alg, 1, "fused", "split"),
    ):
        assert m.entries
        assert all(type(v) is int for v in m.entries.values())


HALF = [Fraction(1, 2), Fraction(1), Fraction(1)]


def halved_e1(alg):
    """The same algebra in the basis where e_1 is replaced by e_1 / 2."""
    coeffs = {
        key: tuple(math.prod(HALF[i] for i in key) * v / HALF[r] for r, v in enumerate(value))
        for key, value in alg.coeffs.items()
    }
    twist = {(r, c): v * HALF[c] / HALF[r] for (r, c), v in alg.twist.entries.items()}
    return HomNambuAlgebra(alg.dim, alg.arity, coeffs, linalg.SparseMatrix(alg.dim, alg.dim, twist))


def halved_coordinates(alg, p, mode, dv):
    """Per coordinate of a degree-p cochain with dv value components, the
    factor that turns its coordinate over ``alg`` into the one over
    ``halved_e1(alg)``: the product of the argument scales, over the
    value's scale for adjoint values."""
    space = CochainSpace(alg, p, "scalar", mode)
    out = []
    for key in space.keys:
        blocks, z = space.decode_args(key)
        f = math.prod(HALF[i] for b in blocks for i in space.wedge[b]) * HALF[z]
        out += [f / HALF[r] if dv > 1 else f for r in range(dv)]
    return out


def test_operators_stay_exact_with_rational_structure_constants():
    base = fixtures.volume_form_d3_twisted()
    alg = halved_e1(base)
    assert is_valid(alg)
    assert alg.coeffs[(0, 1, 2)] == (-1, -1, Fraction(1, 2))
    for rep_of in (trivial_representation, adjoint_representation):
        rep, dv = rep_of(alg), rep_of(alg).dim
        for p in (1, 2):
            assert d_squared_is_zero(alg, rep, p, restrict=dv > 1)
        # the operator over alg is the one over base in rescaled coordinates
        for p, out_mode in ((1, "fused"), (2, "fused"), (2, "split"), (3, "fused")):
            f_in = halved_coordinates(base, p, "fused", dv)
            f_out = halved_coordinates(base, p + 1, out_mode, dv)
            moved = {
                (r, c): v * f_out[r] / f_in[c]
                for (r, c), v in operator(base, rep_of(base), p, "fused", out_mode).entries.items()
            }
            assert operator(alg, rep, p, "fused", out_mode).entries == moved
    # an isomorphic algebra: the same dimensions in every degree
    for p in (1, 2, 3):
        for module in (scalar_cohomology, adjoint_cohomology):
            got, want = module.cohomology(alg, p), module.cohomology(base, p)
            assert (got.dim_z, got.dim_b, got.dim_h) == (want.dim_z, want.dim_b, want.dim_h)


def zero_reference(alg, rep, mode):
    """Degree-0 operator from the pointwise formula, one unit psi at a time:
    (d psi)(x_1, ..., x_n) = sum_i (-1)^(n-i) rho(x_1, ..., ^x_i, ..., x_n) psi(x_i) - psi([x]).

    Returns ``{(r, c): column}`` for the psi with psi(e_c) = e_r, each
    column a sparse dict over the rows of the degree-1 space in ``mode``.
    """
    d, n, dv = alg.dim, alg.arity, rep.dim
    space = CochainSpace(alg, 1, "scalar", mode)
    columns = {}
    for r, c in itertools.product(range(dv), range(d)):
        column = {}
        for k, key in enumerate(space.keys):
            (block,), z = space.decode_args(key)
            args = space.wedge[block] + (z,)
            value = {}
            for i in range(n):
                if args[i] == c:
                    rho = rep.rho_basis(args[:i] + args[i + 1:])
                    for s in range(dv):
                        sv_add(value, s, (-1) ** (n - 1 - i) * rho[s, r])
            unit_args = [{t: 1} for t in args]
            sv_add(value, r, -bracket_eval_sparse(alg, unit_args).get(c, 0))
            column.update({k * dv + s: v for s, v in value.items()})
        columns[r, c] = column
    return columns


def as_matrix(columns, rows, position):
    """The matrix with ``columns[r, c]`` in column ``position(r, c)``."""
    entries = {(row, position(r, c)): v for (r, c), col in columns.items() for row, v in col.items()}
    return linalg.SparseMatrix(rows, len(columns), entries)


ZERO_FIXTURES = {
    "filippov_n3_twisted": fixtures.twisted_filippov_rotation,
    "solvable_d4": fixtures.solvable_d4,
    "sl2": fixtures.sl2,
    "volume_d3_twisted_rescaled": lambda: halved_e1(fixtures.volume_form_d3_twisted()),
}


@pytest.mark.parametrize("mode", ["fused", "split"])
@pytest.mark.parametrize("name", sorted(ZERO_FIXTURES))
def test_degree_zero_operator_matches_pointwise_formula(name, mode):
    alg = ZERO_FIXTURES[name]()
    d = alg.dim
    rows = CochainSpace(alg, 1, "scalar", mode).dim
    scalar = zero_reference(alg, trivial_representation(alg), mode)
    assert scalar_cohomology.zero_coboundary_matrix(alg, mode) == as_matrix(
        scalar, rows, lambda r, c: c
    )
    adjoint = zero_reference(alg, adjoint_representation(alg), mode)
    assert any(adjoint.values())
    assert adjoint_cohomology.zero_coboundary_matrix(alg, mode) == as_matrix(
        adjoint, rows * d, lambda r, c: r * d + c
    )
    assert operator(alg, adjoint_representation(alg), 0, mode) == as_matrix(
        adjoint, rows * d, lambda r, c: c * d + r
    )
    if name == "sl2":
        rep = sl2_standard()
        standard = zero_reference(alg, rep, mode)
        assert operator(alg, rep, 0, mode) == as_matrix(
            standard, rows * rep.dim, lambda r, c: c * rep.dim + r
        )
    space = CochainSpace(alg, 0, "adjoint", mode)
    assert space.keys == [(z,) for z in range(d)]
    assert (space.mode, space.dim) == ("split", d * d)


def induced_values(leib):
    """Every value of the bracket, twist and L-action tables."""
    cells = [cell for row in leib.table for cell in row] + leib.twist_cols
    cells += [cell for row in leib.l_action for cell in row]
    return [v for cell in cells for v in cell.values()]


def test_induced_tables_stay_integral():
    # Fraction(3) == 3, so only the types show a return to Fraction
    for alg in (fixtures.twisted_filippov_rotation(), fixtures.solvable_d4()):
        for leib in (fundamental_of(alg), tensor_fundamental_of(alg)):
            values = induced_values(leib)
            assert values and all(type(v) is int for v in values)
    # rational structure constants: non-integral values are kept, integral ones are ints
    alg = halved_e1(fixtures.volume_form_d3_twisted())
    for leib in (fundamental_of(alg), tensor_fundamental_of(alg)):
        values = induced_values(leib)
        assert any(type(v) is Fraction for v in values)
        assert all(type(v) is int or v.denominator > 1 for v in values)


# -- a slow literal gather of the four-term coboundary ------------------------


def _read(space, acc, blocks, z, op, sign):
    """Add sign * op(psi(blocks, z)) to ``acc = {in_key: {(r, c): v}}``;
    returns the number of (in_key, weight) pairs read."""
    if not op:
        return 0
    fn = space.functional(blocks, z)
    for key, w in fn.items():
        for rc, v in op.items():
            sv_add(acc.setdefault(key, {}), rc, sign * w * v)
    return len(fn)


def reference_rows(alg, rep, p, mode="fused", out_mode=None):
    """Per output key of the degree-p coboundary with values in rep, in
    key order, ``(key, {in_key: {(r, c): v}})``: the four terms of the
    cochains docstring summed at that key's argument, psi read through
    :meth:`CochainSpace.functional` (1-based i, j, s).  Also returns the
    number of (in_key, weight) pairs the terms read."""
    space_in = CochainSpace(alg, p, "scalar", mode)
    space_out = CochainSpace(alg, p + 1, "scalar", out_mode or mode)
    fund = (tensor_fundamental_of if space_out.mode == "tensor" else fundamental_of)(alg)
    n, dv = alg.arity, rep.dim
    alpha = [exact_vec(alg.twist_column_sparse(i)) for i in range(alg.dim)]
    alpha_p = [exact_vec(alg.twist_column_sparse(i, p)) for i in range(alg.dim)]
    units = [{b: 1} for b in range(fund.dim)]
    identity = {(r, r): 1 for r in range(dv)}

    @cache
    def rho(ids):  # rho(a^p(e_i), ...) over basis indices
        out = {}
        for idx, w in expand([alpha_p[t] for t in ids]):
            for rc, v in rep.rho_basis(idx).entries.items():
                sv_add(out, rc, w * exact(v))
        return out

    rows, pairs = [], 0
    for key in space_out.keys:
        xs, z = space_out.decode_args(key)
        acc = {}
        for i in range(1, p + 2):
            for j in range(i + 1, p + 2):  # d1
                blocks = [fund.twist_sparse(units[x]) for x in xs]
                blocks[j - 1] = fund.bracket_sparse(units[xs[i - 1]], units[xs[j - 1]])
                del blocks[i - 1]
                pairs += _read(space_in, acc, blocks, alpha[z], identity, (-1) ** i)
            rest = [fund.twist_sparse(units[x]) for k, x in enumerate(xs) if k != i - 1]
            lz = bracket_eval_sparse(alg, [{t: 1} for t in fund.basis[xs[i - 1]]] + [{z: 1}])
            pairs += _read(space_in, acc, rest, lz, identity, (-1) ** i)  # d2
            plain = [units[x] for k, x in enumerate(xs) if k != i - 1]
            op = rho(fund.basis[xs[i - 1]])
            pairs += _read(space_in, acc, plain, {z: 1}, op, (-1) ** (i + 1))  # d3
        y = fund.basis[xs[-1]]
        for s in range(1, n):  # d4
            op = rho(y[:s - 1] + y[s:] + (z,))
            pairs += _read(space_in, acc, [units[x] for x in xs[:-1]], {y[s - 1]: 1}, op,
                           (-1) ** (p + n - s))
        rows.append((key, acc))
    return space_in, space_out, rows, pairs


def reference_equivariance_rows(alg, rep, p, mode="fused"):
    """Per key, in key order, the row nu . psi(args) - psi(a args)."""
    space = CochainSpace(alg, p, "scalar", mode)
    fund = (tensor_fundamental_of if mode == "tensor" else fundamental_of)(alg)
    alpha = [exact_vec(alg.twist_column_sparse(i)) for i in range(alg.dim)]
    identity = {(r, r): 1 for r in range(rep.dim)}
    rows = []
    for key in space.keys:
        xs, z = space.decode_args(key)
        acc = {key: dict(rep.nu.entries)}
        _read(space, acc, [fund.twist_sparse({x: 1}) for x in xs], alpha[z], identity, -1)
        rows.append((key, acc))
    return space, space, rows


def reference_matrix(space_in, space_out, rows, dv):
    entries = {}
    for k, (_, acc) in enumerate(rows):
        for in_key, op in acc.items():
            col = space_in.index(in_key) * dv
            for (r, c), v in op.items():
                sv_add(entries, (k * dv + r, col + c), v)
    return linalg.SparseMatrix(len(rows) * dv, space_in.dim * dv, entries)


def reference_values(rows, values):
    """The rows applied to stored values, zero keys left out, key order."""
    out = {}
    for key, acc in rows:
        total = {}
        for in_key, op in acc.items():
            vec = values.get(in_key, {})
            for (r, c), v in op.items():
                sv_add(total, r, v * vec.get(c, 0))
        if total:
            out[key] = total
    return out


def reference_representations(name, alg):
    """The representations compared on a fixture, each with the highest
    degree of its operators (at most 1 in tensor mode)."""
    top = {"sl2": 4, "filippov_n3_twisted": 2, "volume_d3_twisted_rescaled": 3}[name]
    reps = [
        (trivial_representation(alg), top),
        (adjoint_representation(alg), top - 1 if top > 2 else top),
        (level_representation(alg, -1), 1),
        (level_representation(alg, 1), 1),
    ]
    if name == "sl2":
        reps.append((sl2_standard(), top - 1))
    return reps


SCATTER_FIXTURES = {
    "sl2": fixtures.sl2,
    "filippov_n3_twisted": fixtures.twisted_filippov_rotation,
    "volume_d3_twisted_rescaled": lambda: halved_e1(fixtures.volume_form_d3_twisted()),
}
MODES = [("fused", None), ("fused", "split"), ("split", None), ("tensor", None)]


@pytest.mark.parametrize("name", sorted(SCATTER_FIXTURES))
def test_scattered_operators_match_literal_gather(name):
    alg = SCATTER_FIXTURES[name]()
    integral = all(type(v) is int or v.denominator == 1 for value in alg.coeffs.values() for v in value)
    for rep, top in reference_representations(name, alg):
        for mode, out_mode in MODES:
            for p in range(min(top, 1) + 1 if mode == "tensor" else top + 1):
                space_in, space_out, rows, _ = reference_rows(alg, rep, p, mode, out_mode)
                got = cochains.coboundary_matrix(alg, rep, p, mode, out_mode)
                assert got == reference_matrix(space_in, space_out, rows, rep.dim), (mode, p)
                if integral:
                    assert all(type(v) is int for v in got.entries.values())
        for mode in ("fused", "split", "tensor"):
            for p in range(min(top, 2) + 1):
                space, _, rows = reference_equivariance_rows(alg, rep, p, mode)
                got = cochains.equivariance_matrix(alg, rep, p, mode)
                assert got == reference_matrix(space, space, rows, rep.dim), (mode, p)


def random_values(space, dv, rng):
    """Random integer and rational values on about half of the keys."""
    values = {}
    for key in space.keys:
        if rng.random() < 0.5:
            vec = {r: Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2))) for r in range(dv)}
            if vec := {r: v.numerator if v.denominator == 1 else v for r, v in vec.items() if v}:
                values[key] = vec
    return values


@pytest.mark.parametrize("name", sorted(SCATTER_FIXTURES))
def test_scattered_values_match_literal_gather(name):
    alg = SCATTER_FIXTURES[name]()
    rng = random.Random(5)
    violations = 0
    for rep, top in reference_representations(name, alg):
        for mode, out_mode in MODES:
            for p in range(min(top, 2)):
                space_in, _, rows, _ = reference_rows(alg, rep, p, mode, out_mode)
                values = random_values(space_in, rep.dim, rng)
                _, _, scatter = cochains.coboundary_scatter(alg, rep, p, mode, out_mode)
                got = cochains.scatter_values(values, scatter)
                assert list(got.items()) == list(reference_values(rows, values).items())
        for mode in ("fused", "split", "tensor"):
            space, _, rows = reference_equivariance_rows(alg, rep, 1, mode)
            values = random_values(space, rep.dim, rng)
            got = cochains.compatibility_violations(alg, rep, 1, mode, values)
            assert got == list(reference_values(rows, values))
            violations += len(got)
    assert violations or name == "sl2"  # the twist and nu of sl2 are the identity


def test_bridge_coboundary_matches_literal_gather():
    alg = fixtures.sl2()
    rng = random.Random(11)
    for p in (0, 1, 2):
        space_in, _, rows, _ = reference_rows(alg, adjoint_representation(alg), p, "tensor")
        values = random_values(space_in, alg.dim, rng)
        space = CochainSpace(alg, p, "adjoint", "tensor")
        got = bridge_coboundary(Cochain(space, values)).coeffs
        assert list(got.items()) == list(reference_values(rows, values).items())


def test_not_a_cocycle_reports_first_key_in_order():
    alg = fixtures.solvable_d4()
    rep = trivial_representation(alg)
    _, space_out, rows, _ = reference_rows(alg, rep, 1, "fused", "split")
    rng = random.Random(3)
    for _ in range(5):
        phi = Cochain.random(CochainSpace(alg, 1, "scalar"), rng)
        first = next(iter(reference_values(rows, phi.coeffs)))
        with pytest.raises(scalar_cohomology.NotACocycleError) as exc:
            scalar_cohomology.central_extension(alg, phi)
        b1, b2, z = first
        assert exc.value.triple == (
            tuple(i + 1 for i in space_out.wedge[b1]),
            tuple(i + 1 for i in space_out.wedge[b2]),
            z + 1,
        )


FIXDIR = Path(__file__).resolve().parent.parent / "fixtures"
SPLIT_CAP = 20_000  # coordinates of the split output space a fusion check builds


@pytest.mark.parametrize("path", sorted(FIXDIR.glob("*.alg")), ids=lambda path: path.stem)
def test_level_and_standard_coboundaries_preserve_fusion(path):
    alg = load_algebra(path)
    reps = {"level -1": level_representation(alg, -1), "level 1": level_representation(alg, 1)}
    if path.stem == "sl2":
        reps["standard"] = sl2_standard()
    for label, rep in reps.items():
        for p in range(4):
            if CochainSpace(alg, p + 1, rep, "split").dim <= SPLIT_CAP:
                assert cochains.coboundary_preserves_fusion(alg, rep, p), (label, p)


ANSWER_FIXTURES = {
    "filippov_n3": fixtures.filippov_n3,
    "filippov_n3_reflected": fixtures.twisted_filippov_reflection,
    "twisted_filippov_rotation": fixtures.twisted_filippov_rotation,
    "sl2": fixtures.sl2,
    "volume_d3_twisted": fixtures.volume_form_d3_twisted,
}


@pytest.mark.parametrize("name", sorted(ANSWER_FIXTURES))
def test_cocycles_are_the_kernel_of_the_pointwise_operator(name):
    # reports eliminate the fused-output operator; the split-output one
    # states d psi = 0 at every argument and must give the same RREF basis
    alg = ANSWER_FIXTURES[name]()
    for p in (1, 2):
        split = scalar_cohomology.coboundary_matrix(alg, p, "fused", "split")
        report = scalar_cohomology.cohomology(alg, p)
        assert report.cocycle_basis.vectors == linalg.kernel_basis(split).vectors, p
        split = linalg.stack(
            adjoint_cohomology.coboundary_matrix(alg, p, "fused", "split"),
            adjoint_cohomology.equivariance_matrix(alg, p),
        )
        report = adjoint_cohomology.cohomology(alg, p)
        assert report.cocycle_basis.vectors == linalg.kernel_basis(split).vectors, p


def test_reports_build_operators_into_their_own_mode(monkeypatch):
    built = []
    scatter_matrix = cochains.scatter_matrix

    def spy(space_in, space_out, *args):
        built.append((space_in.mode, (space_out.degree, space_out.mode)))
        return scatter_matrix(space_in, space_out, *args)

    monkeypatch.setattr(cochains, "scatter_matrix", spy)
    alg = fixtures.filippov_n3()
    reports = [(scalar_cohomology.cohomology, p) for p in (0, 1, 2)]
    reports += [(adjoint_cohomology.cohomology, p) for p in (1, 2)]
    for report, p in reports:
        built.clear()
        report(alg, p)
        assert built and all(out != (p + 1, "split") for _, out in built), (report, p)
    built.clear()
    scalar_cohomology.cohomology(alg, 2, "split")
    assert ("split", (3, "split")) in built


def test_scatter_reads_no_functional_and_no_more_than_the_gather(monkeypatch):
    alg = fixtures.filippov_n3()
    calls = [0]
    functional = CochainSpace.functional

    def counted(self, *args):
        calls[0] += 1
        return functional(self, *args)

    monkeypatch.setattr(CochainSpace, "functional", counted)
    scalar_cohomology.coboundary_matrix(alg, 2, "fused", "split")
    adjoint_cohomology.coboundary_matrix(alg, 2, "fused", "split")
    assert calls[0] == 0
    monkeypatch.undo()
    for rep in (trivial_representation(alg), adjoint_representation(alg)):
        *_, gathered = reference_rows(alg, rep, 2, "fused", "split")
        space_in, _, scatter = cochains.coboundary_scatter(alg, rep, 2, "fused", "split")
        scattered = 0
        for key in space_in.keys:
            scalars, maps = scatter(key)
            scattered += sum(1 for w in scalars.values() if w) + len(maps)
        assert 0 < scattered <= gathered
