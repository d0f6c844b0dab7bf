"""The sparse elimination engine against a plain dense reference.

``reference_rref`` is textbook Gauss-Jordan over ``Fraction`` on a dense
list of rows.  RREF is unique, so the engine (reached through
``linalg.rref``, ``rank``, ``kernel_basis`` and ``image_basis``, from
dense and from sparse input) must agree with it exactly: same rows,
pivots, rank and kernel basis.
"""

from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homnambu import adjoint_cohomology, backends, formats, linalg, scalar_cohomology

FIXTURES = sorted((Path(__file__).resolve().parent.parent / "fixtures").glob("*.alg"))


def reference_rref(rows, cols):
    """Dense Gauss-Jordan over Q: (nonzero RREF rows, pivot columns)."""
    m = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    for c in range(cols):
        r = len(pivots)
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        m[r] = [v / m[r][c] for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m[: len(pivots)], pivots


def reference_kernel(rows, cols):
    r, pivots = reference_rref(rows, cols)
    vectors = []
    for f in (c for c in range(cols) if c not in pivots):
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for row, p in zip(r, pivots):
            v[p] = -row[f]
        vectors.append(tuple(v))
    return vectors


def dense(rows, cols):
    """Nested row tuples; with no rows they carry no width, so then the
    empty matrix of that width."""
    return tuple(map(tuple, rows)) if rows else linalg.zeros(0, cols)


def sparse(rows, cols):
    entries = {(i, j): v for i, row in enumerate(rows) for j, v in enumerate(row) if v}
    return linalg.SparseMatrix(len(rows), cols, entries)


def sparse_rows(vectors):
    """The nonzero coordinates of dense vectors, increasing, as dicts."""
    return [{j: v for j, v in enumerate(vector) if v} for vector in vectors]


def sparse_items(rows):
    """Each sparse row as its ``(coordinate, value)`` list, so that the
    order of the coordinates is compared too."""
    return [list(row.items()) for row in rows]


def assert_matches_reference(rows, cols):
    want_r, want_pivots = reference_rref(rows, cols)
    want_kernel = reference_kernel(rows, cols)
    want_image = reference_rref([list(c) for c in zip(*rows)], len(rows))[0]
    for m in (dense(rows, cols), sparse(rows, cols)):
        r, pivots = linalg.rref(m)
        assert [list(row) for row in r] == want_r
        assert list(pivots) == want_pivots
        assert linalg.rank(m) == len(want_pivots)
        kernel = linalg.kernel_basis(m)
        assert kernel.ambient_dim == cols
        assert list(kernel.vectors) == want_kernel
        assert sparse_items(kernel.rows) == sparse_items(sparse_rows(want_kernel))
        image = linalg.image_basis(m)
        assert image.ambient_dim == len(rows)
        assert [list(v) for v in image.vectors] == want_image
        assert sparse_items(image.rows) == sparse_items(sparse_rows(want_image))


RATIONALS = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)),
    st.builds(Fraction, st.integers(-(10**20), 10**20), st.integers(1, 10**6)),
)


@st.composite
def matrices(draw):
    """Rational matrices from 0 x n and n x 0 up to 8 x 8, tall or wide,
    with zero rows and repeated (possibly rescaled) rows mixed in."""
    cols = draw(st.integers(0, 8))
    rows = draw(st.lists(st.lists(RATIONALS, min_size=cols, max_size=cols), max_size=8))
    for _ in range(draw(st.integers(0, 3))):
        if rows and draw(st.booleans()):
            src = rows[draw(st.integers(0, len(rows) - 1))]
            scale = draw(st.sampled_from([1, -1, 2, Fraction(1, 3)]))
            rows.insert(draw(st.integers(0, len(rows))), [scale * v for v in src])
        else:
            rows.insert(draw(st.integers(0, len(rows))), [Fraction(0)] * cols)
    return rows, cols


@given(matrices())
@settings(max_examples=300, deadline=None)
def test_engine_matches_reference_rref(matrix):
    assert_matches_reference(*matrix)


@pytest.mark.parametrize("shape", [(0, 0), (0, 4), (4, 0), (1, 1)])
def test_engine_edge_shapes(shape):
    rows, cols = shape
    assert_matches_reference([[Fraction(0)] * cols for _ in range(rows)], cols)


@st.composite
def matrices_with_column_repeats(draw):
    """Rational matrices up to 8 x 8 with zero columns and repeated,
    possibly rescaled, columns mixed in: what the kernel's column
    elimination sees as zero and repeated rows."""
    rows = draw(st.integers(0, 8))
    columns = draw(st.lists(st.lists(RATIONALS, min_size=rows, max_size=rows), max_size=8))
    for _ in range(draw(st.integers(0, 3))):
        if columns and draw(st.booleans()):
            src = columns[draw(st.integers(0, len(columns) - 1))]
            scale = draw(st.sampled_from([1, -1, 2, Fraction(1, 3)]))
            columns.insert(draw(st.integers(0, len(columns))), [scale * v for v in src])
        else:
            columns.insert(draw(st.integers(0, len(columns))), [Fraction(0)] * rows)
    return transpose(columns, rows), len(columns)


@given(matrices_with_column_repeats())
@settings(max_examples=300, deadline=None)
def test_kernel_with_repeated_columns_matches_reference(matrix):
    rows, cols = matrix
    want = reference_kernel(rows, cols)
    for m in (dense(rows, cols), sparse(rows, cols)):
        kernel = linalg.kernel_basis(m)
        assert kernel.ambient_dim == cols
        assert list(kernel.vectors) == want
        assert sparse_items(kernel.rows) == sparse_items(sparse_rows(want))


def test_kernel_tag_is_scaled_with_its_column():
    # x/2 - y = 0: clearing the first column's denominator scales its tag too
    kernel = linalg.kernel_basis([[Fraction(1, 2), -1]])
    assert sparse_items(kernel.rows) == [[(0, Fraction(2)), (1, Fraction(1))]]


def count_combines(monkeypatch, m):
    """The kernel basis of ``m`` and the ``_combine`` calls it took."""
    calls = []
    combine = backends._combine

    def counted(*args):
        calls.append(None)
        return combine(*args)

    monkeypatch.setattr(backends, "_combine", counted)
    return linalg.kernel_basis(m), len(calls)


def test_kernels_of_tall_operators_eliminate_their_columns(monkeypatch):
    # eliminating the 864 rows of this operator took 2,114 combinations,
    # and the 672 rows of the stacked one 1,122
    alg = formats.load_algebra(FIXTURES[0].with_name("filippov_n3.alg"))
    split = scalar_cohomology.coboundary_matrix(alg, 2, "split")
    assert split.shape == (864, 144)
    kernel, calls = count_combines(monkeypatch, split)
    assert kernel.dim == 20 and calls <= 300
    alg = formats.load_algebra(FIXTURES[0].with_name("filippov_n3_reflected.alg"))
    stacked = linalg.stack(
        adjoint_cohomology.coboundary_matrix(alg, 2), adjoint_cohomology.equivariance_matrix(alg, 2)
    )
    assert stacked.shape == (672, 96)
    kernel, calls = count_combines(monkeypatch, stacked)
    assert kernel.dim == 2 and calls <= 100


def fixture_operators(path):
    alg = formats.load_algebra(path)
    equi = adjoint_cohomology.equivariant_basis(alg, 1)
    yield "scalar p=1", scalar_cohomology.coboundary_matrix(alg, 1)
    yield "scalar p=2", scalar_cohomology.coboundary_matrix(alg, 2)
    yield "adjoint p=1 restricted", linalg.restrict_columns(
        adjoint_cohomology.coboundary_matrix(alg, 1), equi
    )


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_engine_matches_reference_on_fixture_operators(path):
    for label, op in fixture_operators(path):
        rows = [[Fraction(0)] * op.cols for _ in range(op.rows)]
        for (r, c), v in op.entries.items():
            rows[r][c] = v
        want_r, want_pivots = reference_rref(rows, op.cols)
        r, pivots = linalg.rref(op)
        assert ([list(row) for row in r], list(pivots)) == (want_r, want_pivots), label
        assert linalg.rank(op) == len(want_pivots), label
        assert list(linalg.kernel_basis(op).vectors) == reference_kernel(rows, op.cols), label


def transpose(rows, cols):
    return [list(c) for c in zip(*rows)] if rows else [[] for _ in range(cols)]


def reference_solve(rows, b, cols):
    """``solve`` read off the reference RREF of ``[rows | b]``."""
    r, pivots = reference_rref([list(row) + [v] for row, v in zip(rows, b)], cols + 1)
    if pivots and pivots[-1] == cols:
        return None
    x = [Fraction(0)] * cols
    for row, p in zip(r, pivots):
        x[p] = row[cols]
    return tuple(x)


@st.composite
def systems_with_repeats(draw):
    """A system ``rows x = b`` and the same system with rows appended that
    are scaled (negative and fractional factors), negated or zero, all
    rows then put in a random order."""
    cols = draw(st.integers(0, 6))
    rows = draw(st.lists(st.lists(RATIONALS, min_size=cols, max_size=cols), max_size=6))
    b = draw(st.lists(RATIONALS, min_size=len(rows), max_size=len(rows)))
    system = [list(row) + [v] for row, v in zip(rows, b)]
    grown = list(system)
    for _ in range(draw(st.integers(1, 8))):
        if system and draw(st.booleans()):
            src = draw(st.sampled_from(system))
            scale = draw(st.sampled_from([-1, 2, -3, Fraction(1, 3), Fraction(-5, 2)]))
            grown.append([scale * v for v in src])
        else:
            grown.append([Fraction(0)] * (cols + 1))
    grown = draw(st.permutations(grown))
    return (rows, b), ([row[:cols] for row in grown], [row[cols] for row in grown]), cols


@given(systems_with_repeats())
@settings(max_examples=200, deadline=None)
def test_repeated_rows_change_no_result(systems):
    (rows, b), (grown, grown_b), cols = systems
    want_r, want_pivots = reference_rref(rows, cols)
    want_kernel = reference_kernel(rows, cols)
    want_x = reference_solve(rows, b, cols)
    for make in (dense, sparse):
        for m, rhs, t in (
            (make(rows, cols), b, make(transpose(rows, cols), len(rows))),
            (make(grown, cols), grown_b, make(transpose(grown, cols), len(grown))),
        ):
            r, pivots = linalg.rref(m)
            assert ([list(row) for row in r], list(pivots)) == (want_r, want_pivots)
            assert linalg.rank(m) == len(want_pivots)
            assert list(linalg.kernel_basis(m).vectors) == want_kernel
            # the row space, as the column space of the transpose
            assert [list(v) for v in linalg.image_basis(t).vectors] == want_r
            assert linalg.solve(m, rhs) == want_x


@st.composite
def complexes(draw):
    """Integer matrices D (m x n) and A (n x k) with D A = 0: A is drawn,
    and each row of D is an integer combination of the reference left
    null space of A, denominators cleared."""
    n, k = draw(st.integers(1, 6)), draw(st.integers(0, 4))
    a = draw(st.lists(st.lists(st.integers(-3, 3), min_size=k, max_size=k), min_size=n, max_size=n))
    left = reference_kernel(transpose(a, k), n)
    d = []
    for _ in range(draw(st.integers(0, 5))):
        row = [Fraction(0)] * n
        for v in left:
            c = draw(st.integers(-2, 2))
            row = [x + c * y for x, y in zip(row, v)]
        den = lcm(*(x.denominator for x in row))
        d.append([int(x * den) for x in row])
    return d, a, n, k


@given(complexes())
@settings(max_examples=200, deadline=None)
def test_homology_matches_reference(complex_):
    d, a, n, k = complex_
    z, b, dim_h = linalg.homology(sparse(d, n), sparse(a, k))
    want_z = reference_kernel(d, n)
    want_b = reference_rref(transpose(a, k), n)[0]
    assert (z.ambient_dim, b.ambient_dim) == (n, n)
    assert sparse_items(z.rows) == sparse_items(sparse_rows(want_z))
    assert sparse_items(b.rows) == sparse_items(sparse_rows(want_b))
    assert dim_h == len(want_z) - len(want_b)
    # e_j for a nonzero column j of D lies outside Z: boundaries holding it are refused
    outside = next((j for j in range(n) if any(row[j] for row in d)), None)
    if outside is not None:
        claimed = linalg.SubspaceBasis(n, (*b.rows, {outside: Fraction(1)}))
        with pytest.raises(linalg.NotASubspaceError):
            linalg.quotient_dim(z, claimed)


def test_elimination_sees_each_distinct_row_once(monkeypatch):
    # the fused -> split degree-2 scalar operator of filippov_n3 has 864
    # rows, 360 of them nonzero, and 48 distinct up to scale
    alg = formats.load_algebra(FIXTURES[0].with_name("filippov_n3.alg"))
    op = scalar_cohomology.coboundary_matrix(alg, 2, "fused", "split")
    eliminated = []

    def spy(items, key=None):
        out = sorted(items, key=key)
        if key is len:  # the shortest-first order of the rows to eliminate
            eliminated.append(len(out))
        return out

    monkeypatch.setattr(backends, "sorted", spy, raising=False)
    assert (op.rows, len({r for r, _ in op.entries})) == (864, 360)
    assert linalg.rank(op) == 24
    assert eliminated == [48]


def test_echelon_rows_are_coprime_integers():
    # -2x - 4y + 6z = 0 and 3x + 3y = 0: rows come back primitive, pivots positive
    ech, pivots, rank = backends.echelon_int([{0: -2, 1: -4, 2: 6}, {0: 3, 1: 3}], 2, 3)
    assert (ech, pivots, rank) == ([[1, 0, 3], [0, 1, -3]], [0, 1], 2)
    for row in ech:
        assert all(isinstance(v, int) for v in row)


def test_huge_entries_fall_back_exactly():
    big = 10**30
    m = linalg.mat([[big, 1], [0, Fraction(1, big)]])
    assert linalg.rank(m) == 2
    x = linalg.solve(m, (big, Fraction(2, big)))
    assert x is not None
    assert linalg.sparse_mat_vec(m, x) == (Fraction(big), Fraction(2, big))


def test_matmul_int_overflow_guard():
    a = [[2**40, 1], [0, 1]]
    b = [[2**40, 0], [1, 1]]
    out = backends.matmul_int(a, b, 2, 2, 2)
    assert out == [[2**80 + 1, 1], [1, 1]]
