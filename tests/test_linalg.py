"""Exact linear algebra substrate."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homnambu import adjoint_cohomology, fixtures
from homnambu.linalg import (
    LinAlgError,
    NotASubspaceError,
    SparseMatrix,
    SubspaceBasis,
    eye,
    homology,
    image_basis,
    kernel_basis,
    mat,
    matmul,
    quotient_dim,
    rank,
    restrict_columns,
    rref,
    solve,
    sparse_mat_vec,
    sparse_matmul,
    zeros,
)


def test_rank_identity():
    assert rank(eye(2)) == 2


def test_rank_zero():
    assert rank(zeros(2, 2)) == 0


def test_rank_dependent_rows():
    # row 2 = 2 * row 1, row 3 independent: rank 2 by hand reduction
    m = mat([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert rank(m) == 2


def test_nested_rows_match_the_matrix():
    # nested sequences, iterators included, are read row by row; ragged
    # rows still raise
    dense = [[1, 2, 3], [2, 4, 6], [0, Fraction(1, 2), 1]]
    m = mat(dense)
    assert rank(((1, 2, 3), (2, 4, 6), iter(dense[2]))) == rank(m) == 2
    assert rref(dense) == rref(m)
    assert image_basis(dense) == image_basis(m)
    with pytest.raises(LinAlgError):
        rank([[1, 2], [3]])


def test_kernel_identity_empty():
    k = kernel_basis(eye(3))
    assert k.dim == 0 and k.ambient_dim == 3


def test_kernel_zero_matrix_full():
    k = kernel_basis(zeros(2, 3))
    assert k.dim == 3
    assert k.vectors == (
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
    )


def test_kernel_vectors_annihilate():
    m = mat([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    k = kernel_basis(m)
    assert k.dim == 1
    for v in k.vectors:
        assert all(x == 0 for x in sparse_mat_vec(m, v))
    assert k.verify()


def test_rref_canonical():
    m = mat([[2, 4], [1, 2]])
    r, pivots = rref(m)
    assert pivots == (0,)
    assert list(r[0]) == [1, 2]


def test_solve_identity():
    b = (Fraction(1, 2), Fraction(-3), Fraction(0))
    assert solve(eye(3), b) == b


def test_solve_inconsistent():
    assert solve(zeros(2, 2), (1, 0)) is None


def test_solve_residual_exact():
    m = mat([[1, 2, 3], [0, 1, 1]])
    b = (Fraction(5, 3), Fraction(2))
    x = solve(m, b)
    assert x is not None
    assert sparse_mat_vec(m, x) == b


def test_image_basis_canonical():
    m = mat([[1, 2], [2, 4], [0, 0]])
    img = image_basis(m)
    assert img.dim == 1
    assert img.vectors == ((1, 2, 0),)


def test_quotient_dim_equal_spaces():
    z = SubspaceBasis(3, ((1, 0, 0), (0, 1, 0)))
    assert quotient_dim(z, z) == 0


def test_quotient_dim_empty_sub():
    z = SubspaceBasis(3, eye(3).to_dense())
    b = SubspaceBasis(3, ())
    assert quotient_dim(z, b) == 3


def test_quotient_dim_rejects_non_subspace():
    z = SubspaceBasis(3, ((1, 0, 0),))
    b = SubspaceBasis(3, ((0, 1, 0),))
    with pytest.raises(NotASubspaceError):
        quotient_dim(z, b)


def test_matmul_exact_fractions():
    a = mat([[Fraction(1, 2), Fraction(1, 3)], [0, 1]])
    b = mat([[2, 0], [3, Fraction(1, 5)]])
    expected = mat([[2, Fraction(1, 15)], [3, Fraction(1, 5)]])
    assert matmul(a, b) == expected


@st.composite
def rational_matrices(draw, max_dim=5):
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    nums = st.integers(-9, 9)
    dens = st.integers(1, 4)
    entries = draw(
        st.lists(
            st.lists(st.tuples(nums, dens), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return mat([[Fraction(n, d) for n, d in row] for row in entries])


@given(rational_matrices())
@settings(max_examples=60, deadline=None)
def test_rank_plus_nullity(m):
    assert rank(m) + kernel_basis(m).dim == m.shape[1]


@given(rational_matrices())
@settings(max_examples=60, deadline=None)
def test_kernel_exactness(m):
    for v in kernel_basis(m).vectors:
        assert all(x == 0 for x in sparse_mat_vec(m, v))


def test_sparse_matmul_matches_dense():
    a = SparseMatrix(2, 3, {(0, 0): Fraction(1), (0, 2): Fraction(2), (1, 1): Fraction(-1)})
    b = SparseMatrix(3, 2, {(0, 1): Fraction(3), (2, 0): Fraction(1, 2), (1, 0): Fraction(5)})
    prod = sparse_matmul(a, b)
    assert prod == matmul(a, b)


@pytest.mark.parametrize(
    "name", ["twisted_filippov_rotation", "twisted_filippov_reflection", "volume_form_d3_twisted"]
)
@pytest.mark.parametrize("p", [1, 2])
def test_equivariant_cocycles_equal_kernel_on_equivariant_basis(name, p):
    # the kernel of delta restricted to the equivariant basis, mapped back
    # to ambient coordinates, is the stacked kernel the report reads
    alg = getattr(fixtures, name)()
    delta = adjoint_cohomology.coboundary_matrix(alg, p, "fused", "split")
    equi = adjoint_cohomology.equivariant_basis(alg, p)
    inclusion = equi.matrix().T
    coords = kernel_basis(restrict_columns(delta, equi))
    ref = tuple(sparse_mat_vec(inclusion, c) for c in coords.vectors)
    report = adjoint_cohomology.cohomology(alg, p)
    assert report.cocycle_basis.vectors == ref
    assert report.cocycle_basis.ambient_dim == delta.cols
    assert report.dim_compatible == equi.dim
    if name != "volume_form_d3_twisted":
        assert (equi.dim, delta.cols) == ((8, 16), (48, 96))[p - 1]


def test_homology_rejects_boundaries_outside_cycles():
    delta = SparseMatrix(1, 2, {(0, 0): Fraction(1)})  # kernel: e_2
    prev = SparseMatrix(2, 1, {(0, 0): Fraction(1)})  # image: e_1
    with pytest.raises(NotASubspaceError):
        homology(delta, prev)


def test_homology_zero_column_prev_gives_empty_boundaries():
    delta = SparseMatrix(1, 3, {(0, 0): Fraction(1), (0, 1): Fraction(-1)})
    z, b, dim_h = homology(delta, SparseMatrix(3, 0, {}))
    assert b == SubspaceBasis(3, ())
    assert z.dim == dim_h == 2
