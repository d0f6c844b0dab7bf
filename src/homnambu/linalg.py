"""Exact linear algebra over the rationals.

Scalars are :class:`fractions.Fraction` (always lowest terms, positive
denominator).  Dense matrices are 2-D numpy arrays with ``dtype=object``
holding Fractions; coboundary operators are :class:`SparseMatrix`
values.  Everything here is a pure function of its arguments, so
concurrent use needs no synchronization.

``rank``, ``rref``, ``kernel_basis``, ``image_basis``, ``solve``,
``quotient_dim`` and the :class:`SubspaceBasis` checks take a
SparseMatrix or a dense matrix (any nested sequence) and hand its
nonzero entries, as integer rows with
denominators cleared row by row, to the one elimination engine,
:func:`homnambu.backends.echelon_int`.  Ranks and kernels over Q agree
with those over any extension field, which is why the rest of the
package can work over Q without changing any cohomology dimension.
Every basis is read off the reduced row echelon form, which is unique,
so outputs are canonical.  :func:`homology` turns a coboundary operator
and its predecessor into cocycles, coboundaries and the quotient
dimension for every complex in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from . import backends

ZERO = Fraction(0)
ONE = Fraction(1)


class LinAlgError(ValueError):
    pass


class NotASubspaceError(LinAlgError):
    """Raised when a claimed subspace containment fails."""


def mat(rows) -> np.ndarray:
    """Build an exact matrix from nested sequences of rational-likes."""
    rows = [list(r) for r in rows]
    if rows:
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise LinAlgError("ragged rows")
    m = np.empty((len(rows), len(rows[0]) if rows else 0), dtype=object)
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            m[i, j] = Fraction(v)
    return m


def zeros(rows: int, cols: int) -> np.ndarray:
    m = np.empty((rows, cols), dtype=object)
    m[:] = ZERO
    return m


def eye(n: int) -> np.ndarray:
    m = zeros(n, n)
    for i in range(n):
        m[i, i] = ONE
    return m


def vec(entries) -> tuple:
    return tuple(Fraction(v) for v in entries)


def is_zero_matrix(m) -> bool:
    return all(not v for v in np.asarray(m, dtype=object).flat)


def _rows(m, transpose=False):
    """Nonzero entries of ``m`` (or of its transpose) as one
    ``{column: value}`` dict per row, and the column count."""
    if isinstance(m, SparseMatrix):
        n, k = (m.cols, m.rows) if transpose else (m.rows, m.cols)
        rows = [{} for _ in range(n)]
        for (r, c), v in m.entries.items():
            if transpose:
                r, c = c, r
            rows[r][c] = v
        return rows, k
    m = np.asarray(m, dtype=object)
    if m.ndim != 2:
        raise LinAlgError("expected a matrix")
    if transpose:
        m = m.T
    return [{c: v for c, v in enumerate(row) if v} for row in m.tolist()], m.shape[1]


def _echelon(rows, cols):
    """Reduced echelon form of rational ``{column: value}`` rows, each
    row cleared of denominators first (row scaling preserves row space,
    null space and pivot structure)."""
    int_rows = []
    for row in rows:
        den = lcm(*(v.denominator for v in row.values()))
        int_rows.append({c: v.numerator * (den // v.denominator) for c, v in row.items()})
    return backends.echelon_int(int_rows, len(int_rows), cols)


def _scaled(row, lead):
    """An integer echelon row divided by its pivot entry."""
    return tuple(Fraction(v, lead) if v else ZERO for v in row)


def rank(m) -> int:
    """Exact rank over the rationals of a dense or sparse matrix."""
    return _echelon(*_rows(m))[2]


def rref(m):
    """Reduced row echelon form over Q.

    Returns ``(R, pivots)`` where R has ``rank`` rows (zero rows dropped).
    """
    rows, cols = _rows(m)
    ech, pivots, rk = _echelon(rows, cols)
    r = np.empty((rk, cols), dtype=object)
    for i, (row, p) in enumerate(zip(ech, pivots)):
        r[i] = _scaled(row, row[p])
    return r, tuple(pivots)


def kernel_basis(m) -> "SubspaceBasis":
    """Canonical basis of the right null space (reduced echelon form)."""
    rows, cols = _rows(m)
    ech, pivots, _ = _echelon(rows, cols)
    pivot_set = set(pivots)
    vectors = {f: [ZERO] * cols for f in range(cols) if f not in pivot_set}
    for f, v in vectors.items():
        v[f] = ONE
    for row, p in zip(ech, pivots):
        lead = row[p]
        for f, x in enumerate(row):
            if x and f != p:
                vectors[f][p] = Fraction(-x, lead)
    return SubspaceBasis(cols, tuple(tuple(v) for v in vectors.values()))


def _row_basis(rows, cols) -> "SubspaceBasis":
    ech, pivots, _ = _echelon(rows, cols)
    return SubspaceBasis(cols, tuple(_scaled(row, row[p]) for row, p in zip(ech, pivots)))


def image_basis(m) -> "SubspaceBasis":
    """Canonical basis of the column space (reduced echelon form)."""
    return _row_basis(*_rows(m, transpose=True))


def solve(m, b):
    """One exact solution of ``m @ x = b`` or ``None`` when inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    rows, cols = _rows(m)
    b = vec(b)
    if len(b) != len(rows):
        raise LinAlgError("right-hand side length mismatch")
    for row, v in zip(rows, b):
        if v:
            row[cols] = v
    ech, pivots, _ = _echelon(rows, cols + 1)
    if pivots and pivots[-1] == cols:
        return None
    x = [ZERO] * cols
    for row, p in zip(ech, pivots):
        if row[cols]:
            x[p] = Fraction(row[cols], row[p])
    return tuple(x)


def matmul(a, b) -> np.ndarray:
    """Exact product of two rational matrices.

    Denominators are cleared (one common denominator per factor), the
    integer product is taken and the result is rescaled back.
    """
    a = np.asarray(a, dtype=object)
    b = np.asarray(b, dtype=object)
    n, k = a.shape
    k2, m = b.shape
    if k != k2:
        raise LinAlgError("shape mismatch in matmul")

    def int_rows(x, den):
        return [[v.numerator * (den // v.denominator) for v in row] for row in x.tolist()]

    da = lcm(*(v.denominator for v in a.flat))
    db = lcm(*(v.denominator for v in b.flat))
    prod = backends.matmul_int(int_rows(a, da), int_rows(b, db), n, k, m)
    scale = Fraction(1, da * db)
    out = np.empty((n, m), dtype=object)
    for i, row in enumerate(prod):
        for j, v in enumerate(row):
            out[i, j] = v * scale
    return out


def mat_vec(m, x) -> tuple:
    m = np.asarray(m, dtype=object)
    x = vec(x)
    if m.shape[1] != len(x):
        raise LinAlgError("shape mismatch in mat_vec")
    return tuple(sum((m[i, j] * x[j] for j in range(len(x))), ZERO) for i in range(m.shape[0]))


@dataclass(frozen=True)
class SubspaceBasis:
    """A list of independent vectors spanning a subspace of Q^ambient_dim."""

    ambient_dim: int
    vectors: tuple

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def matrix(self) -> np.ndarray:
        m = np.empty((len(self.vectors), self.ambient_dim), dtype=object)
        for i, v in enumerate(self.vectors):
            for j in range(self.ambient_dim):
                m[i, j] = v[j]
        return m

    def verify(self) -> bool:
        if not self.vectors:
            return True
        if any(len(v) != self.ambient_dim for v in self.vectors):
            return False
        return rank(self.vectors) == len(self.vectors)

    def contains(self, vector) -> bool:
        if not any(vector):
            return True
        if not self.vectors:
            return False
        return rank((*self.vectors, vec(vector))) == self.dim


def quotient_dim(z: SubspaceBasis, b: SubspaceBasis) -> int:
    """dim(z) - dim(b), after checking span(b) is inside span(z)."""
    if z.ambient_dim != b.ambient_dim:
        raise NotASubspaceError("ambient dimensions differ")
    dim_z = rank(z.vectors) if z.vectors else 0
    dim_b = rank(b.vectors) if b.vectors else 0
    if b.vectors and rank((*z.vectors, *b.vectors)) != dim_z:
        raise NotASubspaceError("not a subspace")
    return dim_z - dim_b


# ---------------------------------------------------------------------------
# sparse matrices: coboundary operators are assembled in this form


@dataclass
class SparseMatrix:
    rows: int
    cols: int
    entries: dict  # (row, col) -> Fraction

    def add(self, r: int, c: int, v) -> None:
        if not v:
            return
        key = (r, c)
        new = self.entries.get(key, ZERO) + v
        if new:
            self.entries[key] = new
        else:
            self.entries.pop(key, None)

    def to_dense(self) -> np.ndarray:
        m = zeros(self.rows, self.cols)
        for (r, c), v in self.entries.items():
            m[r, c] = v
        return m

    def is_zero(self) -> bool:
        return not self.entries


def sparse_matmul(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    if a.cols != b.rows:
        raise LinAlgError("shape mismatch in sparse_matmul")
    b_rows = {}
    for (r, c), v in b.entries.items():
        b_rows.setdefault(r, []).append((c, v))
    out = SparseMatrix(a.rows, b.cols, {})
    for (r, k), v in a.entries.items():
        for c, w in b_rows.get(k, ()):
            out.add(r, c, v * w)
    return out


def sparse_mat_vec(a: SparseMatrix, x) -> tuple:
    x = vec(x)
    if a.cols != len(x):
        raise LinAlgError("shape mismatch in sparse_mat_vec")
    out = [ZERO] * a.rows
    for (r, c), v in a.entries.items():
        if x[c]:
            out[r] += v * x[c]
    return tuple(out)


def _inclusion(basis: SubspaceBasis) -> SparseMatrix:
    """The basis vectors as the columns of a sparse matrix."""
    m = SparseMatrix(basis.ambient_dim, basis.dim, {})
    for j, v in enumerate(basis.vectors):
        for i, x in enumerate(v):
            m.add(i, j, x)
    return m


def restrict_columns(m: SparseMatrix, basis: SubspaceBasis) -> SparseMatrix:
    """``m`` on span(basis): column j is ``m`` applied to basis vector j."""
    return sparse_matmul(m, _inclusion(basis))


def homology(delta: SparseMatrix, prev: SparseMatrix, domain: SubspaceBasis | None = None):
    """``(Z, B, dim Z/B)`` with Z = ker ``delta`` and B = im ``prev``.

    With a ``domain`` basis, Z is the kernel of ``delta`` restricted to
    span(domain), each kernel vector mapped back to ambient coordinates.
    Raises :class:`NotASubspaceError` unless B lies inside Z.
    """
    if domain is None:
        z = kernel_basis(delta)
    else:
        inc = _inclusion(domain)
        coords = kernel_basis(sparse_matmul(delta, inc))
        z = SubspaceBasis(delta.cols, tuple(sparse_mat_vec(inc, c) for c in coords.vectors))
    b = image_basis(prev)
    return z, b, quotient_dim(z, b)
