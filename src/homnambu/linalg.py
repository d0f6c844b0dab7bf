"""Exact linear algebra over the rationals.

Scalars are :class:`fractions.Fraction` (always lowest terms, positive
denominator).  Every matrix is a :class:`SparseMatrix`: a shape and a
dict of its nonzero entries, so matrices compare equal exactly when
they are equal.  Everything here is a pure function of its arguments,
so concurrent use needs no synchronization.

``rank``, ``rref``, ``image_basis``, ``solve``, ``quotient_dim`` and
the :class:`SubspaceBasis` checks take a SparseMatrix or a nested
sequence of rows and hand its nonzero rows, denominators cleared row by
row (rows of ints go as they are), to the one elimination engine,
:func:`homnambu.backends.echelon_int`, which eliminates each row once up
to scale (LaMacchia & Odlyzko, CRYPTO 1990), so a repeated row is never
reduced.  ``kernel_basis`` hands the engine the columns instead, each
tagged with its own unit vector, and reads the null space off the
columns that reduce to their tags alone
(:func:`homnambu.backends.kernel_int`; Cohen, GTM 138, Alg. 2.3.1): a
coboundary operator has far fewer columns than rows.  Ranks and kernels
over Q agree with those over any extension field, which is why the rest
of the package can work over Q without changing any cohomology
dimension.  Every basis is read off a reduced echelon form, which is
unique, so outputs are canonical.  Bases stay sparse from there on: each
vector is a ``{coordinate: Fraction}`` row read off the nonzero entries
of the pivot rows, and the containment check of :func:`quotient_dim`
and every :class:`SubspaceBasis` method hand those rows to the engine
as they are; dense vectors are built only where a caller asks for
:attr:`SubspaceBasis.vectors`.  :func:`homology` turns a coboundary
operator and its predecessor into cocycles, coboundaries and the
quotient dimension for every complex in the package; a complex on a
subspace cut out by linear conditions passes those rows stacked under
its operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import lcm

from . import backends

ZERO = Fraction(0)
ONE = Fraction(1)


class LinAlgError(ValueError):
    pass


class NotASubspaceError(LinAlgError):
    """Raised when a claimed subspace containment fails."""


def mat(rows) -> "SparseMatrix":
    """An exact copy of a SparseMatrix, or a matrix built from nested
    sequences of rational-likes."""
    if isinstance(rows, SparseMatrix):
        return SparseMatrix(rows.rows, rows.cols, {k: Fraction(v) for k, v in rows.entries.items()})
    rows, width = _rows(rows)
    entries = {(i, j): v for i, row in enumerate(rows) for j, v in row.items()}
    return SparseMatrix(len(rows), width, entries)


def zeros(rows: int, cols: int) -> "SparseMatrix":
    return SparseMatrix(rows, cols, {})


def eye(n: int) -> "SparseMatrix":
    return SparseMatrix(n, n, {(i, i): ONE for i in range(n)})


def vec(entries) -> tuple:
    return tuple(Fraction(v) for v in entries)


def is_zero_matrix(m: "SparseMatrix") -> bool:
    return not m.entries


def _rows(m, transpose=False):
    """Nonzero entries of ``m`` (or of its transpose) as one
    ``{column: value}`` dict per row, and the column count; nested
    sequences of rational-likes are read row by row; the one reader of
    nested input, :func:`mat` included."""
    if isinstance(m, SparseMatrix):
        n, k = (m.cols, m.rows) if transpose else (m.rows, m.cols)
        rows = [{} for _ in range(n)]
        for (r, c), v in m.entries.items():
            if transpose:
                r, c = c, r
            rows[r][c] = v
        return rows, k
    seqs = [r if isinstance(r, (list, tuple)) else list(r) for r in m]
    width = len(seqs[0]) if seqs else 0
    if any(len(r) != width for r in seqs):
        raise LinAlgError("ragged rows")
    # most zeros are the shared ZERO: the identity test skips them
    # without a call to Fraction.__bool__
    rows = [{j: Fraction(v) for j, v in enumerate(r) if v is not ZERO and v} for r in seqs]
    if not transpose:
        return rows, width
    cols = [{} for _ in range(width)]
    for i, row in enumerate(rows):
        for j, v in row.items():
            cols[j][i] = v
    return cols, len(rows)


def _int_rows(rows) -> list:
    """Rational ``{column: value}`` rows, each cleared of denominators
    (row scaling preserves row space, null space and pivot structure);
    empty rows are skipped and rows of ints passed as they are."""
    int_rows = []
    for row in filter(None, rows):
        if any(type(v) is not int for v in row.values()):
            den = lcm(*(v.denominator for v in row.values()))
            row = {c: v.numerator * (den // v.denominator) for c, v in row.items()}
        int_rows.append(row)
    return int_rows


def _echelon(rows, cols):
    """Reduced echelon form of rational ``{column: value}`` rows."""
    return backends.echelon_int(_int_rows(rows), len(rows), cols)


def _pivot_rows(ech, pivots) -> list:
    """The integer echelon rows as ``{column: Fraction}`` rows divided by
    their pivot entries, columns increasing."""
    out = []
    for row, p in zip(ech, pivots):
        lead = row[p]
        out.append({c: Fraction(row[c], lead) for c in compress(range(len(row)), row)})
    return out


def _dense(row: dict, width: int) -> tuple:
    return tuple(row.get(j, ZERO) for j in range(width))


def rank(m) -> int:
    """Exact rank over the rationals of a matrix or a sequence of rows."""
    return _echelon(*_rows(m))[2]


def rref(m):
    """Reduced row echelon form over Q.

    Returns ``(R, pivots)`` where R is a tuple of ``rank`` row tuples
    (zero rows dropped).
    """
    rows, cols = _rows(m)
    ech, pivots, _ = _echelon(rows, cols)
    return tuple(_dense(row, cols) for row in _pivot_rows(ech, pivots)), tuple(pivots)


def kernel_basis(m) -> "SubspaceBasis":
    """Canonical basis of the right null space: one vector per free
    column f of the reduced echelon form, 1 at f and -row[f]/lead at the
    pivot of each echelon row with an entry in column f.

    It is found by eliminating the columns of ``m`` rather than its
    rows (:func:`homnambu.backends.kernel_int`; Cohen, GTM 138, Alg.
    2.3.1), which pays for tall operators: column j goes to the engine
    tagged with a 1 at ``rows + cols - 1 - j``.  The basis comes back
    reduced in that reversed column order, which is unique, and is the
    one described above read back with the tags un-reversed.
    """
    columns, height = _rows(m, transpose=True)
    cols = len(columns)
    top = height + cols - 1
    for j, column in enumerate(columns):
        column[top - j] = 1
    reduced = backends.kernel_int(_int_rows(columns), height, cols)
    vectors = []
    for row in reversed(reduced):
        lead = row[min(row)]
        # tags decreasing are coordinates increasing; the lead, at f, goes last
        vectors.append({top - t: Fraction(row[t], lead) for t in sorted(row, reverse=True)})
    return SubspaceBasis(cols, tuple(vectors))


def image_basis(m) -> "SubspaceBasis":
    """Canonical basis of the column space (reduced echelon form)."""
    rows, cols = _rows(m, transpose=True)
    ech, pivots, _ = _echelon(rows, cols)
    return SubspaceBasis(cols, tuple(_pivot_rows(ech, pivots)))


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


def matmul(a: "SparseMatrix", b: "SparseMatrix") -> "SparseMatrix":
    """Exact product of two rational matrices, taken densely: the dense
    reference that the tests compare :func:`sparse_matmul` against (and a
    name the benchmark's tracer wraps); no path of the package calls it.

    Denominators are cleared (one common denominator per factor), the
    dense integer product is taken and the result is rescaled back; this
    route shares no code with :func:`sparse_matmul`.
    """
    if a.cols != b.rows:
        raise LinAlgError("shape mismatch in matmul")

    def int_rows(x):
        den = lcm(*(v.denominator for v in x.entries.values()))
        out = [[0] * x.cols for _ in range(x.rows)]
        for (r, c), v in x.entries.items():
            out[r][c] = v.numerator * (den // v.denominator)
        return out, den

    (ia, da), (ib, db) = int_rows(a), int_rows(b)
    prod = backends.matmul_int(ia, ib, a.rows, a.cols, b.cols)
    scale = Fraction(1, da * db)
    entries = {(i, j): v * scale for i, row in enumerate(prod) for j, v in enumerate(row) if v}
    return SparseMatrix(a.rows, b.cols, entries)


@dataclass(frozen=True)
class SubspaceBasis:
    """Independent vectors spanning a subspace of Q^ambient_dim, stored
    as sparse rows: ``rows[i]`` is ``{coordinate: Fraction}`` with the
    nonzero coordinates of vector i in increasing order.  A vector given
    as a dense sequence of ``ambient_dim`` rationals is read into that
    form; :attr:`vectors` gives the dense tuples back."""

    ambient_dim: int
    rows: tuple

    def __post_init__(self):
        rows = tuple(r if isinstance(r, dict) else self._sparse(r) for r in self.rows)
        object.__setattr__(self, "rows", rows)

    def _sparse(self, vector) -> dict:
        (row,), width = _rows([vector])
        if width != self.ambient_dim:
            raise LinAlgError("vector length differs from the ambient dimension")
        return row

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def vectors(self) -> tuple:
        """The vectors as dense tuples, zeros included, built on each use."""
        return tuple(_dense(row, self.ambient_dim) for row in self.rows)

    def matrix(self) -> "SparseMatrix":
        """The basis vectors as the rows of a matrix."""
        entries = {(i, j): x for i, row in enumerate(self.rows) for j, x in row.items()}
        return SparseMatrix(self.dim, self.ambient_dim, entries)

    def verify(self) -> bool:
        n = self.ambient_dim
        if any(not 0 <= j < n for row in self.rows for j in row):
            return False
        return _echelon(self.rows, n)[2] == self.dim

    def contains(self, vector) -> bool:
        row = self._sparse(vector)
        if not row:
            return True
        if not self.rows:
            return False
        return _echelon([*self.rows, row], self.ambient_dim)[2] == self.dim


def quotient_dim(z: SubspaceBasis, b: SubspaceBasis) -> int:
    """dim(z) - dim(b), after checking span(b) is inside span(z); both
    bases hold independent vectors, so only the rank of their stacked
    rows is taken."""
    if z.ambient_dim != b.ambient_dim:
        raise NotASubspaceError("ambient dimensions differ")
    if b.rows and _echelon([*z.rows, *b.rows], z.ambient_dim)[2] != z.dim:
        raise NotASubspaceError("not a subspace")
    return z.dim - b.dim


# ---------------------------------------------------------------------------
# sparse matrices: coboundary operators are assembled in this form


@dataclass
class SparseMatrix:
    """A rows x cols matrix holding only its nonzero entries, so the
    dataclass ``==`` is exact matrix equality."""

    rows: int
    cols: int
    entries: dict  # (row, col) -> nonzero Fraction

    @property
    def shape(self) -> tuple:
        return self.rows, self.cols

    def __getitem__(self, key):
        return self.entries.get(key, ZERO)

    __iter__ = None  # m[r, c] only; iterating would never stop

    @property
    def T(self) -> "SparseMatrix":
        return SparseMatrix(self.cols, self.rows, {(c, r): v for (r, c), v in self.entries.items()})

    def column(self, c: int) -> dict:
        """Column ``c`` as a sparse ``{row: value}`` dict."""
        return {r: v for (r, k), v in self.entries.items() if k == c}

    def add(self, r: int, c: int, v) -> None:
        if not v:
            return
        key = (r, c)
        new = self.entries.get(key, ZERO) + v
        if new:
            self.entries[key] = new
        else:
            self.entries.pop(key, None)

    def __add__(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.shape != other.shape:
            raise LinAlgError("shape mismatch in matrix sum")
        out = SparseMatrix(self.rows, self.cols, dict(self.entries))
        for (r, c), v in other.entries.items():
            out.add(r, c, v)
        return out

    def __neg__(self) -> "SparseMatrix":
        return SparseMatrix(self.rows, self.cols, {k: -v for k, v in self.entries.items()})

    def __sub__(self, other: "SparseMatrix") -> "SparseMatrix":
        return self + -other

    def __mul__(self, scalar) -> "SparseMatrix":
        if not scalar:
            return zeros(self.rows, self.cols)
        return SparseMatrix(self.rows, self.cols, {k: scalar * v for k, v in self.entries.items()})

    __rmul__ = __mul__

    def to_dense(self) -> tuple:
        """The rows as tuples, zeros included."""
        return tuple(tuple(self[r, c] for c in range(self.cols)) for r in range(self.rows))


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


def stack(top: SparseMatrix, bottom: SparseMatrix) -> SparseMatrix:
    """The rows of ``top`` followed by the rows of ``bottom``."""
    if top.cols != bottom.cols:
        raise LinAlgError("shape mismatch in stack")
    entries = dict(top.entries)
    entries.update(((top.rows + r, c), v) for (r, c), v in bottom.entries.items())
    return SparseMatrix(top.rows + bottom.rows, top.cols, entries)


def restrict_columns(m: SparseMatrix, basis: SubspaceBasis) -> SparseMatrix:
    """``m`` on span(basis): column j is ``m`` applied to basis vector j."""
    return sparse_matmul(m, basis.matrix().T)


def homology(delta: SparseMatrix, prev: SparseMatrix):
    """``(Z, B, dim Z/B)`` with Z = ker ``delta`` and B = im ``prev``.

    Raises :class:`NotASubspaceError` unless B lies inside Z.
    """
    z = kernel_basis(delta)
    b = image_basis(prev)
    return z, b, quotient_dim(z, b)
