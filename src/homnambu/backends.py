"""The exact elimination engine, and the dense integer product kept as a
reference.

Every rank, image and solve in :mod:`homnambu.linalg` ends in
:func:`echelon_int`, and every kernel in :func:`kernel_int`: sparse
Gaussian elimination over the integers on rows stored as ``{column:
int}`` dicts, both through the one forward pass :func:`_forward`.  Rows
are made primitive (coprime, positive lead) and kept once each, which
leaves the row space as it is: coboundary rows still repeat up to sign
(the scalar degree-2 operator of ``filippov_n3`` has 120 nonzero rows,
48 distinct), and elimination would only reduce the repeats to zero
(dropping them first is standard: LaMacchia & Odlyzko, CRYPTO 1990;
Bouillaguet & Delaplace, CASC 2016).
Rows are taken shortest first (a cheap Markowitz order, as in Duff,
Erisman & Reid, *Direct Methods for Sparse Matrices*) and reduced by
their leading term against the pivot rows found so far, so only fill-in
that a short pivot row causes is ever created.  Each combination is
fraction-free and the result is divided by the row content, which
keeps coefficients at the size of the reduced row rather than of a
Bareiss minor.  Back-substitution then clears every pivot column above
and below its pivot, giving the reduced row echelon form, which is
unique: bases built from it do not depend on the row order.

A kernel is found by eliminating columns, not rows (Cohen, *A Course in
Computational Algebraic Number Theory*, GTM 138, Alg. 2.3.1): each
column of the matrix enters as a row tagged with its own unit vector
in extra columns past the last row index, so that the tags record the
column operations.  A column that reduces to tags alone is a null
vector; the forward pass sets it aside, and the set-aside rows are then
reduced among themselves.  Coboundary operators are tall (864 x 144 for
the split degree-2 scalar operator of ``filippov_n3``), so the pass
reduces their few columns instead of hundreds of rows that would only
vanish: 266 combinations on that operator, 2,114 by rows.

:func:`matmul_int` is the dense integer product behind
:func:`homnambu.linalg.matmul`: a reference that the tests compare the
sparse product against, kept under the names the benchmark's tracer
wraps; no path of the package calls it.
"""

from __future__ import annotations

from math import gcd


def backend_name() -> str:
    return "sparse-int"


def _primitive(row: dict) -> dict:
    """Divide a nonzero row by its content, making its lead positive."""
    g = gcd(*row.values())
    if row[min(row)] < 0:
        g = -g
    if g == 1:
        return row
    return {c: v // g for c, v in row.items()}


def _combine(row: dict, pivot_row: dict, col: int) -> dict:
    """``row`` with its entry in ``col`` cleared by ``pivot_row``."""
    a, b = pivot_row[col], row[col]
    g = gcd(a, b)
    a, b = a // g, b // g
    out = {c: a * v for c, v in row.items()} if a != 1 else dict(row)
    for c, w in pivot_row.items():
        v = out.get(c, 0) - b * w
        if v:
            out[c] = v
        else:
            del out[c]
    return _primitive(out) if out else out


def _forward(int_rows, stop):
    """The forward pass: ``(pivots, set_aside)``.

    Distinct primitive rows are taken shortest first and reduced by
    their lead (least column) against the pivot rows found so far.  A
    row whose lead reaches ``stop`` is reduced no further and set aside;
    a row whose lead is below ``stop`` and free becomes the pivot row of
    its lead in ``pivots``.
    """
    # repeats up to scale have equal primitive forms: keep one copy of each
    distinct = {frozenset(r.items()): r for r in map(_primitive, filter(None, int_rows))}
    pivots = {}  # lead column -> primitive row
    set_aside = []
    for row in sorted(distinct.values(), key=len):
        lead = min(row)
        while lead in pivots:
            row = _combine(row, pivots[lead], lead)
            if not row:
                break
            lead = min(row)
        else:
            if lead < stop:
                pivots[lead] = row
            else:
                set_aside.append(row)
    return pivots, set_aside


def _back_substitute(pivots) -> list:
    """Clear every pivot column of the other pivot rows, in place, which
    gives the reduced echelon form; returns the leads in increasing
    order."""
    order = sorted(pivots)
    for i in range(len(order) - 1, -1, -1):
        lead = order[i]
        row = pivots[lead]
        for col in [c for c in row if c != lead and c in pivots]:
            row = _combine(row, pivots[col], col)
        pivots[lead] = row
    return order


def echelon_int(int_rows, rows, cols):
    """Reduced row echelon form of an integer matrix over Q.

    ``int_rows`` holds the rows of a ``rows x cols`` matrix as
    ``{column: int}`` dicts without zero entries; empty rows may be left
    out.  The shape, empty rows counted, is passed along so that callers
    and tracers see it.  Returns
    ``(echelon_rows, pivot_cols, rank)``: ``echelon_rows`` are the
    ``rank`` nonzero rows of the reduced echelon form, each scaled to
    coprime integers with a positive pivot and given as a list of
    ``cols`` Python ints; ``pivot_cols`` increase.
    """
    pivots, _ = _forward(int_rows, cols)
    order = _back_substitute(pivots)
    echelon = []
    for lead in order:
        dense = [0] * cols
        for c, v in pivots[lead].items():
            dense[c] = v
        echelon.append(dense)
    return echelon, order, len(order)


def kernel_int(tagged_cols, rows, cols):
    """The null space of a ``rows x cols`` integer matrix, by column
    elimination (see the module docstring).

    ``tagged_cols`` holds column j of the matrix as a ``{row: int}``
    dict with one more entry, its tag, at column ``rows + cols - 1 - j``
    (denominators cleared over the whole dict).  Returns the reduced
    echelon form of the null vectors' tags as sparse primitive integer
    rows, leads increasing: the unique basis that is reduced in the
    reversed column order.
    """
    _, null = _forward(tagged_cols, rows)
    pivots, _ = _forward(null, rows + cols)
    return [pivots[lead] for lead in _back_substitute(pivots)]


def matmul_int(a_rows, b_rows, n, k, m):
    """Exact product of an ``n x k`` and a ``k x m`` integer matrix given
    as nested lists; the product is a list of ``n`` lists of ``m`` ints
    (the dense reference; see the module docstring)."""
    b_cols = list(zip(*b_rows)) if k else [()] * m
    return [[sum(x * y for x, y in zip(row, col)) for col in b_cols] for row in a_rows]
