"""The exact elimination engine and the integer matrix product.

Every rank, kernel, image and solve in :mod:`homnambu.linalg` ends in
:func:`echelon_int`: sparse Gaussian elimination over the integers on
rows stored as ``{column: int}`` dicts.  Rows are made primitive
(coprime, positive lead) and kept once each, which leaves the row space
as it is: coboundary rows still repeat up to sign (the scalar degree-2
operator of ``filippov_n3`` has 120 nonzero rows, 48 distinct), and
elimination would only reduce the repeats to zero (dropping them first
is standard: LaMacchia & Odlyzko, CRYPTO 1990; Bouillaguet & Delaplace,
CASC 2016).
Rows are taken shortest first (a cheap Markowitz order, as in Duff,
Erisman & Reid, *Direct Methods for Sparse Matrices*) and reduced by
their leading term against the pivot rows found so far, so only fill-in
that a short pivot row causes is ever created.  Each combination is
fraction-free and the result is divided by the row content, which
keeps coefficients at the size of the reduced row rather than of a
Bareiss minor.  Back-substitution then clears every pivot column above
and below its pivot, giving the reduced row echelon form, which is
unique: bases built from it do not depend on the row order.
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
    # repeats up to scale have equal primitive forms: keep one copy of each
    distinct = {frozenset(r.items()): r for r in map(_primitive, filter(None, int_rows))}
    pivots = {}  # lead column -> primitive row
    for row in sorted(distinct.values(), key=len):
        lead = min(row)
        while lead in pivots:
            row = _combine(row, pivots[lead], lead)
            if not row:
                break
            lead = min(row)
        else:
            pivots[lead] = row
    order = sorted(pivots)
    for i in range(len(order) - 1, -1, -1):
        lead = order[i]
        row = pivots[lead]
        for col in [c for c in row if c != lead and c in pivots]:
            row = _combine(row, pivots[col], col)
        pivots[lead] = row
    echelon = []
    for lead in order:
        dense = [0] * cols
        for c, v in pivots[lead].items():
            dense[c] = v
        echelon.append(dense)
    return echelon, order, len(order)


def matmul_int(a_rows, b_rows, n, k, m):
    """Exact product of an ``n x k`` and a ``k x m`` integer matrix given
    as nested lists; the product is a list of ``n`` lists of ``m`` ints."""
    b_cols = list(zip(*b_rows)) if k else [()] * m
    return [[sum(x * y for x, y in zip(row, col)) for col in b_cols] for row in a_rows]
