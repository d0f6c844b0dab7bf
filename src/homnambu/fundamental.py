"""The fundamental set wedge^(n-1)N and its induced binary bracket.

For an n-ary multiplicative Hom-Nambu-Lie algebra, the space of
(n-1)-wedges carries a binary bracket

    [x, y] = sum_i  a(y_1) ^ ... ^ (L(x).y_i) ^ ... ^ a(y_{n-1})

where L(x).z = [x_1, ..., x_{n-1}, z] and a is the twist; the result is
a Hom-Leibniz algebra (the bracket satisfies the twisted Leibniz
identity but is generally not skew).  Everything is stored on the
lexicographically ordered wedge basis; elements of the fundamental set
are sparse coordinate dicts over wedge indices.  :func:`induced_algebra`
builds the same bracket on either block basis: :func:`fundamental_of`
on wedges and :func:`tensor_fundamental_of` on (n-1)-fold tensor blocks
(no skewness), the Leibniz algebra of :mod:`homnambu.bridge` and of the
``tensor`` cochain mode of :mod:`homnambu.cochains`.  Both are memoized
on the source algebra, and so are the tables that the coboundaries read.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial

from . import linalg
from .algebra import HomNambuAlgebra, bracket_eval_sparse
from .indices import exact_vec, expand, read_backwards, sort_with_sign, sv_add
from .indices import tensor_basis, wedge_basis

ONE = Fraction(1)


def wedge_of_vectors(windex, vectors) -> dict:
    """Expand a decomposable wedge of sparse vectors into wedge coords."""
    out = {}
    for ids, coeff in expand(vectors):
        canon, sign = sort_with_sign(ids)
        if sign:
            sv_add(out, windex[canon], sign * coeff)
    return out


@dataclass(eq=False)
class HomLeibnizAlgebra:
    """Binary bracket table plus twist on an explicit basis.

    ``basis`` lists the underlying index tuples (wedge or tensor);
    ``table[i][j]`` is the sparse value of [b_i, b_j]; ``twist_cols[i]``
    the sparse image of b_i under the induced twist.  When the algebra
    is induced from ``source`` (on wedge or tensor blocks),
    ``l_action[i][z]`` is the sparse L(b_i).e_z in the source algebra.
    The tables read backwards are built on first use; no reader mutates them.
    """

    dim: int
    basis: list
    index: dict
    table: list
    twist_cols: list
    source: HomNambuAlgebra | None = None
    l_action: list | None = None
    _images: dict = field(default_factory=dict, init=False, repr=False)

    @cached_property
    def twist_rows(self) -> list:
        """``twist_rows[t]``: ``(i, w)`` for each b_i whose twist has w at b_t."""
        return read_backwards(enumerate(self.twist_cols), self.dim)

    @cached_property
    def bracket_rows(self) -> list:
        """``bracket_rows[t]``: ``(a, b, w)`` for each [b_a, b_b] with w at b_t."""
        return read_backwards(_grid(self.table), self.dim)

    @cached_property
    def l_action_rows(self) -> list:
        """``l_action_rows[t]``: ``(b, z, w)`` for each L(b_b).e_z with w at e_t."""
        return read_backwards(_grid(self.l_action), self.source.dim)

    def twisted(self, blocks: tuple) -> list:
        """The twist images ``(args, weight)`` of a block tuple, in
        :func:`itertools.product` order, built on first use."""
        if (found := self._images.get(blocks)) is None:
            found = self._images[blocks] = [
                (tuple([x for x, _ in choice]), math.prod(w for _, w in choice))
                for choice in itertools.product(*[self.twist_rows[x] for x in blocks])
            ]
        return found

    def bracket_sparse(self, x: dict, y: dict) -> dict:
        out = {}
        for i, a in x.items():
            row = self.table[i]
            for j, b in y.items():
                for k, v in row[j].items():
                    sv_add(out, k, a * b * v)
        return out

    def twist_sparse(self, x: dict) -> dict:
        out = {}
        for i, a in x.items():
            for k, v in self.twist_cols[i].items():
                sv_add(out, k, a * v)
        return out

    def twist_matrix(self) -> linalg.SparseMatrix:
        entries = {(r, i): v for i, col in enumerate(self.twist_cols) for r, v in col.items()}
        return linalg.SparseMatrix(self.dim, self.dim, entries)


def _grid(table):
    """``(a, b, cell)`` for every cell of a table of rows."""
    return ((a, b, cell) for a, row in enumerate(table) for b, cell in enumerate(row))


def l_action_sparse(alg: HomNambuAlgebra, wedge, x: dict, z: dict) -> dict:
    """L(x).z for x in wedge coordinates and z a sparse vector."""
    out = {}
    for widx, coeff in x.items():
        args = [{i: ONE} for i in wedge[widx]] + [z]
        for k, v in bracket_eval_sparse(alg, args).items():
            sv_add(out, k, coeff * v)
    return out


def induced_algebra(alg: HomNambuAlgebra, basis, coords) -> HomLeibnizAlgebra:
    """The induced bracket, twist and L-action on blocks of n-1 indices.

    ``basis`` lists the blocks (wedge or tensor tuples) and ``coords``
    expands a product of n-1 sparse vectors into block coordinates.
    [x, y] inserts L(x) into each slot of y and the twist into the
    others; integral values are ints.
    """
    n, d = alg.arity, alg.dim
    alpha_cols = alg.twist_columns(1)
    l_action = [[alg.bracket_basis_sparse(t + (z,)) for z in range(d)] for t in basis]
    table = []
    for lx in l_action:
        row = []
        for yt in basis:
            out = {}
            for s in range(n - 1):
                if lx[yt[s]]:
                    factors = [alpha_cols[y] for y in yt]
                    factors[s] = lx[yt[s]]
                    for k, v in coords(factors).items():
                        out[k] = out.get(k, 0) + v
            row.append(exact_vec(out))
        table.append(row)
    twist_cols = [exact_vec(coords([alpha_cols[k] for k in t])) for t in basis]
    return HomLeibnizAlgebra(
        dim=len(basis), basis=basis, index={t: i for i, t in enumerate(basis)}, table=table,
        twist_cols=twist_cols, source=alg, l_action=l_action,
    )


def build_fundamental(alg: HomNambuAlgebra) -> HomLeibnizAlgebra:
    """The induced bracket on the wedge basis of (n-1)-wedges."""
    wedge = wedge_basis(alg.dim, alg.arity - 1)
    windex = {t: i for i, t in enumerate(wedge)}
    return induced_algebra(alg, wedge, partial(wedge_of_vectors, windex))


def fundamental_of(alg: HomNambuAlgebra) -> HomLeibnizAlgebra:
    """Memoized fundamental algebra (algebras are immutable once built)."""
    cached = getattr(alg, "_fundamental", None)
    if cached is None:
        cached = build_fundamental(alg)
        alg._fundamental = cached
    return cached


def tensor_of_vectors(tindex, vectors) -> dict:
    """Expand a decomposable tensor of sparse vectors into coordinates."""
    out = {}
    for t, w in expand(vectors):
        k = tindex[t]
        out[k] = out.get(k, 0) + w
    return {k: v for k, v in out.items() if v}


def build_tensor_fundamental(alg: HomNambuAlgebra) -> HomLeibnizAlgebra:
    """The induced binary bracket on (n-1)-fold tensor blocks."""
    basis = tensor_basis(alg.dim, alg.arity - 1)
    tindex = {t: i for i, t in enumerate(basis)}
    return induced_algebra(alg, basis, partial(tensor_of_vectors, tindex))


def tensor_fundamental_of(alg: HomNambuAlgebra) -> HomLeibnizAlgebra:
    cached = getattr(alg, "_tensor_fundamental", None)
    if cached is None:
        cached = build_tensor_fundamental(alg)
        alg._tensor_fundamental = cached
    return cached


def check_hom_leibniz(leib: HomLeibnizAlgebra):
    """Exhaustive twisted Leibniz identity
    [a(x), [y, z]] = [[x, y], a(z)] + [a(y), [x, z]] over basis triples,
    read off ``table`` and ``twist_cols``.

    Returns violations ``(i, j, k, difference)``.
    """
    violations = []
    table, twist, bracket = leib.table, leib.twist_cols, leib.bracket_sparse
    for i, j, k in itertools.product(range(leib.dim), repeat=3):
        diff = bracket(twist[i], table[j][k])
        for term in (bracket(table[i][j], twist[k]), bracket(twist[j], table[i][k])):
            for key, v in term.items():
                sv_add(diff, key, -v)
        if diff:
            violations.append((i, j, k, diff))
    return violations


def check_l_compatibility(alg: HomNambuAlgebra):
    """Exhaustive check that L intertwines the induced bracket:
    L([x,y]).a(z) = L(a(x)).(L(y).z) - L(a(y)).(L(x).z)
    over wedge-basis pairs x, y and basis vectors z, read off the tables
    of :func:`fundamental_of` (``l_action``, ``table``, ``twist_cols``).

    Returns violations ``(i, j, z, difference)``.
    """
    fund = fundamental_of(alg)
    action, alpha_cols = fund.l_action, alg.twist_columns(1)
    violations = []
    for i, j, z in itertools.product(range(fund.dim), range(fund.dim), range(alg.dim)):
        diff = {}
        for sign, x, v in (
            (1, fund.table[i][j], alpha_cols[z]),
            (-1, fund.twist_cols[i], action[j][z]),
            (1, fund.twist_cols[j], action[i][z]),
        ):
            for b, xb in x.items():
                for t, vt in v.items():
                    for k, w in action[b][t].items():
                        sv_add(diff, k, sign * xb * vt * w)
        if diff:
            violations.append((i, j, z, diff))
    return violations
