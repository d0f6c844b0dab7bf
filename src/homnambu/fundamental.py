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
``tensor`` cochain mode of :mod:`homnambu.cochains`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from . import linalg
from .algebra import HomNambuAlgebra, bracket_eval_sparse
from .indices import exact_vec, expand, sort_with_sign, sv_add, tensor_basis, wedge_basis

ONE = Fraction(1)


def wedge_of_indices(windex, idx_tuple) -> dict:
    """Canonical sparse wedge coordinates of e_{i1} ^ ... ^ e_{i_{n-1}}."""
    canon, sign = sort_with_sign(idx_tuple)
    if sign == 0:
        return {}
    return {windex[canon]: Fraction(sign)}


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
    """

    dim: int
    basis: list
    index: dict
    table: list
    twist_cols: list
    source: HomNambuAlgebra | None = None
    l_action: list | None = None

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


def l_action_sparse(alg: HomNambuAlgebra, wedge, x: dict, z: dict) -> dict:
    """L(x).z for x in wedge coordinates and z a sparse vector."""
    out = {}
    for widx, coeff in x.items():
        args = [{i: ONE} for i in wedge[widx]] + [z]
        for k, v in bracket_eval_sparse(alg, args).items():
            sv_add(out, k, coeff * v)
    return out


def l_action(alg: HomNambuAlgebra, x_vectors, z):
    """L(x).z on a decomposable wedge given as n-1 dense vectors."""
    sx = [{i: v for i, v in enumerate(linalg.vec(vv)) if v} for vv in x_vectors]
    sz = {i: v for i, v in enumerate(linalg.vec(z)) if v}
    out = bracket_eval_sparse(alg, sx + [sz])
    return tuple(out.get(i, Fraction(0)) for i in range(alg.dim))


def induced_algebra(alg: HomNambuAlgebra, basis, coords) -> HomLeibnizAlgebra:
    """The induced bracket, twist and L-action on blocks of n-1 indices.

    ``basis`` lists the blocks (wedge or tensor tuples) and ``coords``
    expands a product of n-1 sparse vectors into block coordinates.
    [x, y] inserts L(x) into each slot of y and the twist into the
    others; integral values are ints.
    """
    n, d = alg.arity, alg.dim
    alpha_cols = [exact_vec(alg.twist_column_sparse(i)) for i in range(d)]
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
    [a(x), [y, z]] = [[x, y], a(z)] + [a(y), [x, z]] over basis triples.

    Returns violations ``(i, j, k, difference)``.
    """
    violations = []
    units = [{i: ONE} for i in range(leib.dim)]
    for i in range(leib.dim):
        ax = leib.twist_sparse(units[i])
        for j in range(leib.dim):
            ay = leib.twist_sparse(units[j])
            xy = leib.bracket_sparse(units[i], units[j])
            for k in range(leib.dim):
                az = leib.twist_sparse(units[k])
                lhs = leib.bracket_sparse(ax, leib.bracket_sparse(units[j], units[k]))
                rhs = leib.bracket_sparse(xy, az)
                for key, v in leib.bracket_sparse(ay, leib.bracket_sparse(units[i], units[k])).items():
                    sv_add(rhs, key, v)
                diff = dict(lhs)
                for key, v in rhs.items():
                    sv_add(diff, key, -v)
                if diff:
                    violations.append((i, j, k, diff))
    return violations


def check_l_compatibility(alg: HomNambuAlgebra):
    """Exhaustive check that L intertwines the induced bracket:
    L([x,y]).a(z) = L(a(x)).(L(y).z) - L(a(y)).(L(x).z)
    over wedge-basis pairs x, y and basis vectors z.

    Returns violations ``(i, j, z, difference)``.
    """
    fund = fundamental_of(alg)
    wedge = fund.basis
    alpha_cols = [alg.twist_column_sparse(i) for i in range(alg.dim)]
    units = [{i: ONE} for i in range(len(wedge))]
    violations = []
    for i in range(len(wedge)):
        ax = fund.twist_sparse(units[i])
        for j in range(len(wedge)):
            ay = fund.twist_sparse(units[j])
            xy = fund.bracket_sparse(units[i], units[j])
            for z in range(alg.dim):
                az = alpha_cols[z]
                lhs = l_action_sparse(alg, wedge, xy, az)
                rhs = l_action_sparse(
                    alg, wedge, ax, l_action_sparse(alg, wedge, units[j], {z: ONE})
                )
                for key, v in l_action_sparse(
                    alg, wedge, ay, l_action_sparse(alg, wedge, units[i], {z: ONE})
                ).items():
                    sv_add(rhs, key, -v)
                diff = dict(lhs)
                for key, v in rhs.items():
                    sv_add(diff, key, -v)
                if diff:
                    violations.append((i, j, z, diff))
    return violations
