"""Cochain spaces and the coboundary with values in a representation.

A degree-p cochain takes p arguments from the fundamental set (wedges of
n-1 algebra elements) plus one algebra element, i.e. p(n-1)+1 vector
slots, and takes values in the module V of a representation (rho, nu):
rho sends n-1 algebra elements, skew, to an endomorphism of V and nu is
a linear map of V.  :class:`Cochain` is the one container for every
kind and layout: ``{key: {r: v}}``, the nonzero components v of the value
at each key with a stored nonzero value, scalar values (V = Q) at
component 0 and algebra elements (the adjoint module) at their basis
indices.

Four storage modes fix the symmetry type:

* ``fused`` (default): the last wedge block and the final slot together
  form one fully skew group of n indices.  This is the space the
  complexes are stated on; at p = 1 a cochain is an alternating n-form.
* ``split``: the final slot is independent of the blocks.  The split
  space contains the fused one; reading a coboundary there is the
  pointwise statement, and :func:`coboundary_preserves_fusion` compares
  it with the fused-output operator that the reports eliminate.
* ``tensor`` (internal, for :mod:`homnambu.bridge`): the split layout
  over (n-1)-fold tensor blocks, with the tables of
  :func:`~homnambu.fundamental.tensor_fundamental_of`; a key is its own
  argument tuple.  No file or command-line option names it.
* ``leibniz`` (internal, for the bridge): plain p-tuples of tensor-block
  ids, with adjoint values in the tensor fundamental algebra T itself
  (its dimension is the block count); degree 0 is the empty key.  These
  are the Hom-Leibniz cochains of T with values in T.

Canonical keys: ``(b_1, ..., b_{p-1}, m)`` in fused mode, with block ids
``b_i`` indexing the lexicographic wedge basis and ``m`` indexing
increasing n-tuples; ``(b_1, ..., b_p, z)`` in split and tensor mode
with ``z`` a basis index; ``(b_1, ..., b_p)`` in Leibniz mode.  Keys are
numbered in sorted order (:meth:`CochainSpace.index`), and value
component c of key number k is coordinate k * dim V + c.

The degree-p coboundary is the sum of four terms (1-based signs, a the
twist, [x_i, x_j] the fundamental-set bracket, L(x).z = [x, z] and
y = x_{p+1} = y^1 ^ ... ^ y^(n-1))::

    d1 = sum_{i<j} (-1)^i psi(a(x_1), ..., ^x_i, ..., [x_i,x_j], ..., a(x_{p+1}), a(z))
    d2 = sum_i (-1)^i psi(a(x_1), ..., ^x_i, ..., a(x_{p+1}), L(x_i).z)
    d3 = sum_i (-1)^(i+1) rho(a^p(x_i)) psi(x_1, ..., ^x_i, ..., x_{p+1}, z)
    d4 = (-1)^p sum_s (-1)^(n-s) rho(a^p(y^1), ..., ^y^s, ..., a^p(z)) psi(x_1, ..., x_p, y^s)

d1 and d2 act on every value component alike; with rho = 0 they are the
whole coboundary.  Degree 0 is the case p = 0: a cochain is a map
psi: L -> V with keys ``(z,)`` (one layout, so its mode is ``split``),
there are no bracket pairs, a^0 = id, and the four terms reduce to

    (d psi)(x_1, ..., x_n) = sum_i (-1)^(n-i) rho(x_1, ..., ^x_i, ..., x_n) psi(x_i) - psi([x])

(d2 is -psi([x]), d3 the term i = n and d4 the others).

The operator is stated once, as a scatter (:func:`coboundary_scatter`):
the four terms read backwards, from one input key to every output key
that reads psi there, as scalar weights (d1, d2) and families of linear
maps of the value (d3, d4).  Every map of the package is stated in this
shape: the equivariance rows here, and the Leibniz coboundary and the
lift in :mod:`homnambu.bridge`.  :func:`scatter_matrix` is the one
matrix builder, column by column, and :func:`scatter_values` the one
pointwise apply: it visits only the stored keys, forms each map's image
once per key from the value's side, and drops a sum as soon as it
cancels.

Compatible cochains satisfy nu o psi = psi o a: the kernel of
:func:`equivariance_matrix`, checked pointwise by
:func:`compatibility_violations`.  :func:`cohomology` is the one report
for any representation: given the operator of a complex, and optionally
its compatibility rows, it returns a :class:`CohomologyReport` of
cocycles, coboundaries and their quotient.  The trivial representation
(V = Q, rho = 0, nu = 1) gives the scalar complex, reported on all
cochains; the adjoint representation gives the algebra-valued complex,
reported on the compatible ones.  The degree-0 operator of the level-k
action of :mod:`homnambu.derivations` states the derivation rule.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import linalg
from .algebra import HomNambuAlgebra
from .fundamental import fundamental_of, tensor_fundamental_of
from .indices import exact_vec, expand, sort_with_sign, sv_add, tensor_basis, wedge_basis

ZERO = Fraction(0)

MODES = ("fused", "split", "tensor", "leibniz")  # the last two are internal, for the bridge


class CochainError(ValueError):
    pass


class CochainSpace:
    """Coordinate system for degree-p cochains of one algebra; degree 0
    is Hom(L, V), whose one layout is the split one (in the Leibniz
    layout, the empty key)."""

    def __init__(self, alg: HomNambuAlgebra, degree: int, kind: str, mode: str = "fused"):
        if degree < 0:
            raise CochainError("CochainSpace needs degree >= 0")
        if kind not in ("scalar", "adjoint"):
            raise CochainError(f"unknown kind {kind!r}")
        if mode not in MODES:
            raise CochainError(f"unknown mode {mode!r}")
        self.alg = alg
        self.degree = degree
        self.kind = kind
        self.mode = mode if degree or mode == "leibniz" else "split"
        d, n = alg.dim, alg.arity
        # the block basis: (n-1)-wedges, or all (n-1)-tuples over tensor blocks
        self.wedge = (wedge_basis if mode in ("fused", "split") else tensor_basis)(d, n - 1)
        self.windex = {t: i for i, t in enumerate(self.wedge)}
        self.nforms = wedge_basis(d, n)
        self.nindex = {t: i for i, t in enumerate(self.nforms)}
        w = len(self.wedge)
        # a key is `lead` block ids and one last digit below `last`: an
        # n-form id (fused), a block id (Leibniz) or a basis index
        self.lead = degree - 1 if self.mode in ("fused", "leibniz") else degree
        self.last = {"fused": len(self.nforms), "leibniz": w}.get(self.mode, d)
        self.nkeys = w ** self.lead * self.last if self.lead >= 0 else 1
        self.value_dim = 1 if kind == "scalar" else w if self.mode == "leibniz" else d
        self.dim = self.nkeys * self.value_dim

    @cached_property
    def keys(self) -> list:
        """Every canonical key in coordinate order, built on first use."""
        if self.lead < 0:
            return [()]
        return [
            tuple(bs) + (z,)
            for bs in itertools.product(range(len(self.wedge)), repeat=self.lead)
            for z in range(self.last)
        ]

    def index(self, key) -> int:
        """Position of a key in :attr:`keys`, read off its digits."""
        i = 0
        for b in key[:-1]:
            i = i * len(self.wedge) + b
        return i * self.last + key[-1] if key else 0

    @cached_property
    def fuse(self) -> list:
        """The fused group of a wedge id and a final index: (n-form id, sign)."""
        fused = [[sort_with_sign(t + (z,)) for z in range(self.alg.dim)] for t in self.wedge]
        return [[(self.nindex.get(m), sign) for m, sign in row] for row in fused]

    def decode_args(self, key):
        """Canonical argument tuple of a key: (block ids, final index)."""
        if self.mode == "fused":
            m = self.nforms[key[-1]]
            return key[:-1] + (self.windex[m[:-1]],), m[-1]
        return key[:-1], key[-1]

    def canonical_key(self, block_ids, z):
        """Key and sign for blocks given as wedge ids plus final index;
        sign 0 when the fused group has a repeat."""
        if self.mode != "fused":
            return tuple(block_ids) + (z,), 1
        m, sign = self.fuse[block_ids[-1]][z]
        return (tuple(block_ids[:-1]) + (m,), sign) if sign else (None, 0)

    def functional(self, blocks, z) -> dict:
        """Weights with which a cochain's stored coordinates are read
        when evaluated at the given sparse arguments.

        ``blocks``: p sparse dicts over wedge ids; ``z``: sparse dict
        over basis indices.  Returns ``{key: weight}``.
        """
        if len(blocks) != self.degree:
            raise CochainError(f"need {self.degree} block arguments")
        if self.mode != "fused":  # a key is its own argument tuple
            return dict(expand([*blocks, z]))
        out = {}
        for ids, w in expand(blocks):
            for zi, zc in z.items():
                key, sign = self.canonical_key(ids, zi)
                if sign:
                    sv_add(out, key, w * zc * sign)
        return out


@dataclass
class Cochain:
    """Stored values over a space, ``{key: {r: v}}`` with v the
    component r of the value at key, for every kind and layout: a scalar
    value is component 0.  Only nonzero components and values are
    stored, and every builder here stores keys in sorted order."""

    space: CochainSpace
    coeffs: dict

    @classmethod
    def zero(cls, space: CochainSpace) -> "Cochain":
        return cls(space, {})

    @classmethod
    def from_flat(cls, space: CochainSpace, flat) -> "Cochain":
        flat = list(flat)
        if len(flat) != space.dim:
            raise CochainError("flat vector length mismatch")
        keys, dv, coeffs = space.keys, space.value_dim, {}
        for i, v in enumerate(flat):  # entry i is component i % dv of key number i // dv
            if v:
                coeffs.setdefault(keys[i // dv], {})[i % dv] = Fraction(v)
        return cls(space, coeffs)

    def to_flat(self) -> tuple:
        out, dv = [ZERO] * self.space.dim, self.space.value_dim
        for key, vec in self.coeffs.items():
            base = self.space.index(key) * dv
            for r, v in vec.items():
                out[base + r] = v
        return tuple(out)

    @classmethod
    def random(cls, space: CochainSpace, rng: random.Random, span: int = 3) -> "Cochain":
        flat = [Fraction(rng.randint(-span, span)) for _ in range(space.dim)]
        return cls.from_flat(space, flat)

    def value(self, block_ids, z) -> dict:
        """Sparse value at blocks given by wedge ids and a final basis index."""
        key, sign = self.space.canonical_key(tuple(block_ids), z)
        stored = self.coeffs.get(key) if sign else None
        return {r: sign * v for r, v in stored.items()} if stored else {}

    def evaluate(self, blocks, z) -> dict:
        """Multilinear evaluation at sparse arguments (same shapes as
        :meth:`CochainSpace.functional`), as a sparse value."""
        total = {}
        for key, w in self.space.functional(blocks, z).items():
            for r, v in self.coeffs.get(key, {}).items():
                sv_add(total, r, w * v)
        return total


def _rho_columns(rep) -> dict:
    """Sparse columns of every nonzero rho matrix, by increasing tuple,
    integral entries as ints."""
    out = {}
    for key, m in rep.rho.items():
        cols = [exact_vec(m.column(c)) for c in range(rep.dim)]
        if any(cols):
            out[key] = cols
    return out


def _rho_weights(rho_cols: dict, args) -> dict:
    """Sparse columns ``{c: column}`` of rho at n-1 sparse vectors (skew
    multilinear expansion); empty when rho vanishes there."""
    out = {}
    for ids, coeff in expand(args):
        canon, sign = sort_with_sign(ids)
        cols = rho_cols.get(canon) if sign else None
        if cols is None:
            continue
        coeff *= sign
        for c, col in enumerate(cols):
            for r, v in col.items():
                sv_add(out.setdefault(c, {}), r, coeff * v)
    return {c: col for c, col in out.items() if col}


def _block_algebra(alg: HomNambuAlgebra, mode: str):
    """The induced algebra on the blocks of a mode: tensor or wedge."""
    return tensor_fundamental_of(alg) if mode == "tensor" else fundamental_of(alg)


def _split_args(space: CochainSpace):
    """``(reps, tails)``: ``reps(key)`` lists the split arguments
    ``(blocks, z, sign)`` with psi(blocks, z) = sign psi(key), one per
    slot of the n-form in fused mode; ``tails[c][z]`` ends the key whose
    row holds (..., c, z), or is None: in fused mode only the argument
    :meth:`CochainSpace.decode_args` gives, z above every index of c."""
    if space.mode != "fused":
        tails = [[(c, z) for z in range(space.alg.dim)] for c in range(len(space.wedge))]
        return (lambda key: [(key[:-1], key[-1], 1)]), tails
    reps, tails = [[] for _ in space.nforms], [[None] * space.alg.dim for _ in space.wedge]
    for c, row in enumerate(space.fuse):
        for z, (m, sign) in enumerate(row):
            if sign:
                reps[m].append((c, z, sign))
                if z > space.wedge[c][-1]:
                    tails[c][z] = (m,)
    return (lambda key: [(key[:-1] + (c,), z, sign) for c, z, sign in reps[key[-1]]]), tails


def _inverse(cells, width: int) -> list:
    """``out[t] = [(*at, w)]`` for each ``(*at, cell)`` whose sparse cell
    has w at t."""
    out = [[] for _ in range(width)]
    for *at, cell in cells:
        for t, w in cell.items():
            out[t].append((*at, w))
    return out


def _grid(table):
    """``(a, b, cell)`` for every cell of a table of rows."""
    return ((a, b, cell) for a, row in enumerate(table) for b, cell in enumerate(row))


def _twisted(choice) -> tuple:
    """Arguments and weight of one choice of ``(..., arg, weight)`` items."""
    w = 1
    for item in choice:
        w *= item[-1]
    return tuple([item[-2] for item in choice]), w


def _family(ops: dict, dv: int) -> list:
    """``ops`` ``{a: {c: column}}`` seen from the value's side: entry c
    lists ``(a, column)`` for every map a that reads component c."""
    family = [[] for _ in range(dv)]
    for a, op in ops.items():
        for c, column in op.items():
            family[c].append((a, column))
    return family


def coboundary_scatter(alg: HomNambuAlgebra, rep, p: int, mode: str = "fused", out_mode=None):
    """The degree-p coboundary with values in ``rep``, p >= 0, read
    backwards: ``(space_in, space_out, scatter)``.  ``scatter(key)``
    gives ``(scalars, maps)``: ``{out_key: w}`` adds w psi(key) on every
    value component (d1 and d2); each ``(family, place)`` in ``maps`` is
    a family of linear maps of the value, ``family[c]`` listing
    ``(a, column)`` for each map a that reads component c, and
    ``place(a)`` the ``(out_key, w)`` that add w times map a's image of
    psi(key).  d3 is one family, rho(a^p(x)) per block x; d4 one family
    per slot s and final index, rho(a^p(y^1), ..., ^y^s, ..., a^p(z)) per
    output tail.  The inverse tables are built once per call with
    integral values as ints, so integral structure constants give
    integer arithmetic.
    """
    space_in = CochainSpace(alg, p, "scalar", mode)
    space_out = CochainSpace(alg, p + 1, "scalar", out_mode or mode)
    fund = _block_algebra(alg, space_out.mode)
    d, n = alg.dim, alg.arity
    twist = _inverse(enumerate(fund.twist_cols), fund.dim)
    bracket, laction = _inverse(_grid(fund.table), fund.dim), _inverse(_grid(fund.l_action), d)
    alpha = _inverse(enumerate(exact_vec(alg.twist_column_sparse(i)) for i in range(d)), d)
    representatives, tails = _split_args(space_in)[0], _split_args(space_out)[1]
    # d3 weights rho(a^p(x)) per block x; d4 weights
    # rho(a^p(y^1), ..., ^y^s, ..., a^p(z)) per block y with y^s = t, by (s, t)
    third, fourth = {}, {}
    rho_cols = _rho_columns(rep)
    if rho_cols:
        alpha_p = [exact_vec(alg.twist_column_sparse(i, p)) for i in range(d)]
        for b, y in enumerate(fund.basis):
            if weights := _rho_weights(rho_cols, [alpha_p[t] for t in y]):
                third[b] = weights
            for s in range(n - 1):
                for z in range(d):
                    args = [alpha_p[t] for t in y[:s] + y[s + 1:]] + [alpha_p[z]]
                    if (tail := tails[b][z]) and (weights := _rho_weights(rho_cols, args)):
                        fourth.setdefault((s, y[s]), {})[tail] = weights
    third_blocks, third = list(third), _family(third, rep.dim)
    fourth = {st: _family(ops, rep.dim) for st, ops in fourth.items()}

    def inserted(args, b, upto, z):
        """``(out_key, (-1)^i)`` for block b in slot i <= upto of args,
        z final, where that argument has a row."""
        if args and (tail := tails[args[-1]][z]):
            head = args[:-1]
            for i in range(min(upto, p - 1) + 1):
                yield head[:i] + (b,) + head[i:] + tail, 1 - 2 * (i % 2)
        if upto == p and (tail := tails[b][z]):
            yield args + tail, 1 - 2 * (p % 2)

    def appended(u, w):
        return lambda tail: ((u + tail, w),)

    def scatter(key):
        scalars, maps, third_at = {}, [], {}
        for u, t, sign in representatives(key):
            twisted = [twist[x] for x in u]
            # d1: [x_i, x_j] in slot q of u (so i <= q), the twist in the others
            for q in range(p):
                for choice in itertools.product(*twisted[:q], bracket[u[q]], *twisted[q + 1:]):
                    args, w = _twisted(choice)
                    for z, wz in alpha[t]:
                        for out, s in inserted(args, choice[q][0], q, z):
                            scalars[out] = scalars.get(out, 0) - s * sign * w * wz
            # d2: L(x_i).z in the final slot
            for choice in itertools.product(*twisted):
                args, w = _twisted(choice)
                for b, z, wl in laction[t]:
                    for out, s in inserted(args, b, p, z):
                        scalars[out] = scalars.get(out, 0) - s * sign * w * wl
            for b in third_blocks:  # d3
                for out, s in inserted(u, b, p, t):
                    third_at.setdefault(b, []).append((out, s * sign))
            for s in range(n - 1):  # d4, sign (-1)^p (-1)^(n-s) with 1-based s
                if family := fourth.get((s, t)):
                    maps.append((family, appended(u, (-1) ** (p + n - 1 - s) * sign)))
        if third_at:
            maps.append((third, lambda b: third_at.get(b, ())))
        return scalars, maps

    return space_in, space_out, scatter


def equivariance_scatter(alg: HomNambuAlgebra, rep, p: int, mode: str = "fused"):
    """Rows nu . psi(args) - psi(a args) over the keys of the degree-p
    space, p >= 0, as ``(space, space, scatter)`` in the format of
    :func:`coboundary_scatter`; the compatible cochains are its zeros."""
    space, d = CochainSpace(alg, p, "scalar", mode), alg.dim
    twist = _inverse(enumerate(_block_algebra(alg, mode).twist_cols), len(space.wedge))
    alpha = _inverse(enumerate(exact_vec(alg.twist_column_sparse(i)) for i in range(d)), d)
    representatives, tails = _split_args(space)
    nu = _family({0: {c: col for c in range(rep.dim) if (col := exact_vec(rep.nu.column(c)))}},
                 rep.dim)

    def scatter(key):
        scalars = {}
        for u, t, sign in representatives(key):
            for choice in itertools.product(*[twist[x] for x in u]):
                args, w = _twisted(choice)
                for z, wz in alpha[t]:
                    if tail := (tails[args[-1]][z] if args else (z,)):
                        out = args[:-1] + tail
                        scalars[out] = scalars.get(out, 0) - sign * w * wz
        return scalars, [(nu, lambda _: ((key, 1),))]

    return space, space, scatter


def scatter_matrix(space_in, space_out, scatter, dv: int, dv_out=None) -> linalg.SparseMatrix:
    """The operator of a scatter, column by column: component c of the
    k-th input key is column k * dv + c, component r of output key K is
    row ``space_out.index(K) * dv_out + r`` (``dv_out`` is dv unless the
    map changes the value space, as the lift does).  Row numbers are read
    off the digits of K: a table of the output keys would be the largest
    allocation of the build."""
    dv_out = dv_out or dv
    index, entries = space_out.index, {}
    for k, key in enumerate(space_in.keys):
        scalars, maps = scatter(key)
        col, block = k * dv, {}  # the columns of this key
        for out, w in scalars.items():
            row = index(out) * dv_out
            for r in range(dv):
                block[row + r, col + r] = w
        for family, place in maps:
            rows = {}  # map a -> [(first row of an output key, weight)]
            for c, reads in enumerate(family):
                for a, column in reads:
                    if (targets := rows.get(a)) is None:
                        targets = rows[a] = [(index(out) * dv_out, w) for out, w in place(a)]
                    for row, w in targets:
                        for r, v in column.items():
                            cell = (row + r, col + c)
                            block[cell] = block.get(cell, 0) + w * v
        entries.update((cell, v) for cell, v in block.items() if v)
    return linalg.SparseMatrix(space_out.nkeys * dv_out, space_in.nkeys * dv, entries)


def scatter_values(values: dict, scatter) -> dict:
    """A scatter applied to stored values ``{key: sparse vector}``,
    visiting only those keys: ``{out_key: sparse vector}`` in key order.

    Scalar weights come merged per output key.  Each map's image is
    formed once per stored key from the value's side: for each stored
    component, the columns of the maps that read it.  A component or key
    whose sum cancels is dropped at once, so partial sums that cancel
    later hold no memory, and each kept sum is rebuilt to its size at
    the end (a dict keeps the room of its cancelled entries).
    """
    acc = {}

    def add(weights, items):
        """``acc[out] += w * vector`` for each ``(out, w)``, ``items`` the
        vector's entries."""
        for out, w in weights:
            if not w:
                continue
            if out not in acc:
                acc[out] = target = {}
                for r, x in items:
                    target[r] = w * x
                continue
            target = acc[out]
            for r, x in items:
                if new := target.get(r, 0) + w * x:
                    target[r] = new
                else:
                    del target[r]
            if not target:
                del acc[out]

    for key, vec in values.items():
        scalars, maps = scatter(key)
        add(scalars.items(), vec.items())
        for family, place in maps:
            images = {}
            for c, x in vec.items():
                for a, column in family[c]:
                    if a not in images:
                        images[a] = image = {}
                        for r, v in column.items():
                            image[r] = x * v
                        continue
                    image = images[a]
                    for r, v in column.items():
                        if new := image.get(r, 0) + x * v:
                            image[r] = new
                        else:
                            del image[r]
            for a, image in images.items():
                if image:
                    add(place(a), image.items())
    for key, vec in acc.items():
        acc[key] = {r: v for r, v in vec.items()}
    return {key: acc[key] for key in sorted(acc)}


def coboundary_matrix(
    alg: HomNambuAlgebra, rep, p: int, mode: str = "fused", out_mode: str | None = None
) -> linalg.SparseMatrix:
    """Sparse matrix of the degree-p coboundary with values in ``rep``,
    p >= 0: :func:`scatter_matrix` of :func:`coboundary_scatter`."""
    return scatter_matrix(*coboundary_scatter(alg, rep, p, mode, out_mode), rep.dim)


def equivariance_matrix(alg: HomNambuAlgebra, rep, p: int, mode="fused") -> linalg.SparseMatrix:
    """Matrix of :func:`equivariance_scatter`; the compatible cochains
    are its kernel."""
    return scatter_matrix(*equivariance_scatter(alg, rep, p, mode), rep.dim)


def compatibility_violations(alg: HomNambuAlgebra, rep, p: int, mode: str, values: dict) -> list:
    """Keys where nu . psi != psi o a, in key order, for stored values
    ``{key: sparse vector}``; empty iff psi is compatible."""
    return list(scatter_values(values, equivariance_scatter(alg, rep, p, mode)[2]))


def apply_coboundary(rep, phi: Cochain, out_mode: str | None = None) -> Cochain:
    """d phi with values in ``rep``, by one exact mat-vec."""
    space = phi.space
    m = coboundary_matrix(space.alg, rep, space.degree, space.mode, out_mode)
    space_out = CochainSpace(space.alg, space.degree + 1, space.kind, out_mode or space.mode)
    return Cochain.from_flat(space_out, linalg.sparse_mat_vec(m, phi.to_flat()))


def coboundary_preserves_fusion(alg: HomNambuAlgebra, rep, p: int) -> bool:
    """Does the degree-p coboundary send fused cochains to fused cochains?

    The operator into the split space must hold, on every value
    component, sign times row K of the fused-output operator at each
    split key whose group sorts to K with that sign, and nothing at keys
    whose group repeats an index.
    """
    split = coboundary_matrix(alg, rep, p, "fused", "split")
    fused = coboundary_matrix(alg, rep, p, "fused")
    space, d, dv = CochainSpace(alg, p + 1, "scalar", "fused"), alg.dim, rep.dim
    # fused key (*head, m) -> split keys (*head, c, z), number head * w * d + c * d + z
    tails, width = [[] for _ in space.nforms], len(space.wedge) * d
    for c, row in enumerate(space.fuse):
        for z, (m, sign) in enumerate(row):
            if sign:
                tails[m].append((c * d + z, sign))
    expected = {}
    for (row, col), v in fused.entries.items():
        head, m = divmod(row // dv, len(space.nforms))
        for t, sign in tails[m]:
            expected[(head * width + t) * dv + row % dv, col] = sign * v
    return split.entries == expected


# -- the cohomology report ----------------------------------------------------


@dataclass
class CohomologyReport:
    """Cocycles, coboundaries and their quotient at one degree.

    ``dim_compatible`` is the dimension of the compatible cochains
    (``dim_c`` when no compatibility is imposed); ``dim_h_no_defect`` is
    the quotient without degree-0 coboundaries, so ``dim_z`` at p = 1
    and ``dim_h`` above.
    """

    degree: int
    dim_c: int
    dim_compatible: int
    dim_z: int
    dim_b: int
    dim_h: int
    dim_h_no_defect: int
    cocycle_basis: linalg.SubspaceBasis
    coboundary_basis: linalg.SubspaceBasis
    mode: str = "fused"


def cohomology(p: int, mode: str, operator, compatibility=None) -> CohomologyReport:
    """The report at degree p >= 0 of one complex: ``operator(q, mode)``
    is its degree-q matrix, into the same mode, and ``compatibility(q,
    mode)``, when given, the rows whose kernel is the compatible cochains.

    Cocycles are the kernel of the operator with the compatibility rows
    stacked under it.  A fused cochain's coboundary is fused for any
    algebra with a skew bracket and a skew rho: d1 and d2 with i <= p
    together are the twisted derivation action on the whole last group,
    and d3 and d4 the skew rho-sum over it, so the fused rows already
    hold every split row up to sign and no split row is built.  The
    tests check this with :func:`coboundary_preserves_fusion` over the
    fixtures and representations.  Coboundaries are the image of the
    degree p - 1 operator on compatible cochains.
    """
    if p < 0:
        raise ValueError("degree must be >= 0")
    delta = operator(p, mode)
    prev = operator(p - 1, mode) if p else linalg.SparseMatrix(delta.cols, 0, {})
    dim_compatible = delta.cols
    if compatibility is not None:
        rows = compatibility(p, mode)
        dim_compatible -= linalg.rank(rows)
        delta = linalg.stack(delta, rows)
        if p:
            prev = linalg.restrict_columns(prev, linalg.kernel_basis(compatibility(p - 1, mode)))
    z, b, dim_h = linalg.homology(delta, prev)
    return CohomologyReport(
        p, delta.cols, dim_compatible, z.dim, b.dim, dim_h, z.dim if p == 1 else dim_h, z, b, mode
    )
