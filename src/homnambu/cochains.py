"""Cochain spaces and the coboundary with values in a representation.

A degree-p cochain takes p arguments from the fundamental set (wedges of
n-1 algebra elements) plus one algebra element, i.e. p(n-1)+1 vector
slots, and takes values in the module V of a representation (rho, nu):
rho sends n-1 algebra elements, skew, to an endomorphism of V and nu is
a linear map of V.  :class:`Cochain` holds scalar values (V = Q) or
algebra elements (the adjoint module).

Three storage modes fix the symmetry type:

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

Canonical keys: ``(b_1, ..., b_{p-1}, m)`` in fused mode, with block ids
``b_i`` indexing the lexicographic wedge basis and ``m`` indexing
increasing n-tuples; ``(b_1, ..., b_p, z)`` in the other modes with
``z`` a basis index.  Value component c of key number k is coordinate
k * dim V + c.

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
that reads psi there.  :func:`scatter_matrix` builds the sparse matrix
from it column by column, and :func:`scatter_values` applies it to
stored values, visiting only the stored keys; the four-term coboundary
of :mod:`homnambu.bridge` is the tensor-mode scatter under
:func:`scatter_values` (its Leibniz complex and lift are stated there).

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
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import linalg
from .algebra import HomNambuAlgebra
from .fundamental import fundamental_of, tensor_fundamental_of
from .indices import exact_vec, expand, sort_with_sign, sv_add, tensor_basis, wedge_basis

ZERO = Fraction(0)

MODES = ("fused", "split", "tensor")  # "tensor" is internal, for the bridge


class CochainError(ValueError):
    pass


class CochainSpace:
    """Coordinate system for degree-p cochains of one algebra; degree 0
    is Hom(L, V), whose one layout is the split one."""

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
        self.mode = mode if degree else "split"
        d, n = alg.dim, alg.arity
        # the block basis: (n-1)-wedges, or all (n-1)-tuples in tensor mode
        self.wedge = (tensor_basis if mode == "tensor" else wedge_basis)(d, n - 1)
        self.windex = {t: i for i, t in enumerate(self.wedge)}
        self.nforms = wedge_basis(d, n)
        self.nindex = {t: i for i, t in enumerate(self.nforms)}
        # the fused group of a wedge id and a final index: (n-form id, sign)
        fused = [[sort_with_sign(t + (z,)) for z in range(d)] for t in self.wedge]
        self.fuse = [[(self.nindex.get(m), sign) for m, sign in row] for row in fused]
        self.value_dim = d if kind == "adjoint" else 1
        w = len(self.wedge)
        nkeys = w ** (degree - 1) * len(self.nforms) if self.mode == "fused" else w ** degree * d
        self.dim = nkeys * self.value_dim

    @cached_property
    def keys(self) -> list:
        """Every canonical key in coordinate order, built on first use."""
        w = len(self.wedge)
        if self.mode == "fused":
            return [
                tuple(bs) + (m,)
                for bs in itertools.product(range(w), repeat=self.degree - 1)
                for m in range(len(self.nforms))
            ]
        return [
            tuple(bs) + (z,)
            for bs in itertools.product(range(w), repeat=self.degree)
            for z in range(self.alg.dim)
        ]

    @cached_property
    def key_index(self) -> dict:
        return {k: i for i, k in enumerate(self.keys)}

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
    """Stored coefficients over a space; scalar values are Fractions,
    adjoint values are length-d tuples."""

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
        keys, dv = space.keys, space.value_dim
        if space.kind == "scalar":
            return cls(space, {keys[i]: Fraction(v) for i, v in enumerate(flat) if v})
        values = {}  # entry i is component i % dv of key number i // dv
        for i, v in enumerate(flat):
            if v:
                values.setdefault(keys[i // dv], [ZERO] * dv)[i % dv] = Fraction(v)
        return cls(space, {key: tuple(vecv) for key, vecv in values.items()})

    def to_flat(self) -> tuple:
        out = [ZERO] * self.space.dim
        if self.space.kind == "scalar":
            for key, v in self.coeffs.items():
                out[self.space.key_index[key]] = v
        else:
            d = self.space.value_dim
            for key, vecv in self.coeffs.items():
                base = self.space.key_index[key] * d
                for c, v in enumerate(vecv):
                    out[base + c] = v
        return tuple(out)

    @classmethod
    def random(cls, space: CochainSpace, rng: random.Random, span: int = 3) -> "Cochain":
        flat = [Fraction(rng.randint(-span, span)) for _ in range(space.dim)]
        return cls.from_flat(space, flat)

    def value(self, block_ids, z):
        """Value at blocks given by wedge ids and a final basis index."""
        key, sign = self.space.canonical_key(tuple(block_ids), z)
        if sign == 0:
            return ZERO if self.space.kind == "scalar" else (ZERO,) * self.space.value_dim
        stored = self.coeffs.get(key)
        if self.space.kind == "scalar":
            return sign * stored if stored else ZERO
        if stored is None:
            return (ZERO,) * self.space.value_dim
        return tuple(sign * v for v in stored)

    def evaluate(self, blocks, z):
        """Multilinear evaluation at sparse arguments (same shapes as
        :meth:`CochainSpace.functional`)."""
        fn = self.space.functional(blocks, z)
        if self.space.kind == "scalar":
            total = ZERO
            for key, w in fn.items():
                v = self.coeffs.get(key)
                if v:
                    total += w * v
            return total
        total = {}
        for key, w in fn.items():
            stored = self.coeffs.get(key)
            if stored:
                for c, v in enumerate(stored):
                    if v:
                        sv_add(total, c, w * v)
        return tuple(total.get(i, ZERO) for i in range(self.space.value_dim))


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
    return tuple(item[-2] for item in choice), math.prod(item[-1] for item in choice)


def coboundary_scatter(alg: HomNambuAlgebra, rep, p: int, mode: str = "fused", out_mode=None):
    """The degree-p coboundary with values in ``rep``, p >= 0, read
    backwards: ``(space_in, space_out, scatter)``, where ``scatter(key)``
    gives ``(scalars, maps)``; ``{out_key: w}`` adds w psi(key) on every
    value component (d1 and d2), ``(out_key, w, op)`` adds w op(psi(key))
    with ``op = {c: {r: v}}`` (d3 and d4).  The inverse tables are built
    once per call with integral values as ints, so integral structure
    constants give integer arithmetic.
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
                    if weights := _rho_weights(rho_cols, args):
                        fourth.setdefault((s, y[s]), []).append((b, z, weights))

    def inserted(args, b, upto, z):
        """``(out_key, (-1)^i)`` for block b in slot i <= upto of args,
        z final, where that argument has a row."""
        if args and (tail := tails[args[-1]][z]):
            head = args[:-1]
            for i in range(min(upto, p - 1) + 1):
                yield head[:i] + (b,) + head[i:] + tail, 1 - 2 * (i % 2)
        if upto == p and (tail := tails[b][z]):
            yield args + tail, 1 - 2 * (p % 2)

    def scatter(key):
        scalars, maps = {}, []
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
            for b, weights in third.items():  # d3
                maps.extend((out, s * sign, weights) for out, s in inserted(u, b, p, t))
            for s in range(n - 1):  # d4, sign (-1)^p (-1)^(n-s) with 1-based s
                for b, z, weights in fourth.get((s, t), ()):
                    if tail := tails[b][z]:
                        maps.append((u + tail, (-1) ** (p + n - 1 - s) * sign, weights))
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
    nu = {c: col for c in range(rep.dim) if (col := exact_vec(rep.nu.column(c)))}

    def scatter(key):
        scalars = {}
        for u, t, sign in representatives(key):
            for choice in itertools.product(*[twist[x] for x in u]):
                args, w = _twisted(choice)
                for z, wz in alpha[t]:
                    if tail := (tails[args[-1]][z] if args else (z,)):
                        out = args[:-1] + tail
                        scalars[out] = scalars.get(out, 0) - sign * w * wz
        return scalars, [(key, 1, nu)]

    return space, space, scatter


def scatter_matrix(space_in, space_out, scatter, dv: int) -> linalg.SparseMatrix:
    """The operator of a scatter, column by column: component c of the
    k-th input key is column k * dv + c, component r of output key K is
    row index(K) * dv + r.  index(K) is read off the digits of K: a table
    of the output keys would be the largest allocation of the build."""
    width = len(space_out.wedge)
    last = len(space_out.nforms) if space_out.mode == "fused" else space_out.alg.dim

    def row_of(key):
        i = 0
        for b in key[:-1]:
            i = i * width + b
        return (i * last + key[-1]) * dv

    entries = {}
    for k, key in enumerate(space_in.keys):
        scalars, maps = scatter(key)
        col, block = k * dv, {}  # the columns of this key
        for out, w in scalars.items():
            row = row_of(out)
            for r in range(dv):
                block[row + r, col + r] = w
        for out, w, op in maps:
            row = row_of(out)
            for c, column in op.items():
                for r, v in column.items():
                    cell = (row + r, col + c)
                    block[cell] = block.get(cell, 0) + w * v
        entries.update((cell, v) for cell, v in block.items() if v)
    return linalg.SparseMatrix(space_out.dim * dv, space_in.dim * dv, entries)


def scatter_values(values: dict, scatter) -> dict:
    """A scatter applied to stored values ``{key: sparse vector}``,
    visiting only those keys: ``{out_key: sparse vector}`` in key order,
    zero sums left out."""
    acc = {}
    for key, vec in values.items():
        scalars, maps = scatter(key)
        for out, w in scalars.items():
            target = acc.setdefault(out, {})
            for r, u in vec.items():
                target[r] = target.get(r, 0) + w * u
        for out, w, op in maps:
            target = acc.setdefault(out, {})
            for c, u in vec.items():
                if column := op.get(c):
                    for r, v in column.items():
                        target[r] = target.get(r, 0) + w * u * v
    sums = ((key, {r: x for r, x in acc[key].items() if x}) for key in sorted(acc))
    return {key: vec for key, vec in sums if vec}


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
