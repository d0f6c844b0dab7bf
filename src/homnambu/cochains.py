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
  space contains the fused one; it is used to probe, per algebra, that
  the coboundary really maps fused cochains to fused cochains.
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

The operator is stated once, as a term list per output key
(:func:`coboundary_terms`): scalar terms ``(pairs, sign)`` read psi at
a combination of stored keys given as ``(key, weight)`` pairs, map terms
``(key, w, op)`` push psi at one key through a linear map of V.
:func:`term_matrix` assembles a term list into a sparse matrix and
:func:`evaluate_terms` applies it pointwise to stored values; the
four-term coboundary of :mod:`homnambu.bridge` is the tensor-mode term
list under :func:`evaluate_terms` (its Leibniz complex and lift are
stated there, scattered from stored keys).

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


def coboundary_terms(alg: HomNambuAlgebra, rep, p: int, mode: str = "fused", out_mode=None):
    """The degree-p coboundary with values in ``rep``, p >= 0, as a term
    list per output key: the four terms of the module docstring.

    Returns ``(space_in, space_out, terms)``.  ``terms(key)`` gives
    ``(scalars, maps)``: ``(pairs, sign)`` add sign * sum w psi(in_key)
    over the ``(in_key, w)`` pairs on every value component (here the
    items of a :meth:`CochainSpace.functional` dict, read once and never
    copied), ``(in_key, w, op)`` triples add w op(psi(in_key)) with
    ``op = {c: {r: v}}``.  Every table (twist columns, the block
    bracket and twist, the L-action and the rho weights) is built once
    with integral values as ints, so integral structure constants give
    integer arithmetic.
    """
    space_in = CochainSpace(alg, p, "scalar", mode)
    space_out = CochainSpace(alg, p + 1, "scalar", out_mode or mode)
    fund = _block_algebra(alg, space_out.mode)
    d, n = alg.dim, alg.arity
    alpha = [exact_vec(alg.twist_column_sparse(i)) for i in range(d)]
    alpha_p = [exact_vec(alg.twist_column_sparse(i, p)) for i in range(d)]
    twist, table, laction = fund.twist_cols, fund.table, fund.l_action
    functional, canonical_key = space_in.functional, space_in.canonical_key
    rho_cols = _rho_columns(rep)
    # weights of d3, rho(a^p(x)) per block id x, and of d4,
    # rho(a^p(y^1), ..., ^y^s, ..., a^p(z)) per (y, s, z); none when rho = 0
    third, fourth = {}, {}
    if rho_cols:
        third = {b: _rho_weights(rho_cols, [alpha_p[t] for t in x])
                 for b, x in enumerate(fund.basis)}
        fourth = {(b, s, z): _rho_weights(rho_cols, [alpha_p[t] for t in y[:s] + y[s + 1:]]
                                          + [alpha_p[z]])
                  for b, y in enumerate(fund.basis) for s in range(n - 1) for z in range(d)}

    def terms(key):
        block_ids, z = space_out.decode_args(key)
        scalars, maps = [], []
        alpha_blocks = [twist[b] for b in block_ids]
        for i, b in enumerate(block_ids):
            sign = -1 if i % 2 == 0 else 1  # (-1)^i with 1-based i
            rest = alpha_blocks[:i] + alpha_blocks[i + 1:]
            for j in range(i + 1, len(block_ids)):  # d1, the bracket in slot j
                bracket = table[b][block_ids[j]]
                if bracket:
                    args = rest[:j - 1] + [bracket] + rest[j:]
                    scalars.append((functional(args, alpha[z]).items(), sign))
            if laction[b][z]:  # d2
                scalars.append((functional(rest, laction[b][z]).items(), sign))
            if third.get(b):  # d3 reads psi at one basis argument
                in_key, s = canonical_key(block_ids[:i] + block_ids[i + 1:], z)
                if s:
                    maps.append((in_key, -sign * s, third[b]))
        y = fund.basis[block_ids[-1]]
        for s in range(n - 1):  # d4, sign (-1)^p (-1)^(n-s) with 1-based s
            weights = fourth.get((block_ids[-1], s, z))
            if weights:
                in_key, sk = canonical_key(block_ids[:-1], y[s])
                if sk:
                    maps.append((in_key, (-1) ** (p + n - 1 - s) * sk, weights))
        return scalars, maps

    return space_in, space_out, terms


def apply_terms(values: dict, scalars, maps) -> dict:
    """Sum of one term list on stored values ``{key: sparse vector}``;
    zeros dropped once at the end."""
    acc = {}
    for pairs, sign in scalars:
        for key, w in pairs:
            vec = values.get(key)
            if vec:
                w *= sign
                for r, u in vec.items():
                    acc[r] = acc.get(r, 0) + w * u
    for key, w, op in maps:
        vec = values.get(key)
        if vec:
            for m, u in vec.items():
                col = op.get(m)
                if col:
                    wu = w * u
                    for r, c in col.items():
                        acc[r] = acc.get(r, 0) + wu * c
    return {r: x for r, x in acc.items() if x}


def evaluate_terms(values: dict, keys, terms) -> dict:
    """``{key: terms(key) applied to values}`` over keys, zero sums left out."""
    out = {}
    for key in keys:
        total = apply_terms(values, *terms(key))
        if total:
            out[key] = total
    return out


def term_matrix(keys, terms, index, dv: int, cols: int) -> linalg.SparseMatrix:
    """The operator of a term list as a matrix: component r of the k-th
    output key is row k * dv + r, component c of input key ``in_key`` is
    column index[in_key] * dv + c.  ``keys`` is a sequence."""
    entries = {}
    for k, key in enumerate(keys):
        scalars, maps = terms(key)
        block = {}  # (component, column) of this key's rows
        for pairs, sign in scalars:
            for in_key, w in pairs:
                col, w = index[in_key] * dv, sign * w
                for r in range(dv):
                    block[r, col + r] = block.get((r, col + r), 0) + w
        for in_key, w, op in maps:
            col = index[in_key] * dv
            for c, column in op.items():
                for r, v in column.items():
                    block[r, col + c] = block.get((r, col + c), 0) + w * v
        entries.update(((k * dv + r, c), v) for (r, c), v in block.items() if v)
    return linalg.SparseMatrix(len(keys) * dv, cols, entries)


def coboundary_matrix(
    alg: HomNambuAlgebra, rep, p: int, mode: str = "fused", out_mode: str | None = None
) -> linalg.SparseMatrix:
    """Sparse matrix of the degree-p coboundary with values in ``rep``,
    p >= 0: :func:`term_matrix` of :func:`coboundary_terms`."""
    space_in, space_out, terms = coboundary_terms(alg, rep, p, mode, out_mode)
    return term_matrix(space_out.keys, terms, space_in.key_index, rep.dim, space_in.dim * rep.dim)


def equivariance_terms(alg: HomNambuAlgebra, rep, p: int, mode: str = "fused"):
    """Rows nu . psi(args) - psi(a args) over the keys of the degree-p
    space, p >= 0, as ``(space, terms)`` in the format of
    :func:`coboundary_terms`; the compatible cochains are its zeros."""
    space = CochainSpace(alg, p, "scalar", mode)
    twist = _block_algebra(alg, mode).twist_cols
    alpha = [exact_vec(alg.twist_column_sparse(i)) for i in range(alg.dim)]
    nu = {}  # {c: column c of nu}
    for (r, c), v in exact_vec(rep.nu.entries).items():
        nu.setdefault(c, {})[r] = v

    def terms(key):
        block_ids, z = space.decode_args(key)
        fn = space.functional([twist[b] for b in block_ids], alpha[z])
        return [(fn.items(), -1)], [(key, 1, nu)]

    return space, terms


def equivariance_matrix(alg: HomNambuAlgebra, rep, p: int, mode="fused") -> linalg.SparseMatrix:
    """Matrix of :func:`equivariance_terms`; the compatible cochains are
    its kernel."""
    space, terms = equivariance_terms(alg, rep, p, mode)
    return term_matrix(space.keys, terms, space.key_index, rep.dim, space.dim * rep.dim)


def compatibility_violations(alg: HomNambuAlgebra, rep, p: int, mode: str, values: dict) -> list:
    """Keys where nu . psi != psi o a, in key order, for stored values
    ``{key: sparse vector}``; empty iff psi is compatible."""
    space, terms = equivariance_terms(alg, rep, p, mode)
    return list(evaluate_terms(values, space.keys, terms))


def apply_coboundary(rep, phi: Cochain, out_mode: str | None = None) -> Cochain:
    """d phi with values in ``rep``, by one exact mat-vec."""
    space = phi.space
    m = coboundary_matrix(space.alg, rep, space.degree, space.mode, out_mode)
    space_out = CochainSpace(space.alg, space.degree + 1, space.kind, out_mode or space.mode)
    return Cochain.from_flat(space_out, linalg.sparse_mat_vec(m, phi.to_flat()))


def coboundary_preserves_fusion(alg: HomNambuAlgebra, rep, p: int) -> bool:
    """Does the degree-p coboundary send fused cochains to fused cochains?

    Every column of the operator into the split space must be skew
    across the last wedge block and the final slot, on every value
    component.
    """
    m = coboundary_matrix(alg, rep, p, "fused", "split")
    space = CochainSpace(alg, p + 1, "scalar", "split")
    dv = rep.dim
    for idx, (*blocks, z) in enumerate(space.keys):
        merged, sign = sort_with_sign(space.wedge[blocks[-1]] + (z,))
        if sign:
            canon = tuple(blocks[:-1]) + (space.windex[merged[:-1]], merged[-1])
            canon = space.key_index[canon]
        for comp in range(dv):
            for col in range(m.cols):
                value = m.entries.get((idx * dv + comp, col), 0)
                expected = sign * m.entries.get((canon * dv + comp, col), 0) if sign else 0
                if value != expected:
                    return False
    return True


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
    """The report at degree p >= 0 of one complex: ``operator(q, mode[,
    out_mode])`` is its degree-q matrix and ``compatibility(q, mode)``,
    when given, the rows whose kernel is the compatible cochains.

    Cocycles are the kernel of the operator evaluated pointwise (split
    rows), with the compatibility rows stacked under it, so the answer
    does not presuppose that the image stays in the fused space; the
    containment check of :func:`linalg.homology` would surface any such
    defect.  Coboundaries are the image of the degree p - 1 operator on
    compatible cochains.
    """
    if p < 0:
        raise ValueError("degree must be >= 0")
    delta = operator(p, mode, "split")
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
