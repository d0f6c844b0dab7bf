"""Cochain spaces and the coboundary with values in a representation.

A degree-p cochain takes p arguments from the fundamental set (wedges of
n-1 algebra elements) plus one algebra element, i.e. p(n-1)+1 vector
slots, and takes values in the module V of a representation (rho, nu):
rho sends n-1 algebra elements, skew, to an endomorphism of V and nu is
a linear map of V.  :class:`Cochain` holds scalar values (V = Q) or
algebra elements (the adjoint module).

Two storage modes fix the symmetry type:

* ``fused`` (default): the last wedge block and the final slot together
  form one fully skew group of n indices.  This is the space the
  complexes are stated on; at p = 1 a cochain is an alternating n-form.
* ``split``: the final slot is independent of the blocks.  The split
  space contains the fused one; it is used to probe, per algebra, that
  the coboundary really maps fused cochains to fused cochains.

Canonical keys: ``(b_1, ..., b_{p-1}, m)`` in fused mode, with block ids
``b_i`` indexing the lexicographic wedge basis and ``m`` indexing
increasing n-tuples; ``(b_1, ..., b_p, z)`` in split mode with ``z`` a
basis index.  Value component c of key number k is coordinate
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

Compatible cochains satisfy nu o psi = psi o a.  The trivial
representation (V = Q, rho = 0, nu = 1) gives the scalar complex,
computed on all cochains; the adjoint representation gives the
algebra-valued complex, computed on the compatible ones.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import linalg
from .algebra import HomNambuAlgebra
from .fundamental import fundamental_of
from .indices import exact_vec, expand, sort_with_sign, sv_add, wedge_basis

ZERO = Fraction(0)

MODES = ("fused", "split")


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
        self.wedge = wedge_basis(d, n - 1)
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
        if self.mode == "split":
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


def operator_respects_fusion(space_split: CochainSpace, m: linalg.SparseMatrix) -> bool:
    """True when every column of ``m``, an operator into ``space_split``
    with any number of value components per key, lies in the fused
    subspace: skew across the last wedge block and the final slot."""
    if space_split.mode != "split":
        raise CochainError("expected a split-mode space")
    dv = m.rows // len(space_split.keys)
    for idx, (*blocks, z) in enumerate(space_split.keys):
        merged, sign = sort_with_sign(space_split.wedge[blocks[-1]] + (z,))
        if sign:
            canon = tuple(blocks[:-1]) + (space_split.windex[merged[:-1]], merged[-1])
            canon = space_split.key_index[canon]
        for comp in range(dv):
            for col in range(m.cols):
                value = m.entries.get((idx * dv + comp, col), 0)
                expected = sign * m.entries.get((canon * dv + comp, col), 0) if sign else 0
                if value != expected:
                    return False
    return True


def _rho_columns(rep) -> dict:
    """Sparse columns of every nonzero rho matrix, by increasing tuple,
    integral entries as ints."""
    out = {}
    for key, m in rep.rho.items():
        cols = [exact_vec(m.column(c)) for c in range(rep.dim)]
        if any(cols):
            out[key] = cols
    return out


def _rho_weights(rho_cols: dict, args, dim: int):
    """Sparse columns of rho at n-1 sparse vectors (skew multilinear
    expansion); None when rho vanishes there."""
    out = [{} for _ in range(dim)]
    for ids, coeff in expand(args):
        canon, sign = sort_with_sign(ids)
        cols = rho_cols.get(canon) if sign else None
        if cols is None:
            continue
        coeff *= sign
        for c, col in enumerate(cols):
            for r, v in col.items():
                sv_add(out[c], r, coeff * v)
    return out if any(out) else None


def coboundary_matrix(
    alg: HomNambuAlgebra, rep, p: int, mode: str = "fused", out_mode: str | None = None
) -> linalg.SparseMatrix:
    """Sparse matrix of the degree-p coboundary with values in ``rep``,
    p >= 0: the four terms of the module docstring.

    Every table (twist columns, the fundamental bracket and twist, the
    L-action and the rho weights) is built once with integral values as
    ints, so integral structure constants give integer arithmetic; the
    fundamental ones are those of :func:`fundamental_of`.
    """
    fund = fundamental_of(alg)
    space_in = CochainSpace(alg, p, "scalar", mode)
    space_out = CochainSpace(alg, p + 1, "scalar", out_mode or mode)
    d, n, dv = alg.dim, alg.arity, rep.dim
    alpha = [exact_vec(alg.twist_column_sparse(i)) for i in range(d)]
    alpha_p = [exact_vec(alg.twist_column_sparse(i, p)) for i in range(d)]
    twist, table, laction = fund.twist_cols, fund.table, fund.l_action
    rho_cols = _rho_columns(rep)
    # weights of d3, rho(a^p(x)) per wedge id x, and of d4,
    # rho(a^p(y^1), ..., ^y^s, ..., a^p(z)) per (y, s, z); none when rho = 0
    third, fourth = {}, {}
    if rho_cols:
        third = {b: _rho_weights(rho_cols, [alpha_p[t] for t in x], dv)
                 for b, x in enumerate(fund.basis)}
        fourth = {(b, s, z): _rho_weights(rho_cols, [alpha_p[t] for t in y[:s] + y[s + 1:]]
                                          + [alpha_p[z]], dv)
                  for b, y in enumerate(fund.basis) for s in range(n - 1) for z in range(d)}

    def scatter(block, blocks, final, sign, weights=None):
        """Add sign * weights . psi(blocks, final) to a row block keyed
        (row offset, column); no weights: the identity."""
        for in_key, w in space_in.functional(blocks, final).items():
            col, w = space_in.key_index[in_key] * dv, sign * w
            if weights is None:
                for r in range(dv):
                    block[r, col + r] = block.get((r, col + r), 0) + w
                continue
            for c, column in enumerate(weights):
                for r, v in column.items():
                    block[r, col + c] = block.get((r, col + c), 0) + w * v

    entries = {}
    for k, key in enumerate(space_out.keys):
        block_ids, z = space_out.decode_args(key)
        block = {}
        units = [{b: 1} for b in block_ids]
        alpha_blocks = [twist[b] for b in block_ids]
        for i, b in enumerate(block_ids):
            sign = -1 if i % 2 == 0 else 1  # (-1)^i with 1-based i
            rest = alpha_blocks[:i] + alpha_blocks[i + 1:]
            for j in range(i + 1, len(block_ids)):  # d1, the bracket in slot j
                bracket = table[b][block_ids[j]]
                if bracket:
                    scatter(block, rest[:j - 1] + [bracket] + rest[j:], alpha[z], sign)
            if laction[b][z]:  # d2
                scatter(block, rest, laction[b][z], sign)
            if third.get(b):
                scatter(block, units[:i] + units[i + 1:], {z: 1}, -sign, third[b])
        y = fund.basis[block_ids[-1]]
        for s in range(n - 1):
            weights = fourth.get((block_ids[-1], s, z))
            if weights:  # sign (-1)^p (-1)^(n-s) with 1-based s
                scatter(block, units[:-1], {y[s]: 1}, (-1) ** (p + n - 1 - s), weights)
        entries.update(((k * dv + r, c), v) for (r, c), v in block.items() if v)
    return linalg.SparseMatrix(space_out.dim * dv, space_in.dim * dv, entries)


def equivariance_matrix(alg: HomNambuAlgebra, rep, p: int, mode="fused") -> linalg.SparseMatrix:
    """Rows nu . psi(args) - psi(a args) over canonical tuples, p >= 0;
    the compatible cochains are its kernel."""
    space = CochainSpace(alg, p, "scalar", mode)
    fund = fundamental_of(alg)
    dv = rep.dim
    alpha = [exact_vec(alg.twist_column_sparse(i)) for i in range(alg.dim)]
    twist = fund.twist_cols
    nu = exact_vec(rep.nu.entries)
    entries = {}
    for k, key in enumerate(space.keys):
        block_ids, z = space.decode_args(key)
        row = k * dv
        block = {(r, row + c): v for (r, c), v in nu.items()}
        for in_key, w in space.functional([twist[b] for b in block_ids], alpha[z]).items():
            col = space.key_index[in_key] * dv
            for r in range(dv):
                block[r, col + r] = block.get((r, col + r), 0) - w
        entries.update(((row + r, c), v) for (r, c), v in block.items() if v)
    return linalg.SparseMatrix(space.dim * dv, space.dim * dv, entries)
