"""Cochain spaces shared by the two cohomology complexes.

A degree-p cochain takes p arguments from the fundamental set (wedges of
n-1 algebra elements) plus one algebra element, i.e. p(n-1)+1 vector
slots in total.  Values are scalars (trivial coefficients) or algebra
elements (adjoint coefficients).

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
basis index.  Degree 0 is not stored here (it is a covector or a matrix
and the complexes handle it directly).

:func:`delta_functional` holds the two coboundary terms that do not act
on values, bracket insertion and L(x_i).z in the final slot; it is the
whole trivial-coefficient coboundary and the scalar part of the adjoint
one.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .algebra import HomNambuAlgebra
from .fundamental import l_action_sparse
from .indices import sort_with_sign, sv_add, sv_to_dense, wedge_basis

ONE = Fraction(1)
ZERO = Fraction(0)

MODES = ("fused", "split")


class CochainError(ValueError):
    pass


class CochainSpace:
    """Coordinate system for degree-p cochains of one algebra."""

    def __init__(self, alg: HomNambuAlgebra, degree: int, kind: str, mode: str = "fused"):
        if degree < 1:
            raise CochainError("CochainSpace needs degree >= 1")
        if kind not in ("scalar", "adjoint"):
            raise CochainError(f"unknown kind {kind!r}")
        if mode not in MODES:
            raise CochainError(f"unknown mode {mode!r}")
        self.alg = alg
        self.degree = degree
        self.kind = kind
        self.mode = mode
        d, n = alg.dim, alg.arity
        self.wedge = wedge_basis(d, n - 1)
        self.windex = {t: i for i, t in enumerate(self.wedge)}
        self.nforms = wedge_basis(d, n)
        self.nindex = {t: i for i, t in enumerate(self.nforms)}
        w = len(self.wedge)
        if mode == "fused":
            self.keys = [
                tuple(bs) + (m,)
                for bs in itertools.product(range(w), repeat=degree - 1)
                for m in range(len(self.nforms))
            ]
        else:
            self.keys = [
                tuple(bs) + (z,)
                for bs in itertools.product(range(w), repeat=degree)
                for z in range(d)
            ]
        self.key_index = {k: i for i, k in enumerate(self.keys)}
        self.value_dim = d if kind == "adjoint" else 1
        self.dim = len(self.keys) * self.value_dim

    def coord(self, key, comp: int = 0) -> int:
        return self.key_index[key] * self.value_dim + comp

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
        merged, sign = sort_with_sign(self.wedge[block_ids[-1]] + (z,))
        if sign == 0:
            return None, 0
        key = tuple(block_ids[:-1]) + (self.nindex[merged],)
        return key, sign

    def functional(self, blocks, z) -> dict:
        """Weights with which a cochain's stored coordinates are read
        when evaluated at the given sparse arguments.

        ``blocks``: p sparse dicts over wedge ids; ``z``: sparse dict
        over basis indices.  Returns ``{key: weight}``.
        """
        if len(blocks) != self.degree:
            raise CochainError(f"need {self.degree} block arguments")
        out = {}
        for combo in itertools.product(*(b.items() for b in blocks)):
            w = ONE
            for _, c in combo:
                w *= c
            if not w:
                continue
            ids = tuple(i for i, _ in combo)
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
        coeffs = {}
        if space.kind == "scalar":
            for i, key in enumerate(space.keys):
                if flat[i]:
                    coeffs[key] = Fraction(flat[i])
        else:
            d = space.value_dim
            for i, key in enumerate(space.keys):
                vecv = tuple(Fraction(v) for v in flat[i * d:(i + 1) * d])
                if any(vecv):
                    coeffs[key] = vecv
        return cls(space, coeffs)

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


def split_vector_respects_fusion(space_split: CochainSpace, flat) -> bool:
    """True when a split-mode coordinate vector is skew across the last
    wedge block and the final slot, i.e. lies in the fused subspace."""
    if space_split.mode != "split":
        raise CochainError("expected a split-mode space")
    n = space_split.alg.arity
    d = space_split.value_dim
    flat = list(flat)
    for idx, key in enumerate(space_split.keys):
        blocks, z = key[:-1], key[-1]
        merged, sign = sort_with_sign(space_split.wedge[blocks[-1]] + (z,))
        for comp in range(d):
            val = flat[idx * d + comp]
            if sign == 0:
                if val:
                    return False
                continue
            canon_key = blocks[:-1] + (space_split.windex[merged[: n - 1]], merged[n - 1])
            canon_val = flat[space_split.key_index[canon_key] * d + comp]
            if val != sign * canon_val:
                return False
    return True


def operator_respects_fusion(space_split: CochainSpace, m: linalg.SparseMatrix) -> bool:
    """True when every column of ``m``, an operator into ``space_split``,
    lies in the fused subspace."""
    columns = [{} for _ in range(m.cols)]
    for (r, c), v in m.entries.items():
        columns[c][r] = v
    return all(
        split_vector_respects_fusion(space_split, sv_to_dense(col, m.rows)) for col in columns
    )


def delta_functional(alg, fund, space_in, alpha_cols, block_ids, z) -> dict:
    """Read weights of (d phi) at canonical arguments, as a functional in
    phi's stored coordinates."""
    q = len(block_ids)  # p + 1
    out = {}
    units = [{b: ONE} for b in block_ids]
    alpha_blocks = [fund.twist_sparse(u) for u in units]
    z_unit = {z: ONE}
    alpha_z = alpha_cols[z]
    for i in range(q):
        sign = Fraction(-1 if i % 2 == 0 else 1)  # (-1)^(i+1) 1-based
        for j in range(i + 1, q):
            bracket = fund.table[block_ids[i]][block_ids[j]]
            if not bracket:
                continue
            blocks = [alpha_blocks[t] for t in range(q) if t != i]
            blocks[j - 1] = bracket  # slot j, with slot i removed
            for in_key, w in space_in.functional(blocks, alpha_z).items():
                sv_add(out, in_key, sign * w)
        lz = l_action_sparse(alg, fund.basis, units[i], z_unit)
        if lz:
            blocks = [alpha_blocks[t] for t in range(q) if t != i]
            for in_key, w in space_in.functional(blocks, lz).items():
                sv_add(out, in_key, sign * w)
    return out
