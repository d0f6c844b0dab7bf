"""Hom-Leibniz cohomology on the tensor fundamental algebra and the lift
of algebra-valued cochains into it.

The tensor fundamental algebra lives on (n-1)-fold tensor blocks (no
skewness) with the same induced binary bracket as the wedge version;
its cochain complex is the twisted Loday-Pirashvili one::

    (d phi)(a_1, ..., a_{p+1})
        = sum_{k<=p} (-1)^(k-1) [a^(p-1)(a_k), phi(..., ^a_k, ...)]
        + (-1)^(p+1) [phi(a_1, ..., a_p), a^(p-1)(a_{p+1})]
        + sum_{k<j}  (-1)^k  phi(a(a_1), ..., ^a_k, ..., [a_k,a_j], ..., a(a_{p+1}))

with (d phi)(a) = -[phi, a] in degree 0.  The lift takes a cochain with
p tensor-block arguments plus one algebra argument and feeds each factor
of one extra block through it::

    (lift phi)(a_1, ..., a_{p+1})
        = sum_i a^p(x^1) x ... x phi(a_1, ..., a_p, x^i) x ... x a^p(x^(n-1))

where a_{p+1} = x^1 x ... x x^(n-1); in degree 0 the untouched factors
carry no twist.  The untouched-slot power is the input degree p: with
p-1 instead, the square below already fails at degree 0 for a twist of
-id, while p makes it commute on every fixture.  The lift intertwines
the two coboundaries on twist-equivariant cochains (equivariance is
part of the cochain definition the four-term operator comes from, and
dropping it breaks the square for non-trivial twists), which transports
d o d = 0 into the four-term complex.

Every kernel here scatters from phi's stored keys: each formula is read
backwards, from one stored key u to the output keys its value phi(u)
adds to, through inverse tables built once per call.  Left and right
multiplication by x_a = a^(p-1)(b_a) become
m -> [(a, weight, bracket cell)], so [x_a, phi(u)] and [phi(u), x_a]
are formed once per key; the twist becomes t -> [(a, w)], the bracket
t -> [(a, b, w)] and the block basis x -> [(t, s)].  Each output key is
summed in one dict, and a sum is dropped as soon as it cancels to zero,
so the work follows phi's support instead of all dim^(p+1) output
tuples.
:func:`leibniz_coboundary_matrix` is built column by column from the
same per-key statement, each column being the image of one basis
cochain.  The four-term coboundary is not restated here: it is
:func:`cochains.coboundary_scatter` in the internal ``tensor`` mode
(the split layout over tensor blocks, no canonicalization) with adjoint
values, applied to phi's stored keys by :func:`cochains.scatter_values`,
and the equivariance test is :func:`cochains.compatibility_violations`
in the same mode.
Integral values (tensor table, twist and L-action columns, phi's
values) are Python ints; other rationals stay ``Fraction``, so results
are exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from . import linalg
from .algebra import HomNambuAlgebra
from .cochains import coboundary_scatter, compatibility_violations, scatter_values
from .derivations import adjoint_representation
from .fundamental import HomLeibnizAlgebra, fundamental_of
# kept reachable here: layerbench/tracing.py TARGETS wraps both by name in bridge
from .fundamental import build_tensor_fundamental, tensor_fundamental_of, tensor_of_vectors
from .indices import exact_vec, expand, sort_with_sign, sv_add


def _exact_values(coeffs: dict) -> dict:
    return {key: ev for key, vec in coeffs.items() if (ev := exact_vec(vec))}


def _slot_map(f, vectors, s: int, dim: int) -> dict:
    """The linear map m -> f(v_1, ..., b_m, ..., v_k) with b_m in slot s,
    as ``{m: sparse vector}``; ``vectors[s]`` is ignored."""
    out = {}
    for m in range(dim):
        v = f(vectors[:s] + [{m: 1}] + vectors[s + 1:])
        if v:
            out[m] = v
    return out


def wedge_projection(alg: HomNambuAlgebra, leib_t: HomLeibnizAlgebra):
    """Sparse columns of the antisymmetrization onto the wedge basis."""
    fund = fundamental_of(alg)
    cols = []
    for t in leib_t.basis:
        canon, sign = sort_with_sign(t)
        cols.append({fund.index[canon]: Fraction(sign)} if sign else {})
    return cols


# -- Leibniz cochains ---------------------------------------------------------


@dataclass
class LeibnizCochain:
    """Plain multilinear map on p-tuples of Leibniz-algebra elements with
    values in the Leibniz algebra (sparse tensor-block coordinates); no
    symmetry is imposed.  Degree 0 is a single element, stored at the
    empty tuple."""

    leib: HomLeibnizAlgebra
    degree: int
    coeffs: dict  # {tuple: sparse vector}

    @classmethod
    def zero(cls, leib, degree):
        return cls(leib, degree, {})

    def is_zero(self) -> bool:
        return all(not v for v in self.coeffs.values())


def _add_scaled(acc: dict, key, w, vec: dict) -> None:
    """``acc[key] += w * vec``, one sum dict per key; components and keys
    that sum to zero are dropped at once (d of a lifted cochain touches
    several times the entries it keeps)."""
    target = acc.get(key)
    if target is None:
        target = acc[key] = {}
    for r, c in vec.items():
        if new := target.get(r, 0) + w * c:
            target[r] = new
        else:
            del target[r]
    if not target:
        del acc[key]


def _compact(acc: dict) -> dict:
    """``acc`` with every dict rebuilt to the size of its entries: a dict
    keeps the room its cancelled entries took."""
    for key, vec in acc.items():
        acc[key] = {r: v for r, v in vec.items()}
    return dict(acc)


def _leibniz_tables(leib: HomLeibnizAlgebra, p: int):
    """The degree-p coboundary read backwards, from phi's value at one
    key to the terms it feeds, with x_a = a^(p-1)(b_a) (a^0 in degree 0)
    and [x_a, b_m] = sum_i x_a[i] [b_i, b_m] read off the bracket table:

    * ``left[m]``: ``(a, x_a[i], [b_i, b_m])`` and ``right[m]``:
      ``(a, x_a[i], [b_m, b_i])``, the cells shared with ``leib.table``;
    * ``twist[t]``: ``(a, w)`` where a(b_a) has w at b_t;
    * ``bracket[t]``: ``(a, b, w)`` where [b_a, b_b] has w at b_t.
    """
    dim, table = leib.dim, leib.table
    xs = [{a: 1} for a in range(dim)]
    for _ in range(max(p - 1, 0)):
        xs = [leib.twist_sparse(x) for x in xs]
    left, right, twist, bracket = ([[] for _ in range(dim)] for _ in range(4))
    for a, x in enumerate(xs):
        for i, w in x.items():
            for m in range(dim):
                if table[i][m]:
                    left[m].append((a, w, table[i][m]))
                if table[m][i]:
                    right[m].append((a, w, table[m][i]))
    for a, col in enumerate(leib.twist_cols):
        for t, w in col.items():
            twist[t].append((a, w))
    for a, row in enumerate(table):
        for b, cell in enumerate(row):
            for t, w in cell.items():
                bracket[t].append((a, b, w))
    return left, right, twist, bracket


def _scatter_leibniz(tables, p: int, u: tuple, vec: dict, acc: dict) -> None:
    """Add to ``acc`` every term of d phi that reads phi at the p-tuple
    ``u``, where phi(u) = ``vec`` (1-based k, j as in the module
    docstring)."""
    left, right, twist, bracket = tables
    lmul, rmul = {}, {}  # a -> [x_a, phi(u)] and a -> [phi(u), x_a]
    for m, c in vec.items():
        for a, w, cell in left[m]:
            _add_scaled(lmul, a, w * c, cell)
        for a, w, cell in right[m]:
            _add_scaled(rmul, a, w * c, cell)
    # (-1)^(k-1) [x_a, phi(u)] at u with a inserted in slot k <= p
    for a, col in lmul.items():
        for k in range(p):
            _add_scaled(acc, u[:k] + (a,) + u[k:], 1 if k % 2 == 0 else -1, col)
    # (-1)^(p+1) [phi(u), x_a] at (u, a)
    sign = 1 if p % 2 else -1
    for a, col in rmul.items():
        _add_scaled(acc, u + (a,), sign, col)
    # (-1)^k phi(..., [a_k, a_j], ...): slot j-1 of u is read off the
    # bracket, every other slot off the twist; a goes to slot k < j, b to j
    twisted = [twist[x] for x in u]
    for j in range(1, p + 1):
        for choice in itertools.product(*twisted[:j - 1], bracket[u[j - 1]], *twisted[j:]):
            a = choice[j - 1][0]
            args, w = [], 1
            for item in choice:  # (a', w') from the twist, (a, b, w') from the bracket
                args.append(item[-2])
                w *= item[-1]
            args = tuple(args)
            for k in range(j):
                _add_scaled(acc, args[:k] + (a,) + args[k:], -w if k % 2 == 0 else w, vec)


def leibniz_coboundary(leib: HomLeibnizAlgebra, phi: LeibnizCochain) -> LeibnizCochain:
    """The twisted Loday-Pirashvili coboundary; degree 0 sends an
    element c to a -> -[c, a]."""
    p = phi.degree
    tables = _leibniz_tables(leib, p)
    acc = {}
    for u, vec in phi.coeffs.items():
        if vec := exact_vec(vec):
            _scatter_leibniz(tables, p, u, vec, acc)
    return LeibnizCochain(leib, p + 1, _compact(acc))


def leibniz_coboundary_matrix(leib: HomLeibnizAlgebra, p: int) -> linalg.SparseMatrix:
    """Operator matrix over lex-ordered tuple coordinates: component m of
    phi at the k-th p-tuple is column k * dim + m, component r of d phi at
    the k-th (p+1)-tuple is row k * dim + r.  Column by column, each the
    image of one basis cochain; the row count is dim^(p+2), so it is
    meant for small algebras."""
    dim = leib.dim
    tables = _leibniz_tables(leib, p)
    entries = {}
    for k, u in enumerate(itertools.product(range(dim), repeat=p)):
        for m in range(dim):
            acc = {}
            _scatter_leibniz(tables, p, u, {m: 1}, acc)
            for key, vec in acc.items():
                row = 0
                for a in key:
                    row = row * dim + a
                entries.update(((row * dim + r, k * dim + m), v) for r, v in vec.items())
    return linalg.SparseMatrix(dim ** (p + 2), dim ** (p + 1), entries)


# -- cochains with tensor blocks plus one algebra slot ------------------------


@dataclass(eq=False)
class BridgeCochain:
    """Map on p tensor blocks plus one algebra argument, algebra-valued.
    Degree 0 is a linear endomorphism, column z stored at key ``(z,)``."""

    alg: HomNambuAlgebra
    leib: HomLeibnizAlgebra
    degree: int
    coeffs: dict  # {(blocks..., z): sparse vector}

    @classmethod
    def zero(cls, alg, leib, degree):
        return cls(alg, leib, degree, {})

    def evaluate(self, blocks, z) -> dict:
        if len(blocks) != self.degree:
            raise ValueError("block count mismatch")
        out = {}
        for ids, w in expand(blocks):
            for zi, zc in z.items():
                for k, v in self.coeffs.get(ids + (zi,), {}).items():
                    sv_add(out, k, w * zc * v)
        return out

    def stored_values(self) -> dict:
        """Stored values keyed ``(blocks..., z)`` with integral entries as
        ints."""
        return _exact_values(self.coeffs)


def bridge_coboundary(phi: BridgeCochain) -> BridgeCochain:
    """The four-term coboundary on tensor-block cochains (p >= 0): the
    scatter of :func:`cochains.coboundary_scatter` in tensor mode with
    adjoint values, from phi's stored keys.

    Degree 0 is the derivation defect
    sum_i [x_1, ..., phi(x_i), ..., x_n] - phi([x_1, ..., x_n]),
    which is the general formula with a^0 = id.
    """
    alg, p = phi.alg, phi.degree
    _, _, scatter = coboundary_scatter(alg, adjoint_representation(alg), p, "tensor")
    return BridgeCochain(alg, phi.leib, p + 1, scatter_values(phi.stored_values(), scatter))


# -- the lift -----------------------------------------------------------------


def _scatter_lift(phi: BridgeCochain, ops) -> LeibnizCochain:
    """(lift phi)(u, t) = sum over slots s of ops[t][s] applied to
    phi(u, x^s), where t is the block x^1 x ... x x^(n-1); read from
    phi's side, a stored key (u, x) adds ops[t][s](phi(u, x)) to (u, t)
    for every block t with x in slot s."""
    leib = phi.leib
    blocks = [[] for _ in range(phi.alg.dim)]  # x -> [(t, s)] with leib.basis[t][s] == x
    for t, block in enumerate(leib.basis):
        for s, x in enumerate(block):
            blocks[x].append((t, s))
    acc = {}
    for key, vec in phi.coeffs.items():
        vec, u = exact_vec(vec), key[:-1]
        for t, s in blocks[key[-1]]:
            op = ops[t][s]
            for m, c in vec.items():
                if col := op.get(m):
                    _add_scaled(acc, u + (t,), c, col)
    return LeibnizCochain(leib, phi.degree + 1, _compact(acc))


def delta_lift(phi: BridgeCochain) -> LeibnizCochain:
    """Lift a p-block cochain to a (p+1)-argument Leibniz cochain by
    feeding each factor of the last block through it."""
    alg, leib = phi.alg, phi.leib
    d, n = alg.dim, alg.arity
    alpha_p = [exact_vec(alg.twist_column_sparse(i, phi.degree)) for i in range(d)]
    tensor = partial(tensor_of_vectors, leib.index)
    ops = [
        [_slot_map(tensor, [alpha_p[x] for x in t], s, d) for s in range(n - 1)]
        for t in leib.basis
    ]
    return _scatter_lift(phi, ops)


def delta_lift_ternary(phi: BridgeCochain) -> LeibnizCochain:
    """The two-term ternary form of the lift; must agree with
    :func:`delta_lift` at arity 3 (dual code path)."""
    alg, leib = phi.alg, phi.leib
    if alg.arity != 3:
        raise ValueError("ternary lift needs arity 3")
    d = alg.dim
    alpha_p = [exact_vec(alg.twist_column_sparse(i, phi.degree)) for i in range(d)]
    tensor = partial(tensor_of_vectors, leib.index)
    # phi(..., x1) (x) a^p(x2) + a^p(x1) (x) phi(..., x2)
    first = [_slot_map(tensor, [None, alpha_p[x]], 0, d) for x in range(d)]
    second = [_slot_map(tensor, [alpha_p[x], None], 1, d) for x in range(d)]
    return _scatter_lift(phi, [(first[x2], second[x1]) for x1, x2 in leib.basis])


def check_commuting_square(phi: BridgeCochain):
    """Evaluate d(lift phi) - lift(delta phi) on all basis tuples.

    Returns ``(holds, residuals)`` with residuals as a tuple -> vector
    table (empty iff the square commutes).
    """
    leib = phi.leib
    lhs = leibniz_coboundary(leib, delta_lift(phi))
    rhs = delta_lift(bridge_coboundary(phi))
    residuals = {}
    for key in set(lhs.coeffs) | set(rhs.coeffs):
        diff = dict(lhs.coeffs.get(key, {}))
        for k, v in rhs.coeffs.get(key, {}).items():
            sv_add(diff, k, -v)
        if diff:
            residuals[key] = diff
    return (not residuals), residuals


def pullback_wedge_cochain(alg: HomNambuAlgebra, leib_t: HomLeibnizAlgebra, psi) -> BridgeCochain:
    """Inject a wedge-space cochain (from the equivariant complex) along
    the antisymmetrization of each tensor block."""
    proj = wedge_projection(alg, leib_t)
    p = psi.space.degree
    out = {}
    for args in itertools.product(range(leib_t.dim), repeat=p):
        blocks = [proj[a] for a in args]
        if any(not b for b in blocks):
            continue
        for z in range(alg.dim):
            val = psi.evaluate(blocks, {z: 1})
            sval = {i: v for i, v in enumerate(val) if v}
            if sval:
                out[args + (z,)] = sval
    return BridgeCochain(alg, leib_t, p, out)


def bridge_equivariance_violations(phi: BridgeCochain):
    """Keys ``(blocks..., z)`` where twist . phi != phi o twist, in key
    order (empty iff phi is equivariant): the nonzero rows of the
    tensor-mode equivariance operator on phi."""
    alg = phi.alg
    return compatibility_violations(
        alg, adjoint_representation(alg), phi.degree, "tensor", phi.stored_values()
    )


def random_bridge_cochain(alg: HomNambuAlgebra, leib: HomLeibnizAlgebra, p: int, rng, span=2):
    """Random integer-coefficient cochain (no symmetry constraints)."""
    out = {}
    for args in itertools.product(range(leib.dim), repeat=p):
        for z in range(alg.dim):
            vec = {
                r: Fraction(rng.randint(-span, span))
                for r in range(alg.dim)
                if rng.random() < 0.5
            }
            vec = {r: v for r, v in vec.items() if v}
            if vec:
                out[args + (z,)] = vec
    return BridgeCochain(alg, leib, p, out)
