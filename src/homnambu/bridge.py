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

The four kernels (both coboundaries and both lifts) are matrix-free and
share the term lists of :mod:`homnambu.cochains`: each output key gets
``(pairs, sign)`` scalar terms, ``pairs`` being ``(key, weight)``, and
``(key, weight, op)`` map terms; each weight is one lookup of phi's
stored value at a basis tuple, scaled or pushed through a linear map
``op = {m: vector}``, and :func:`cochains.evaluate_terms` sums them.
The four-term coboundary is not restated here: it is
:func:`cochains.coboundary_terms` in the internal ``tensor`` mode (the
split layout over tensor blocks, no canonicalization) with adjoint
values, and the equivariance test is
:func:`cochains.compatibility_violations` in the same mode.
:func:`leibniz_coboundary_matrix` is :func:`cochains.term_matrix` of the
Leibniz term list.  Integral values
(tensor table, twist and L-action columns, phi's values) are Python
ints; other rationals stay ``Fraction``, so results are exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from . import linalg
from .algebra import HomNambuAlgebra
from .cochains import coboundary_terms, compatibility_violations, evaluate_terms, term_matrix
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
    values in the algebra; no symmetry is imposed.  Degree 0 is a single
    element, stored at the empty tuple."""

    leib: HomLeibnizAlgebra
    degree: int
    coeffs: dict  # {tuple: sparse vector}

    @classmethod
    def zero(cls, leib, degree):
        return cls(leib, degree, {})

    def is_zero(self) -> bool:
        return all(not v for v in self.coeffs.values())


def _leib_alpha_power(leib: HomLeibnizAlgebra, k: int):
    cols = [{i: 1} for i in range(leib.dim)]
    for _ in range(k):
        cols = [leib.twist_sparse(c) for c in cols]
    return cols


def _multiplications(leib: HomLeibnizAlgebra, p: int):
    """Left and right multiplication by a^(p-1)(b_a) (a^0 in degree 0) as
    ``{m: [x, b_m]}`` and ``{m: [b_m, x]}`` maps, one per basis index a."""
    left, right = [], []
    for x in _leib_alpha_power(leib, max(p - 1, 0)):
        left.append({m: v for m in range(leib.dim) if (v := leib.bracket_sparse(x, {m: 1}))})
        right.append({m: v for m in range(leib.dim) if (v := leib.bracket_sparse({m: 1}, x))})
    return left, right


def _leibniz_terms(leib: HomLeibnizAlgebra, p: int, args, left, right):
    """Term list of (d phi)(args) over phi's values at p-tuples (the empty
    tuple in degree 0, where only the second sum survives)."""
    maps = [  # (-1)^(k-1) [a^(p-1)(a_k), phi(..., ^a_k, ...)], 1-based k <= p
        (args[:k] + args[k + 1:], 1 if k % 2 == 0 else -1, left[args[k]]) for k in range(p)
    ]
    maps.append((args[:p], 1 if p % 2 else -1, right[args[p]]))  # (-1)^(p+1)
    scalars = []
    for k in range(p + 1):
        sk = -1 if k % 2 == 0 else 1  # (-1)^k, 1-based
        for j in range(k + 1, p + 1):
            bracket = leib.table[args[k]][args[j]]
            if bracket:
                vecs = [leib.twist_cols[args[t]] for t in range(p + 1) if t != k]
                vecs[j - 1] = bracket
                scalars.append((expand(vecs), sk))
    return scalars, maps


def leibniz_coboundary(leib: HomLeibnizAlgebra, phi: LeibnizCochain) -> LeibnizCochain:
    """The twisted Loday-Pirashvili coboundary; degree 0 sends an
    element c to a -> -[c, a]."""
    p = phi.degree
    left, right = _multiplications(leib, p)
    out = evaluate_terms(
        _exact_values(phi.coeffs),
        itertools.product(range(leib.dim), repeat=p + 1),
        lambda args: _leibniz_terms(leib, p, args, left, right),
    )
    return LeibnizCochain(leib, p + 1, out)


def leibniz_coboundary_matrix(leib: HomLeibnizAlgebra, p: int) -> linalg.SparseMatrix:
    """Operator matrix over lex-ordered tuple coordinates: component m of
    phi at the k-th p-tuple is column k * dim + m, component r of d phi at
    the k-th (p+1)-tuple is row k * dim + r.  The row count is
    dim^(p+2), so it is meant for small algebras."""
    dim = leib.dim
    left, right = _multiplications(leib, p)
    index = {t: k for k, t in enumerate(itertools.product(range(dim), repeat=p))}
    return term_matrix(
        list(itertools.product(range(dim), repeat=p + 1)),
        lambda args: _leibniz_terms(leib, p, args, left, right),
        index, dim, dim ** (p + 1),
    )


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
    operator of :func:`cochains.coboundary_terms` in tensor mode with
    adjoint values, applied pointwise.

    Degree 0 is the derivation defect
    sum_i [x_1, ..., phi(x_i), ..., x_n] - phi([x_1, ..., x_n]),
    which is the general formula with a^0 = id.
    """
    alg, p = phi.alg, phi.degree
    _, _, terms = coboundary_terms(alg, adjoint_representation(alg), p, "tensor")
    keys = itertools.product(*[range(phi.leib.dim)] * (p + 1), range(alg.dim))
    return BridgeCochain(alg, phi.leib, p + 1, evaluate_terms(phi.stored_values(), keys, terms))


# -- the lift -----------------------------------------------------------------


def _lift(phi: BridgeCochain, ops) -> LeibnizCochain:
    """(lift phi)(args) = sum over slots s of ops[args[-1]][s] applied to
    phi(args[:-1], x^s), where args[-1] is the block x^1 x ... x x^(n-1)."""
    leib, p = phi.leib, phi.degree

    def terms(args):
        last = leib.basis[args[p]]
        return (), [(args[:p] + (last[s],), 1, op) for s, op in enumerate(ops[args[p]])]

    keys = itertools.product(range(leib.dim), repeat=p + 1)
    return LeibnizCochain(leib, p + 1, evaluate_terms(phi.stored_values(), keys, terms))


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
    return _lift(phi, ops)


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
    return _lift(phi, [(first[x2], second[x1]) for x1, x2 in leib.basis])


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
