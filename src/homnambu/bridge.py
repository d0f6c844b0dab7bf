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

Every cochain here is a :class:`cochains.Cochain`: phi in the internal
``tensor`` layout (p tensor blocks plus one algebra slot, adjoint
values), its lift and every Leibniz cochain in the ``leibniz`` layout
(p-tuples of tensor blocks, values in T).  Each map is stated once in the
``(scalars, maps)`` shape of :func:`cochains.coboundary_scatter`, read
backwards from one stored key u to the output keys its value phi(u)
adds to, through inverse tables built once per call:

* :func:`leibniz_scatter`: the bracket terms are scalar weights (the
  twist read as t -> [(a, w)], the bracket as t -> [(a, b, w)]); left
  and right multiplication by x_a = a^(p-1)(b_a) are two families of
  maps of the value, with columns [x_a, b_m] and [b_m, x_a];
* :func:`lift_scatter`: a stored key (u, x) feeds one family, the slot
  maps of the blocks t that hold x, each placed at (u, t).

:func:`cochains.scatter_values` applies them to phi's stored keys, so
the work follows phi's support instead of all dim^(p+1) output tuples,
and :func:`leibniz_coboundary_matrix` is :func:`cochains.scatter_matrix`
of the Leibniz scatter.  The four-term coboundary is not restated here:
it is :func:`cochains.coboundary_scatter` in tensor mode with adjoint
values, and the equivariance test is
:func:`cochains.compatibility_violations` in the same mode.
Integral values (tensor table, twist and L-action columns, phi's
values) are Python ints; other rationals stay ``Fraction``, so results
are exact.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import partial

from . import linalg
from .algebra import HomNambuAlgebra
from .cochains import (
    Cochain,
    CochainSpace,
    _family,
    _grid,
    _inverse,
    _twisted,
    coboundary_scatter,
    compatibility_violations,
    scatter_matrix,
    scatter_values,
)
from .derivations import adjoint_representation
from .fundamental import HomLeibnizAlgebra, fundamental_of
# kept reachable here: layerbench/tracing.py TARGETS wraps both by name in bridge
from .fundamental import build_tensor_fundamental, tensor_fundamental_of, tensor_of_vectors
from .indices import exact_vec, sort_with_sign, sv_add


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


# -- the Leibniz coboundary ---------------------------------------------------


def leibniz_scatter(leib: HomLeibnizAlgebra, p: int):
    """The degree-p Leibniz coboundary read backwards, in the format of
    :func:`cochains.coboundary_scatter`, with x_a = a^(p-1)(b_a) (a^0 in
    degree 0) and 1-based k, j as in the module docstring:

    * the bracket terms (-1)^k phi(..., [a_k, a_j], ...) are scalar
      weights: slot j-1 of the stored key is read off the bracket table,
      every other slot off the twist, a goes to slot k < j and b to j;
    * left multiplication a -> [x_a, phi(u)] is one family, placed at u
      with a inserted in slot k <= p with sign (-1)^(k-1), and right
      multiplication a -> [phi(u), x_a] another, placed at (u, a) with
      sign (-1)^(p+1).  Their columns [x_a, b_m] and [b_m, x_a] are the
      cells of ``leib.table`` when x_a = b_a.
    """
    space_in = CochainSpace(leib.source, p, "adjoint", "leibniz")
    space_out = CochainSpace(leib.source, p + 1, "adjoint", "leibniz")
    dim, table = leib.dim, leib.table
    xs = [{a: 1} for a in range(dim)]
    for _ in range(max(p - 1, 0)):
        xs = [leib.twist_sparse(x) for x in xs]
    left, right = [[] for _ in range(dim)], [[] for _ in range(dim)]  # m -> [(a, column)]
    for a, x in enumerate(xs):
        unit = x == {a: 1}
        for m in range(dim):
            if unit:
                lcol, rcol = table[a][m], table[m][a]
            else:
                lcol = exact_vec(leib.bracket_sparse(x, {m: 1}))
                rcol = exact_vec(leib.bracket_sparse({m: 1}, x))
            if lcol:
                left[m].append((a, lcol))
            if rcol:
                right[m].append((a, rcol))
    twist, bracket = _inverse(enumerate(leib.twist_cols), dim), _inverse(_grid(table), dim)
    sign, slots = 1 if p % 2 else -1, [(k, 1 - 2 * (k % 2)) for k in range(p)]

    def scatter(u):
        scalars = {}
        twisted = [twist[x] for x in u]
        for j in range(p):  # slot j of u read off the bracket, the others off the twist
            for rest in itertools.product(*twisted[:j], *twisted[j + 1:]):
                args, w = _twisted(rest)
                head, tail = args[:j], args[j:]
                for a, b, wb in bracket[u[j]]:
                    args, wab = head + (b,) + tail, w * wb
                    for k, s in slots[:j + 1]:  # (-1)^k with 1-based k: -s
                        out = args[:k] + (a,) + args[k:]
                        scalars[out] = scalars.get(out, 0) - s * wab
        maps = [(right, lambda a: ((u + (a,), sign),))]
        if p:
            cuts = [(u[:k], u[k:], s) for k, s in slots]
            maps.append((left, lambda a: [(head + (a,) + tail, s) for head, tail, s in cuts]))
        return scalars, maps

    return space_in, space_out, scatter


def _applied(phi: Cochain, statement) -> Cochain:
    """phi under the map of a scatter statement ``(space_in, space_out,
    scatter)``."""
    _, space_out, scatter = statement
    return Cochain(space_out, scatter_values(phi.coeffs, scatter))


def leibniz_coboundary(leib: HomLeibnizAlgebra, phi: Cochain) -> Cochain:
    """The twisted Loday-Pirashvili coboundary of a Leibniz-layout
    cochain; degree 0 sends an element c to a -> -[c, a]."""
    return _applied(phi, leibniz_scatter(leib, phi.space.degree))


def leibniz_coboundary_matrix(leib: HomLeibnizAlgebra, p: int) -> linalg.SparseMatrix:
    """Operator matrix over lex-ordered tuple coordinates: component m of
    phi at the k-th p-tuple is column k * dim + m, component r of d phi at
    the k-th (p+1)-tuple is row k * dim + r.  The row count is
    dim^(p+2), so it is meant for small algebras."""
    return scatter_matrix(*leibniz_scatter(leib, p), leib.dim)


# -- cochains with tensor blocks plus one algebra slot ------------------------


def bridge_coboundary(phi: Cochain) -> Cochain:
    """The four-term coboundary on tensor-block cochains (p >= 0): the
    scatter of :func:`cochains.coboundary_scatter` in tensor mode with
    adjoint values, from phi's stored keys.

    Degree 0 is the derivation defect
    sum_i [x_1, ..., phi(x_i), ..., x_n] - phi([x_1, ..., x_n]),
    which is the general formula with a^0 = id.
    """
    alg, p = phi.space.alg, phi.space.degree
    _, _, scatter = coboundary_scatter(alg, adjoint_representation(alg), p, "tensor")
    space_out = CochainSpace(alg, p + 1, "adjoint", "tensor")
    return Cochain(space_out, scatter_values(phi.coeffs, scatter))


# -- the lift -----------------------------------------------------------------


def _lift_scatter(alg: HomNambuAlgebra, p: int, ops):
    """(lift phi)(u, t) = sum over slots s of ops[t][s] applied to
    phi(u, x^s), where t is the block x^1 x ... x x^(n-1), read from
    phi's side in the format of :func:`cochains.coboundary_scatter`: a
    stored key (u, x) feeds one family, the maps t -> sum of ops[t][s]
    over the slots s where t holds x, each placed at (u, t)."""
    space_in = CochainSpace(alg, p, "adjoint", "tensor")
    space_out = CochainSpace(alg, p + 1, "adjoint", "leibniz")
    maps = [{} for _ in range(alg.dim)]  # x -> t -> {m: column}
    for t, block in enumerate(space_out.wedge):
        for s, x in enumerate(block):
            if (op := maps[x].get(t)) is None:
                maps[x][t] = ops[t][s]
                continue
            summed = {m: dict(col) for m, col in op.items()}  # x in two slots of t
            for m, col in ops[t][s].items():
                target = summed.setdefault(m, {})
                for r, v in col.items():
                    target[r] = target.get(r, 0) + v
            maps[x][t] = {m: col for m, vec in summed.items() if (col := exact_vec(vec))}
    families = [_family(at, alg.dim) for at in maps]

    def scatter(key):
        u = key[:-1]
        return {}, [(families[key[-1]], lambda t: ((u + (t,), 1),))]

    return space_in, space_out, scatter


def _twisted_basis(alg: HomNambuAlgebra, p: int):
    """a^p(b_x) for every basis index x, integral entries as ints, the
    tensor blocks and the tensor coordinates of a product of sparse
    vectors."""
    leib = tensor_fundamental_of(alg)
    alpha_p = [exact_vec(alg.twist_column_sparse(i, p)) for i in range(alg.dim)]
    return alpha_p, leib.basis, partial(tensor_of_vectors, leib.index)


def lift_scatter(alg: HomNambuAlgebra, p: int):
    """The lift of degree-p tensor-mode cochains as a scatter: the slot
    maps b_m -> a^p(x^1) x ... x b_m x ... x a^p(x^(n-1)) of each block."""
    d, n = alg.dim, alg.arity
    alpha_p, blocks, tensor = _twisted_basis(alg, p)
    ops = [[_slot_map(tensor, [alpha_p[x] for x in t], s, d) for s in range(n - 1)] for t in blocks]
    return _lift_scatter(alg, p, ops)


def ternary_lift_scatter(alg: HomNambuAlgebra, p: int):
    """The two-term ternary form of :func:`lift_scatter` (dual code path)."""
    if alg.arity != 3:
        raise ValueError("ternary lift needs arity 3")
    d = alg.dim
    alpha_p, blocks, tensor = _twisted_basis(alg, p)
    # phi(..., x1) (x) a^p(x2) + a^p(x1) (x) phi(..., x2)
    first = [_slot_map(tensor, [None, alpha_p[x]], 0, d) for x in range(d)]
    second = [_slot_map(tensor, [alpha_p[x], None], 1, d) for x in range(d)]
    return _lift_scatter(alg, p, [(first[x2], second[x1]) for x1, x2 in blocks])


def delta_lift(phi: Cochain) -> Cochain:
    """Lift a p-block cochain to a (p+1)-argument Leibniz cochain by
    feeding each factor of the last block through it."""
    return _applied(phi, lift_scatter(phi.space.alg, phi.space.degree))


def delta_lift_ternary(phi: Cochain) -> Cochain:
    """The two-term ternary form of the lift; must agree with
    :func:`delta_lift` at arity 3 (dual code path)."""
    return _applied(phi, ternary_lift_scatter(phi.space.alg, phi.space.degree))


def check_commuting_square(phi: Cochain):
    """Evaluate d(lift phi) - lift(delta phi) on all basis tuples.

    Returns ``(holds, residuals)`` with residuals as a tuple -> vector
    table (empty iff the square commutes).
    """
    leib = tensor_fundamental_of(phi.space.alg)
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


def pullback_wedge_cochain(alg: HomNambuAlgebra, leib_t: HomLeibnizAlgebra, psi) -> Cochain:
    """Inject a wedge-space cochain (from the equivariant complex) along
    the antisymmetrization of each tensor block; integral values are
    stored as ints."""
    proj = wedge_projection(alg, leib_t)
    p = psi.space.degree
    out = {}
    for args in itertools.product(range(leib_t.dim), repeat=p):
        blocks = [proj[a] for a in args]
        if any(not b for b in blocks):
            continue
        for z in range(alg.dim):
            if val := psi.evaluate(blocks, {z: 1}):
                out[args + (z,)] = exact_vec(val)
    return Cochain(CochainSpace(alg, p, "adjoint", "tensor"), out)


def bridge_equivariance_violations(phi: Cochain):
    """Keys ``(blocks..., z)`` where twist . phi != phi o twist, in key
    order (empty iff phi is equivariant): the nonzero rows of the
    tensor-mode equivariance operator on phi."""
    alg = phi.space.alg
    return compatibility_violations(
        alg, adjoint_representation(alg), phi.space.degree, "tensor", phi.coeffs
    )


def random_bridge_cochain(alg: HomNambuAlgebra, leib: HomLeibnizAlgebra, p: int, rng, span=2):
    """Random integer-coefficient tensor-mode cochain (no symmetry
    constraints)."""
    out = {}
    for args in itertools.product(range(leib.dim), repeat=p):
        for z in range(alg.dim):
            vec = {r: rng.randint(-span, span) for r in range(alg.dim) if rng.random() < 0.5}
            if vec := {r: v for r, v in vec.items() if v}:
                out[args + (z,)] = vec
    return Cochain(CochainSpace(alg, p, "adjoint", "tensor"), out)
