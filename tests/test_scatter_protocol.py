"""The one matrix builder and the one pointwise apply agree on every
scatter of the package, and stored cochain values keep their form:
nonzero components only, no empty value, keys in sorted order."""

import random
from fractions import Fraction
from functools import cache

from hypothesis import given, settings
from hypothesis import strategies as st

from homnambu import bridge, cli, fixtures, linalg
from homnambu.algebra import zero_algebra
from homnambu.cochains import (
    Cochain,
    CochainSpace,
    coboundary_scatter,
    equivariance_scatter,
    scatter_matrix,
    scatter_values,
)
from homnambu.derivations import adjoint_representation, trivial_representation
from homnambu.formats import dumps_cochains, loads_cochains
from homnambu.indices import exact

ALGEBRAS = {
    "sl2": fixtures.sl2,
    "volume_d3_twisted": fixtures.volume_form_d3_twisted,
}
MODES = [("fused", None), ("fused", "split"), ("split", None), ("tensor", None)]


@cache
def algebra(name):
    return ALGEBRAS[name]()


def representation(name, coefficients):
    alg = algebra(name)
    return (adjoint_representation if coefficients == "adjoint" else trivial_representation)(alg)


def statement(case):
    """``(space_in, space_out, scatter, dv_in, dv_out)`` of one case."""
    kind, name, *rest = case
    alg = algebra(name)
    if kind == "coboundary":
        coefficients, p, mode, out_mode = rest
        rep = representation(name, coefficients)
        return (*coboundary_scatter(alg, rep, p, mode, out_mode), rep.dim, rep.dim)
    if kind == "equivariance":
        coefficients, p, mode = rest
        rep = representation(name, coefficients)
        return (*equivariance_scatter(alg, rep, p, mode), rep.dim, rep.dim)
    leib, (p,) = bridge.tensor_fundamental_of(alg), rest
    if kind == "leibniz":
        return (*bridge.leibniz_scatter(leib, p), leib.dim, leib.dim)
    lift = bridge.lift_scatter if kind == "lift" else bridge.ternary_lift_scatter
    return (*lift(alg, p), alg.dim, leib.dim)


CASES = [
    ("coboundary", name, coefficients, p, mode, out_mode)
    for name in ALGEBRAS
    for coefficients in ("trivial", "adjoint")
    for p in (0, 1)
    for mode, out_mode in MODES
]
CASES += [
    ("equivariance", name, coefficients, p, mode)
    for name in ALGEBRAS
    for coefficients in ("trivial", "adjoint")
    for p in (0, 1)
    for mode in ("fused", "split", "tensor")
]
CASES += [("leibniz", name, p) for name in ALGEBRAS for p in (0, 1)]
CASES += [("lift", name, p) for name in ALGEBRAS for p in (0, 1)]
CASES += [("ternary_lift", "volume_d3_twisted", p) for p in (0, 1)]


@cache
def built(case):
    """A case's statement and its matrix, built once."""
    space_in, space_out, scatter, dv, dv_out = statement(case)
    return space_in, space_out, scatter, dv, dv_out, scatter_matrix(
        space_in, space_out, scatter, dv, dv_out
    )


RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool)


def sparse_values(data, space, dv):
    """Random nonzero sparse rational values on a few keys, in key order."""
    keys = space.keys
    indices = st.integers(0, len(keys) - 1)
    chosen = data.draw(st.lists(indices, min_size=1, max_size=6, unique=True))
    values = {}
    for i in sorted(chosen):
        vec = data.draw(st.dictionaries(st.integers(0, dv - 1), RATIONALS, min_size=1, max_size=3))
        values[keys[i]] = {r: exact(v) for r, v in sorted(vec.items())}
    return values


def flat(values, space, dv):
    out = [0] * (space.nkeys * dv)
    for key, vec in values.items():
        for r, v in vec.items():
            out[space.index(key) * dv + r] = v
    return out


def assert_stored(coeffs):
    """The stored form: keys in sorted order, no empty value, no zero."""
    assert list(coeffs) == sorted(coeffs)
    assert all(vec and all(vec.values()) for vec in coeffs.values())


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_scatter_values_is_the_matrix_of_the_scatter(data):
    case = data.draw(st.sampled_from(CASES))
    space_in, space_out, scatter, dv, dv_out, matrix = built(case)
    values = sparse_values(data, space_in, dv)
    got = scatter_values(values, scatter)
    assert_stored(got)
    via_matrix = linalg.sparse_mat_vec(matrix, flat(values, space_in, dv))
    assert flat(got, space_out, dv_out) == list(via_matrix)


COMPLEXES = [
    ("coboundary", name, "trivial", mode) for name in ALGEBRAS for mode in ("fused", "split")
]
COMPLEXES += [("leibniz", name) for name in ALGEBRAS]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_pointwise_d_squared_is_zero(data):
    kind, name, *rest = data.draw(st.sampled_from(COMPLEXES))
    p = data.draw(st.integers(0, 1))
    if kind == "coboundary":
        coefficients, mode = rest
        cases = [(kind, name, coefficients, q, mode, None) for q in (p, p + 1)]
    else:
        cases = [(kind, name, q) for q in (p, p + 1)]
    (space_in, _, first, dv, *_), (_, _, second, *_) = map(statement, cases)
    once = scatter_values(sparse_values(data, space_in, dv), first)
    assert_stored(once)
    assert scatter_values(once, second) == {}


def test_stored_values_are_nonzero_and_sorted():
    alg = fixtures.filippov_n3()
    rng = random.Random(71)
    space = CochainSpace(alg, 1, "adjoint")
    flat_values = [Fraction(rng.choice((0, 0, 0, 1, -2))) for _ in range(space.dim)]
    assert_stored(Cochain.from_flat(space, flat_values).coeffs)
    # unsorted keys, zero components and an all-zero line in a file
    head = "kind = adjoint\ndegree = 1\ndim = 4\narity = 3\nmode = fused\ncochain 1\n"
    text = head + "[2,3,4] -> 0,1,0,0\n[1,2,3] -> 0,0,0,0\n[1,2,4] -> 1/2,0,0,-1\n"
    (loaded,) = loads_cochains(text, alg)
    assert_stored(loaded.coeffs)
    assert list(loaded.coeffs) == [(1,), (3,)]
    assert loads_cochains(dumps_cochains([loaded]), alg)[0].coeffs == loaded.coeffs
    # the bridge kernels, on inputs whose partial sums cancel
    cases = ((fixtures.filippov_n3(), 0), (fixtures.filippov_n3(), 1), (zero_algebra(3, 3), 1))
    for alg, p in cases:
        leib = bridge.tensor_fundamental_of(alg)
        phi = cli.bridge_input_cochain(alg, leib, p, 5)
        lifted = bridge.delta_lift(phi)
        outputs = [
            phi,
            lifted,
            bridge.delta_lift_ternary(phi),
            bridge.bridge_coboundary(phi),
            bridge.leibniz_coboundary(leib, lifted),
            bridge.random_bridge_cochain(alg, leib, p, rng),
        ]
        for cochain in outputs:
            assert_stored(cochain.coeffs)
