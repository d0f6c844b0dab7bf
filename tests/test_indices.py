"""Index combinatorics: signs, canonicalization, sparse helpers."""

import itertools
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from homnambu.indices import (
    levi_civita,
    perm_sign,
    sort_with_sign,
    sv_add,
    sv_to_dense,
    tensor_basis,
    wedge_basis,
)


def test_perm_sign_matches_inversion_count():
    for perm in itertools.permutations(range(4)):
        inversions = sum(
            1 for i in range(4) for j in range(i + 1, 4) if perm[i] > perm[j]
        )
        assert perm_sign(perm) == (-1) ** inversions


@given(st.permutations(list(range(5))))
@settings(max_examples=40, deadline=None)
def test_sort_with_sign_consistent_with_perm_sign(perm):
    canon, sign = sort_with_sign(tuple(perm))
    assert canon == tuple(sorted(perm))
    assert sign == perm_sign(perm)


def test_sort_with_sign_repeat_is_zero():
    assert sort_with_sign((2, 1, 2)) == ((2, 1, 2), 0)


@given(st.lists(st.integers(0, 6), min_size=2, max_size=5))
@settings(max_examples=60, deadline=None)
def test_sort_with_sign_idempotent(indices):
    canon, sign = sort_with_sign(tuple(indices))
    if sign == 0:
        assert len(set(indices)) < len(indices)
    else:
        again, sign2 = sort_with_sign(canon)
        assert again == canon and sign2 == 1


def test_levi_civita_totally_antisymmetric():
    for perm in itertools.permutations((0, 1, 2, 3)):
        assert levi_civita(perm) == perm_sign(perm)
    assert levi_civita((0, 1, 1)) == 0


def test_wedge_and_tensor_basis_sizes():
    assert len(wedge_basis(5, 3)) == 10
    assert len(tensor_basis(4, 2)) == 16
    assert wedge_basis(3, 2) == [(0, 1), (0, 2), (1, 2)]


def test_sparse_vector_roundtrip_drops_zeros():
    dense = (Fraction(0), Fraction(2), Fraction(0), Fraction(-1, 3))
    sv = {i: v for i, v in enumerate(dense) if v}
    assert sv == {1: Fraction(2), 3: Fraction(-1, 3)}
    assert sv_to_dense(sv, 4) == dense
    sv_add(sv, 1, Fraction(-2))
    assert 1 not in sv
