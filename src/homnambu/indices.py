"""Index combinatorics shared by the whole package.

Basis indices are 0-based everywhere in code; the text file format and
printed reports use the customary 1-based labels.  A "wedge tuple" is a
strictly increasing tuple of basis indices; permuting arguments of a
skew-symmetric slot is handled by :func:`sort_with_sign`.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache


def perm_sign(perm) -> int:
    """Sign of a permutation given as a sequence of distinct ints."""
    perm = list(perm)
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


@lru_cache(maxsize=1 << 16)
def sort_with_sign(idx: tuple):
    """Canonicalize a tuple of basis indices for a skew-symmetric slot.

    Returns ``(sorted_tuple, sign)``; sign is 0 when an index repeats.
    Pure and memoized, so ``idx`` must be a tuple: the few distinct
    tuples of at most n indices below d are each sorted once.
    """
    if len(set(idx)) != len(idx):
        return idx, 0
    order = sorted(range(len(idx)), key=idx.__getitem__)
    return tuple(idx[i] for i in order), perm_sign(order)


def wedge_basis(dim: int, k: int):
    """All strictly increasing k-tuples in ``range(dim)``, in lex order."""
    return list(itertools.combinations(range(dim), k))


def tensor_basis(dim: int, k: int):
    """All k-tuples in ``range(dim)``, in lex order."""
    return list(itertools.product(range(dim), repeat=k))


def levi_civita(indices) -> int:
    """Totally antisymmetric symbol on ``len(indices)`` letters.

    The index set is whatever appears; returns the sign of the sequence
    relative to its sorted order, 0 on repeats.
    """
    _, sign = sort_with_sign(indices)
    return sign


# ---------------------------------------------------------------------------
# sparse vectors: {index: rational} with zero entries never stored


def exact(v):
    """An integral value as ``int``, any other rational as ``Fraction``."""
    return v.numerator if v.denominator == 1 else v


def exact_vec(vec: dict) -> dict:
    return {k: exact(v) for k, v in vec.items() if v}


def expand(vectors):
    """``(index tuple, weight)`` pairs of a product of sparse vectors, in
    lexicographic order of the factors' entries."""
    out = [((), 1)]
    for vec in vectors:
        out = [(t + (i,), w * c) for t, w in out for i, c in vec.items()]
    return out


def sv_add(acc: dict, key, coeff) -> None:
    """Accumulate ``coeff`` at ``key`` in a sparse dict, dropping zeros."""
    if not coeff:
        return
    new = acc.get(key, 0) + coeff
    if new:
        acc[key] = new
    else:
        acc.pop(key, None)


def sv_to_dense(vec: dict, length: int) -> tuple:
    out = [Fraction(0)] * length
    for k, v in vec.items():
        out[k] = v
    return tuple(out)
