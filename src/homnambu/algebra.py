"""n-ary multiplicative Hom-Nambu-Lie algebras as exact structure constants.

An algebra is a dimension ``d``, an arity ``n``, a skew-symmetric
n-linear bracket stored on strictly increasing basis tuples, and a d x d
twist matrix.  Skew-symmetry is structural: only increasing tuples are
stored, every other argument order is obtained by sign bookkeeping, and
a repeated argument gives zero.  So :func:`check_skew_symmetry` checks
the stored representation only, in O(#brackets); the permutation oracle
that evaluates every argument order lives in the tests.  Bracket lookups
read a per-algebra table of sparse columns with integral constants as
``int``, built on first use and dropped by every insert; the twist's
columns and its rows read backwards are built on first use too.

The other validators run over basis tuples only.  That suffices: both
sides of the defining identities are multilinear in every slot and skew
within each bracket slot group, so their difference vanishes on all
arguments as soon as it vanishes on increasing basis tuples.  Values are
immutable after construction; validators are pure apart from setting the
``*_checked`` flags on success.  The fundamental identity is stated once,
as a defect bilinear in an outer and an inner bracket; its validator and
the deformation check of :mod:`homnambu.adjoint_cohomology` both read it.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cache, cached_property, partial

from . import linalg
from .indices import exact_vec, expand, read_backwards, sort_with_sign, sv_add, wedge_basis

ZERO = Fraction(0)
ONE = Fraction(1)


class AlgebraError(ValueError):
    pass


class InconsistentBracketError(AlgebraError):
    """Duplicate bracket entries that disagree after normalization."""


class NotAnEndomorphismError(AlgebraError):
    def __init__(self, tuple_1based):
        self.failing_tuple = tuple_1based
        super().__init__(f"not an endomorphism: fails on basis tuple {tuple_1based}")


class HomNambuAlgebra:
    """Bracket structure constants plus twist; see the module docstring."""

    def __init__(self, dim, arity, coeffs=None, twist=None):
        if dim < 1 or arity < 2:
            raise AlgebraError("need dim >= 1 and arity >= 2")
        self.dim = int(dim)
        self.arity = int(arity)
        twist = linalg.eye(dim) if twist is None else linalg.mat(twist)
        if twist.shape != (dim, dim):
            raise AlgebraError(f"twist must be {dim}x{dim}")
        self.twist = twist
        self.coeffs = {}
        self._columns = None
        for key, value in (coeffs or {}).items():
            self._insert(key, value)
        self.skew_checked = False
        self.hom_nambu_checked = False
        self.multiplicative_checked = False
        self._twist_powers = {0: linalg.eye(dim), 1: self.twist}
        self._twist_columns = {}

    def _insert(self, key, value):
        n, d = self.arity, self.dim
        key = tuple(int(i) for i in key)
        if len(key) != n:
            raise AlgebraError(f"bracket tuple {key} has arity {len(key)}, expected {n}")
        if any(i < 0 or i >= d for i in key):
            raise AlgebraError(f"bracket tuple {key} out of range for dim {d}")
        value = linalg.vec(value)
        if len(value) != d:
            raise AlgebraError(f"bracket value for {key} has length {len(value)}, expected {d}")
        canon, sign = sort_with_sign(key)
        if sign == 0:
            if any(value):
                raise InconsistentBracketError(f"repeated index in {key} with nonzero value")
            return
        value = tuple(sign * v for v in value)
        if canon in self.coeffs:
            if self.coeffs[canon] != value:
                raise InconsistentBracketError(f"conflicting entries for tuple {canon}")
            return
        if any(value):
            self.coeffs[canon] = value
            self._columns = None

    def __repr__(self):
        return (
            f"HomNambuAlgebra(dim={self.dim}, arity={self.arity}, "
            f"brackets={len(self.coeffs)})"
        )

    # -- basic evaluation ---------------------------------------------------

    def zero_vector(self) -> tuple:
        return (ZERO,) * self.dim

    def basis_vector(self, i: int) -> tuple:
        return tuple(ONE if j == i else ZERO for j in range(self.dim))

    def bracket_basis(self, key) -> tuple:
        """Bracket of basis vectors in any order, via sign normalization."""
        canon, sign = sort_with_sign(key)
        if sign == 0:
            return self.zero_vector()
        value = self.coeffs.get(canon)
        if value is None:
            return self.zero_vector()
        return value if sign == 1 else tuple(-v for v in value)

    def bracket_basis_sparse(self, key) -> dict:
        """Sparse bracket of basis vectors in any order: a fresh dict, with
        integral values as ``int``."""
        canon, sign = sort_with_sign(key)
        if self._columns is None:
            self._columns = {k: exact_vec(dict(enumerate(v))) for k, v in self.coeffs.items()}
        col = self._columns.get(canon) if sign else None
        if not col:
            return {}
        return dict(col) if sign == 1 else {i: -v for i, v in col.items()}

    def twist_power(self, k: int) -> linalg.SparseMatrix:
        """alpha^k with the conventions alpha^0 = id and alpha^(-1) = 0,
        built up from the highest power cached."""
        if k < -1:
            raise AlgebraError("twist power below -1")
        if k == -1:
            return linalg.zeros(self.dim, self.dim)
        powers = self._twist_powers
        for j in range(len(powers), k + 1):  # powers 0 .. len - 1 are cached
            powers[j] = linalg.sparse_matmul(self.twist, powers[j - 1])
        return powers[k]

    def twist_columns(self, k: int) -> list:
        """The sparse columns of alpha^k, integral entries as ints, built
        on first use; shared by every reader, so never mutated."""
        if (cols := self._twist_columns.get(k)) is None:
            power = self.twist_power(k)
            cols = self._twist_columns[k] = [exact_vec(power.column(i)) for i in range(self.dim)]
        return cols

    @cached_property
    def twist_rows(self) -> list:
        """alpha read backwards: ``twist_rows[t]`` lists ``(i, w)`` for
        every column i of alpha with w at t."""
        return read_backwards(enumerate(self.twist_columns(1)), self.dim)


def zero_algebra(dim: int, arity: int, twist=None) -> HomNambuAlgebra:
    return HomNambuAlgebra(dim, arity, {}, twist)


def bracket_eval_sparse(alg: HomNambuAlgebra, args) -> dict:
    """Multilinear skew expansion of the bracket on sparse vectors."""
    if len(args) != alg.arity:
        raise AlgebraError(f"bracket needs {alg.arity} arguments, got {len(args)}")
    out = {}
    for ids, coeff in expand(args):
        for idx, v in alg.bracket_basis_sparse(ids).items():
            sv_add(out, idx, coeff * v)
    return out


def bracket_eval(alg: HomNambuAlgebra, args) -> tuple:
    """Bracket of n dense vectors of length d."""
    sparse_args = []
    for a in args:
        a = linalg.vec(a)
        if len(a) != alg.dim:
            raise AlgebraError("argument length mismatch")
        sparse_args.append({i: v for i, v in enumerate(a) if v})
    out = bracket_eval_sparse(alg, sparse_args)
    return tuple(out.get(i, ZERO) for i in range(alg.dim))


def ad_matrix(alg: HomNambuAlgebra, xs) -> linalg.SparseMatrix:
    """Matrix of y -> [x_1, ..., x_{n-1}, y] for fixed vectors xs."""
    if len(xs) != alg.arity - 1:
        raise AlgebraError("ad needs n-1 vectors")
    sparse_xs = [{i: v for i, v in enumerate(linalg.vec(x)) if v} for x in xs]
    entries = {
        (i, j): v
        for j in range(alg.dim)
        for i, v in bracket_eval_sparse(alg, sparse_xs + [{j: ONE}]).items()
    }
    return linalg.SparseMatrix(alg.dim, alg.dim, entries)


# -- validators -------------------------------------------------------------


def check_skew_symmetry(alg: HomNambuAlgebra):
    """Check the stored representation: every key of ``alg.coeffs`` is a
    strictly increasing n-tuple in ``range(d)`` with a nonzero value of
    length d.  Every other argument order is read through
    :func:`sort_with_sign`, so the bracket is skew exactly when this holds.

    Returns a list of violations ``(key, sparse value)``.
    """
    n, d = alg.arity, alg.dim
    violations = []
    for key, value in alg.coeffs.items():
        canonical = (
            len(key) == n
            and 0 <= key[0]
            and key[-1] < d
            and all(a < b for a, b in zip(key, key[1:]))
        )
        if not (canonical and len(value) == d and any(value)):
            violations.append((key, {i: v for i, v in enumerate(value) if v}))
    if not violations:
        alg.skew_checked = True
    return violations


class _SlotMap:
    """The linear map v -> outer(args with v in ``slot``), its columns
    outer(args with e_m in ``slot``) evaluated on first use."""

    def __init__(self, outer, args, slot: int):
        self.outer, self.args, self.slot, self.columns = outer, args, slot, {}

    def add_image(self, diff: dict, vector: dict, sign: int) -> None:
        """``diff += sign * map(vector)``, zeros dropped."""
        columns = self.columns
        for m, c in vector.items():
            if (column := columns.get(m)) is None:
                args, slot = self.args, self.slot
                column = columns[m] = self.outer(args[:slot] + [{m: 1}] + args[slot + 1:])
            for idx, v in column.items():
                if new := diff.get(idx, 0) + sign * c * v:
                    diff[idx] = new
                else:
                    del diff[idx]


def fundamental_identity_defects(alg: HomNambuAlgebra, pairs):
    """``(x, y, defect)`` wherever the twisted fundamental-identity defect,
    summed over the ``(outer, inner)`` pairs, is nonzero:

        outer(a x, inner(y)) - sum_i outer(a y_1, ..., inner(x, y_i), ..., a y_n)

    with a the twist, ``outer`` bracketing n sparse vectors and ``inner``
    n basis indices.  The defect is bilinear in (outer, inner).  Each
    ``inner`` is called once per distinct index tuple (its values are
    kept for this call only and must not be mutated).  ``outer`` is
    linear in every slot, so it is evaluated at most once per call on
    each unit vector: outer(a x, .) in the last slot per x, and
    outer(a y_1, ..., ., ..., a y_n) in slot i per (y, i); each term is
    the image of an ``inner`` value under those columns.  No
    skew-symmetry of ``outer`` is assumed.
    """
    n, d = alg.arity, alg.dim
    alpha_cols = alg.twist_columns(1)
    xs, ys = wedge_basis(d, n - 1), wedge_basis(d, n)
    tables = []
    for outer, inner in pairs:
        left = {x: _SlotMap(outer, [alpha_cols[j] for j in x] + [None], n - 1) for x in xs}
        right = {}
        for y in ys:
            args = [alpha_cols[j] for j in y]
            right[y] = [_SlotMap(outer, args, i) for i in range(n)]
        tables.append((left, right, cache(inner)))
    defects = []
    for x in xs:
        for y in ys:
            diff = {}
            for left, right, inner in tables:
                left[x].add_image(diff, inner(y), 1)
                for i, slot_map in enumerate(right[y]):
                    slot_map.add_image(diff, inner(x + (y[i],)), -1)
            if diff:
                defects.append((x, y, diff))
    return defects


def check_hom_nambu_identity(alg: HomNambuAlgebra):
    """Violations ``(x, y, lhs_minus_rhs)`` of the twisted fundamental
    identity: the defect of the pair (bracket, bracket)."""
    violations = fundamental_identity_defects(
        alg, [(partial(bracket_eval_sparse, alg), alg.bracket_basis_sparse)]
    )
    if not violations:
        alg.hom_nambu_checked = True
    return violations


def _endomorphism_defects(alg: HomNambuAlgebra, cols):
    """``(key, rho(bracket) - bracket(rho, ..., rho))`` on every increasing
    basis tuple where it is nonzero; ``cols`` are rho's sparse columns."""
    for key in wedge_basis(alg.dim, alg.arity):
        diff = {}
        for idx, v in alg.bracket_basis_sparse(key).items():
            for r, w in cols[idx].items():
                sv_add(diff, r, v * w)
        for idx, v in bracket_eval_sparse(alg, [cols[i] for i in key]).items():
            sv_add(diff, idx, -v)
        if diff:
            yield key, diff


def check_multiplicativity(alg: HomNambuAlgebra):
    """Check twist(bracket) = bracket(twist, ..., twist) on basis tuples."""
    violations = list(_endomorphism_defects(alg, alg.twist_columns(1)))
    if not violations:
        alg.multiplicative_checked = True
    return violations


def validate(alg: HomNambuAlgebra) -> dict:
    """Run all three validators; returns the violation lists by name."""
    return {
        "skew": check_skew_symmetry(alg),
        "hom_nambu": check_hom_nambu_identity(alg),
        "multiplicative": check_multiplicativity(alg),
    }


def is_valid(alg: HomNambuAlgebra) -> bool:
    return not any(validate(alg).values())


# -- constructions ----------------------------------------------------------


def endomorphism_failure(alg: HomNambuAlgebra, rho):
    """First increasing basis tuple where rho fails to be a bracket
    endomorphism, or None."""
    cols = [rho.column(i) for i in range(alg.dim)]
    return next((key for key, _ in _endomorphism_defects(alg, cols)), None)


def yau_twist(nambu: HomNambuAlgebra, rho) -> HomNambuAlgebra:
    """Twist a classical Nambu-Lie algebra along an endomorphism rho.

    The input must carry the identity twist and satisfy the untwisted
    fundamental identity; the output has bracket rho([...]) and twist
    rho, and is revalidated before being returned.
    """
    if not linalg.is_zero_matrix(nambu.twist - linalg.eye(nambu.dim)):
        raise AlgebraError("yau_twist input must have identity twist")
    if check_hom_nambu_identity(nambu):
        raise AlgebraError("yau_twist input fails the fundamental identity")
    rho = linalg.mat(rho)
    failing = endomorphism_failure(nambu, rho)
    if failing is not None:
        raise NotAnEndomorphismError(tuple(i + 1 for i in failing))
    coeffs = {
        key: linalg.sparse_mat_vec(rho, value)
        for key, value in nambu.coeffs.items()
    }
    twisted = HomNambuAlgebra(nambu.dim, nambu.arity, coeffs, rho)
    bad = validate(twisted)
    if any(bad.values()):
        raise AlgebraError(f"twisted algebra failed validation: {bad}")
    return twisted


def filippov_algebra(arity: int, signs) -> HomNambuAlgebra:
    """The (n+1)-dimensional Nambu-Lie algebra where dropping basis vector
    e_i from (e_1, ..., e_{n+1}) gives (-1)^(i+1) * signs[i-1] * e_i.

    ``signs`` is a length n+1 sequence of +-1; the twist is the identity.
    """
    n = int(arity)
    signs = [int(s) for s in signs]
    if len(signs) != n + 1 or any(s not in (1, -1) for s in signs):
        raise AlgebraError("signs must be n+1 values of +-1")
    d = n + 1
    coeffs = {}
    for i in range(d):
        key = tuple(j for j in range(d) if j != i)
        value = [ZERO] * d
        value[i] = Fraction((-1) ** i * signs[i])
        coeffs[key] = tuple(value)
    alg = HomNambuAlgebra(d, n, coeffs)
    bad = validate(alg)
    if any(bad.values()):  # pragma: no cover - construction is always valid
        raise AlgebraError(f"construction failed validation: {bad}")
    return alg


def signed_permutation_automorphisms(alg: HomNambuAlgebra):
    """Brute-force search over signed permutation matrices for bracket
    endomorphisms (all invertible, hence automorphisms).

    2^d * d! candidates; meant for desk-scale test fixtures, d <= 5.
    """
    d = alg.dim
    found = []
    for perm in itertools.permutations(range(d)):
        for signs in itertools.product((1, -1), repeat=d):
            rho = linalg.SparseMatrix(d, d, {(perm[i], i): Fraction(signs[i]) for i in range(d)})
            if endomorphism_failure(alg, rho) is None:
                found.append(rho)
    return found
