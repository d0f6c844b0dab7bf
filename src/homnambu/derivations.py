"""Derivation spaces at twist powers, inner derivations, representations.

A level-k derivation is a d x d matrix D that commutes with the twist
and satisfies the twisted Leibniz rule in which every untouched bracket
slot carries twist^k.  Level -1 is allowed with twist^(-1) = 0: the rule
then forces D to kill every bracket value (for n >= 2 each summand on
the right has at least one zero slot).

Both conditions are read off :mod:`homnambu.cochains`.  The level-k
action rho(x_1, ..., x_{n-1}) = [a^k(x_1), ..., a^k(x_{n-1}), .], nu the
twist (:func:`level_representation`; level 0 is the adjoint
representation), has the degree-0 coboundary

    (d D)(x_1, ..., x_n) = sum_i [a^k x_1, ..., D x_i, ..., a^k x_n] - D([x_1, ..., x_n]),

the negated Leibniz defect, and degree-0 equivariance rows a D - D a;
the level-k derivations are the common kernel of the two, and
:func:`derivation_violations` applies the same two operators to one
matrix.  Products of matrices (inner derivations, commutators, the
representation identity) are :func:`homnambu.linalg.sparse_matmul`.

Matrices of derivations are flattened row-major (D[r, c] at r*d + c) so
spaces of derivations live in Q^(d^2) as ordinary subspaces.  The
degree-0 cochain layout stores D[r, c] at c*d + r (column c of D at key
``(c,)``); :func:`row_major` moves an operator's columns across.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import cochains, linalg
from .algebra import AlgebraError, HomNambuAlgebra, ad_matrix
from .indices import exact_vec, expand, sort_with_sign, sv_to_dense, wedge_basis


class FixedPointError(AlgebraError):
    def __init__(self, component):
        self.component = component
        super().__init__(
            f"fixed-point precondition violated: twist does not fix argument {component}"
        )


class LevelUnderflowError(AlgebraError):
    def __init__(self, level):
        super().__init__(f"level underflow: {level} < -1")


@dataclass(eq=False)
class Derivation:
    matrix: linalg.SparseMatrix
    level: int


def unflatten_matrix(flat, d) -> linalg.SparseMatrix:
    return linalg.mat([flat[r * d:(r + 1) * d] for r in range(d)])


def row_major(m: linalg.SparseMatrix, d: int) -> linalg.SparseMatrix:
    """``m`` with its columns moved from the degree-0 cochain layout
    (psi[r, c] at c*d + r) to the row-major one (r*d + c)."""
    entries = {(row, (col % d) * d + col // d): v for (row, col), v in m.entries.items()}
    return linalg.SparseMatrix(m.rows, m.cols, entries)


def commutation_matrix(alg: HomNambuAlgebra) -> linalg.SparseMatrix:
    """Rows (A D - D A)[r, c] on flattened d x d matrices D, A the twist:
    the degree-0 equivariance rows; its kernel is the commutant of the
    twist."""
    return row_major(cochains.equivariance_matrix(alg, level_representation(alg, 0), 0), alg.dim)


def _leibniz_matrix(alg: HomNambuAlgebra, k: int) -> linalg.SparseMatrix:
    """The degree-0 coboundary of the level-k action on flattened D: row
    block t is sum_i [a^k x_1, ..., D x_i, ..., a^k x_n] - D([x]) at the
    t-th increasing n-tuple x."""
    m = cochains.coboundary_matrix(alg, level_representation(alg, k), 0, "split", "fused")
    return row_major(m, alg.dim)


def derivation_violations(alg: HomNambuAlgebra, matrix, k: int):
    """Exhaustive check of twist commutation and the level-k Leibniz rule.

    Returns violations; ``("twist_commutation", diff)`` for the first
    condition, ``(key, diff)`` per failing bracket tuple for the second,
    with diff = D([x]) - sum_i [a^k x_1, ..., D x_i, ..., a^k x_n].
    """
    d = alg.dim
    flat = [matrix[r, c] for r in range(d) for c in range(d)]
    defect = linalg.sparse_mat_vec(_leibniz_matrix(alg, k), flat)
    rows = linalg.sparse_mat_vec(commutation_matrix(alg), flat)  # (A D - D A)[r, c] at c*d + r
    violations = []
    if any(rows):
        comm = {(i % d, i // d): -v for i, v in enumerate(rows) if v}
        violations.append(("twist_commutation", linalg.SparseMatrix(d, d, comm)))
    for t, key in enumerate(wedge_basis(d, alg.arity)):
        diff = tuple(-v for v in defect[t * d:(t + 1) * d])
        if any(diff):
            violations.append((key, diff))
    return violations


def derivation_space(alg: HomNambuAlgebra, k: int) -> linalg.SubspaceBasis:
    """Canonical basis of all level-k derivations, as flattened matrices:
    the degree-0 cocycles of the level-k action that commute with the
    twist."""
    return linalg.kernel_basis(linalg.stack(_leibniz_matrix(alg, k), commutation_matrix(alg)))


def inner_derivation(alg: HomNambuAlgebra, xs, k: int) -> Derivation:
    """y -> [x_1, ..., x_{n-1}, twist^k(y)], a level-(k+1) derivation.

    Every x_i must be fixed by the twist; the membership claim is
    re-verified before returning.
    """
    if k < 1:
        raise AlgebraError("inner derivations need k >= 1")
    xs = [linalg.vec(x) for x in xs]
    if len(xs) != alg.arity - 1:
        raise AlgebraError("inner derivation needs n-1 vectors")
    for pos, x in enumerate(xs):
        if linalg.sparse_mat_vec(alg.twist, x) != x:
            raise FixedPointError(pos)
    m = linalg.sparse_matmul(ad_matrix(alg, xs), alg.twist_power(k))
    bad = derivation_violations(alg, m, k + 1)
    if bad:  # pragma: no cover - guaranteed by the fixed-point hypothesis
        raise AlgebraError(f"inner derivation failed verification: {bad[0]}")
    return Derivation(m, k + 1)


def derivation_commutator(alg: HomNambuAlgebra, d1: Derivation, d2: Derivation) -> Derivation:
    """Commutator of two derivations, verified at level k1 + k2."""
    level = d1.level + d2.level
    if level < -1:
        raise LevelUnderflowError(level)
    m = linalg.sparse_matmul(d1.matrix, d2.matrix) - linalg.sparse_matmul(d2.matrix, d1.matrix)
    bad = derivation_violations(alg, m, level)
    if bad:
        raise AlgebraError(f"commutator failed verification at level {level}: {bad[0]}")
    return Derivation(m, level)


# -- representations --------------------------------------------------------


@dataclass(eq=False)
class RepresentationMap:
    """Skew multilinear map from (n-1)-tuples of algebra elements to
    endomorphisms of a d'-dimensional module, plus the auxiliary map nu.

    ``rho`` stores matrices on increasing index tuples; other orders are
    sign-normalized on evaluation.  nu defaults to the algebra twist in
    the adjoint construction and is otherwise a free linear map.
    """

    arity: int
    dim: int
    rho: dict
    nu: linalg.SparseMatrix

    @cached_property
    def rho_columns(self) -> dict:
        """Sparse columns of every nonzero rho matrix, by increasing tuple,
        integral entries as ints, built on first use and never mutated."""
        out = {}
        for key, m in self.rho.items():
            cols = [exact_vec(m.column(c)) for c in range(self.dim)]
            if any(cols):
                out[key] = cols
        return out

    def rho_basis(self, key) -> linalg.SparseMatrix:
        canon, sign = sort_with_sign(key)
        m = self.rho.get(canon)
        if sign == 0 or m is None:
            return linalg.zeros(self.dim, self.dim)
        return m if sign == 1 else -m


def trivial_representation(alg: HomNambuAlgebra) -> RepresentationMap:
    """V = Q with rho = 0 and nu = 1: the scalar coefficients."""
    return RepresentationMap(arity=alg.arity, dim=1, rho={}, nu=linalg.eye(1))


def level_representation(alg: HomNambuAlgebra, k: int) -> RepresentationMap:
    """V = L with rho(x) = [a^k(x_1), ..., a^k(x_{n-1}), .] and nu the
    twist: the level-k action, rho = 0 at k = -1 where a^(-1) = 0."""
    if k < -1:
        raise LevelUnderflowError(k)
    moved = [sv_to_dense(col, alg.dim) for col in alg.twist_columns(k)]
    rho = {
        key: ad_matrix(alg, [moved[i] for i in key])
        for key in wedge_basis(alg.dim, alg.arity - 1)
    }
    return RepresentationMap(arity=alg.arity, dim=alg.dim, rho=rho, nu=alg.twist)


def adjoint_representation(alg: HomNambuAlgebra) -> RepresentationMap:
    """V = L with rho(x) = L(x) = [x_1, ..., x_{n-1}, .] and nu the twist,
    memoized on the algebra like ``fundamental_of``: algebras are
    immutable once built, and no caller mutates ``rho`` or ``nu``."""
    cached = getattr(alg, "_adjoint", None)
    if cached is None:
        cached = alg._adjoint = level_representation(alg, 0)
    return cached


def _rho_eval(rep: RepresentationMap, sparse_args) -> linalg.SparseMatrix:
    """Multilinear skew expansion of rho on sparse vectors."""
    out = linalg.zeros(rep.dim, rep.dim)
    for ids, coeff in expand(sparse_args):
        out = out + coeff * rep.rho_basis(ids)
    return out


def check_representation(alg: HomNambuAlgebra, rep: RepresentationMap):
    """Exhaustive check of the representation identity on increasing
    basis tuples x, y; returns violations ``(x, y, difference_matrix)``.

    The right-hand sum inserts ad(x)(y_i) into y's slots:

        rho(a(x)) rho(y) - rho(a(y)) rho(x)
            = sum_i rho(a(y_1), ..., ad(x)(y_i), ..., a(y_{n-1})) o nu

    (with the roles the other way around, the adjoint action of a valid
    algebra fails by an overall sign; at n = 2 this form reduces to the
    usual Hom-Lie condition rho(a(x)) rho(y) - rho(a(y)) rho(x) =
    rho([x, y]) o nu).
    """
    n, d = alg.arity, alg.dim
    alpha_cols = alg.twist_columns(1)
    violations = []
    for x in wedge_basis(d, n - 1):
        for y in wedge_basis(d, n - 1):
            rho_ax = _rho_eval(rep, [alpha_cols[i] for i in x])
            rho_ay = _rho_eval(rep, [alpha_cols[i] for i in y])
            rho_x = rep.rho_basis(x)
            rho_y = rep.rho_basis(y)
            lhs = linalg.sparse_matmul(rho_ax, rho_y) - linalg.sparse_matmul(rho_ay, rho_x)
            rhs = linalg.zeros(rep.dim, rep.dim)
            for i in range(n - 1):
                ad_x_yi = alg.bracket_basis_sparse(x + (y[i],))
                args = [alpha_cols[y[j]] for j in range(i)]
                args.append(ad_x_yi)
                args += [alpha_cols[y[j]] for j in range(i + 1, n - 1)]
                rhs = rhs + _rho_eval(rep, args)
            rhs = linalg.sparse_matmul(rhs, rep.nu)
            diff = lhs - rhs
            if not linalg.is_zero_matrix(diff):
                violations.append((x, y, diff))
    return violations


class SingularMapError(AlgebraError):
    pass


def check_rep_equivalence(rep: RepresentationMap, rep2: RepresentationMap, f) -> bool:
    """True iff f intertwines the two representations: f nu = nu' f, and
    f rho(x) = rho'(x) f on every increasing basis tuple.  f must be
    invertible."""
    if rep.dim != rep2.dim or rep.arity != rep2.arity:
        raise AlgebraError("representations are not comparable")
    if linalg.rank(f) != rep.dim:
        raise SingularMapError("singular f")
    if linalg.sparse_matmul(f, rep.nu) != linalg.sparse_matmul(rep2.nu, f):
        return False
    return all(
        linalg.sparse_matmul(f, rep.rho_basis(key)) == linalg.sparse_matmul(rep2.rho_basis(key), f)
        for key in sorted(set(rep.rho) | set(rep2.rho))
    )
