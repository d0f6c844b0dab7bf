"""Algebra-valued cohomology: equivariant cochains, the coboundary,
infinitesimal deformations.

The adjoint complex is the complex of :mod:`homnambu.cochains` with
values in the adjoint representation (V = L, rho(x) = L(x), nu the
twist), which states its four-term coboundary.  Cochains are required
to intertwine the twist (equivariance); the report is the shared
:func:`cochains.cohomology` computed inside that subspace, so the
cocycles are the kernel of the coboundary together with the equivariance
rows.

Degree 0 is the derivation-defect extension

    (d psi)(x_1, ..., x_n) = sum_i [x_1, ..., psi(x_i), ..., x_n] - psi([x_1, ..., x_n])

restricted to equivariant matrices psi.  It is the p = 0 case of the
general operator, on the degree-0 space whose key ``(z,)`` holds column
z of psi; :func:`zero_coboundary_matrix` moves its columns to the
row-major layout with :func:`derivations.row_major`, and its equivariant
kernel is the level-0 derivation space.  Its image consists of
cocycles: for equivariant psi, conjugating the bracket by id + t psi
changes neither the twist (to first order) nor the validity of the
fundamental identity, so the defect is precisely the tangent direction
of a change of basis; reports expose the choice by also stating the
no-degree-zero-boundaries count.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import partial

from . import cochains, linalg
from .algebra import AlgebraError, HomNambuAlgebra, bracket_eval_sparse
from .cochains import Cochain, CochainSpace
from .derivations import adjoint_representation, commutation_matrix, row_major
from .fundamental import wedge_of_vectors
from .indices import sv_add, wedge_basis

ONE = Fraction(1)
ZERO = Fraction(0)


class NotEquivariantError(AlgebraError):
    def __init__(self, key):
        self.key = key
        super().__init__(f"cochain is not equivariant: fails at {key}")


def equivariance_matrix(alg: HomNambuAlgebra, p: int, mode: str = "fused") -> linalg.SparseMatrix:
    """Rows of a . psi(args) - psi(a args) over canonical tuples; the
    equivariant subspace is the kernel."""
    return cochains.equivariance_matrix(alg, adjoint_representation(alg), p, mode)


def equivariant_basis(alg: HomNambuAlgebra, p: int, mode: str = "fused") -> linalg.SubspaceBasis:
    return linalg.kernel_basis(equivariance_matrix(alg, p, mode))


def equivariance_violations(alg: HomNambuAlgebra, psi: Cochain):
    """Keys where a . psi != psi o a, in key order; empty iff psi is
    equivariant."""
    values = {key: {r: v for r, v in enumerate(vec) if v} for key, vec in psi.coeffs.items()}
    return cochains.compatibility_violations(
        alg, adjoint_representation(alg), psi.space.degree, psi.space.mode, values
    )


def coboundary_matrix(
    alg: HomNambuAlgebra, p: int, mode: str = "fused", out_mode: str | None = None
) -> linalg.SparseMatrix:
    """Sparse matrix of the four-term degree-p coboundary, p >= 0."""
    return cochains.coboundary_matrix(alg, adjoint_representation(alg), p, mode, out_mode)


# -- degree 0: the derivation-defect extension --------------------------------


def zero_coboundary_matrix(alg: HomNambuAlgebra, mode: str = "fused") -> linalg.SparseMatrix:
    """Matrix of psi (d x d, row-major) -> derivation defect of psi: the
    degree-0 operator with psi[r, c] moved from column c*d + r to r*d + c."""
    return row_major(coboundary_matrix(alg, 0, "split", mode), alg.dim)


def equivariant_matrix_space(alg: HomNambuAlgebra) -> linalg.SubspaceBasis:
    """Matrices commuting with the twist, flattened row-major."""
    return linalg.kernel_basis(commutation_matrix(alg))


def cohomology(alg: HomNambuAlgebra, p: int, mode: str = "fused") -> cochains.CohomologyReport:
    """Report inside the equivariant subspace, p >= 1:
    :func:`cochains.cohomology` of this module's operator and
    equivariance rows (this module's names, so that wrappers installed on
    them see every operator of the report).

    Degree-1 coboundaries are derivation defects, and the report also
    carries the value without them.
    """
    if p < 1:
        raise ValueError("adjoint reports start at degree 1")
    return cochains.cohomology(
        p, mode, partial(coboundary_matrix, alg), partial(equivariance_matrix, alg)
    )


# -- infinitesimal deformations ----------------------------------------------


def dual_number_bracket(alg: HomNambuAlgebra, psi: Cochain, args):
    """Evaluate the deformed bracket on dual numbers (t^2 = 0):
    returns (bracket value, coefficient of t)."""
    if psi.space.degree != 1:
        raise ValueError("deformation cochains have degree 1")
    from .algebra import bracket_eval

    n = alg.arity
    if len(args) != n:
        raise ValueError("argument count mismatch")
    value = bracket_eval(alg, args)
    sparse = [{i: v for i, v in enumerate(linalg.vec(a)) if v} for a in args]
    w = wedge_of_vectors(psi.space.windex, sparse[: n - 1])
    t_coeff = psi.evaluate([w], sparse[n - 1])
    return value, t_coeff


def deformation_residuals(alg: HomNambuAlgebra, psi: Cochain):
    """t-linear part of the fundamental identity for bracket + t psi,
    evaluated on increasing basis tuples; returns [(x, y, residual)]."""
    d, n = alg.dim, alg.arity
    space = psi.space
    alpha_cols = [alg.twist_column_sparse(i) for i in range(d)]
    out = []
    for x in wedge_basis(d, n - 1):
        wx_alpha = wedge_of_vectors(space.windex, [alpha_cols[i] for i in x])
        for y in wedge_basis(d, n):
            # lhs_t = [a(x), psi(y)] + psi(a(x), [y])
            psi_y = psi.evaluate([wedge_of_vectors(space.windex, [{i: ONE} for i in y[:-1]])], {y[-1]: ONE})
            res = dict(
                bracket_eval_sparse(
                    alg,
                    [alpha_cols[i] for i in x] + [{i: v for i, v in enumerate(psi_y) if v}],
                )
            )
            inner = alg.bracket_basis_sparse(y)
            for i, v in enumerate(psi.evaluate([wx_alpha], inner)):
                sv_add(res, i, v)
            # rhs_t = sum_i [a(y_1), ..., psi(x, y_i), ..., a(y_n)]
            #       + sum_i psi(a(y_1), ..., [x, y_i], ..., a(y_n))
            for i in range(n):
                psi_xyi = psi.evaluate(
                    [wedge_of_vectors(space.windex, [{j: ONE} for j in x])], {y[i]: ONE}
                )
                args = [alpha_cols[y[t]] for t in range(i)]
                args.append({j: v for j, v in enumerate(psi_xyi) if v})
                args += [alpha_cols[y[t]] for t in range(i + 1, n)]
                for r, v in bracket_eval_sparse(alg, args).items():
                    sv_add(res, r, -v)
                inner_i = alg.bracket_basis_sparse(x + (y[i],))
                if i == n - 1:
                    w = wedge_of_vectors(space.windex, [alpha_cols[y[t]] for t in range(n - 1)])
                    val = psi.evaluate([w], inner_i)
                else:
                    factors = (
                        [alpha_cols[y[t]] for t in range(i)]
                        + [inner_i]
                        + [alpha_cols[y[t]] for t in range(i + 1, n - 1)]
                    )
                    val = psi.evaluate(
                        [wedge_of_vectors(space.windex, factors)], alpha_cols[y[n - 1]]
                    )
                for r, v in enumerate(val):
                    sv_add(res, r, -v)
            if res:
                out.append((x, y, res))
    return out


def check_infinitesimal_deformation(alg: HomNambuAlgebra, psi: Cochain) -> bool:
    """True iff psi is a degree-1 cocycle; asserts that the cocycle
    verdict and the dual-number residual verdict agree."""
    bad = equivariance_violations(alg, psi)
    if bad:
        raise NotEquivariantError(bad[0])
    flat = linalg.sparse_mat_vec(
        coboundary_matrix(alg, 1, psi.space.mode, "split"), psi.to_flat()
    )
    cocycle = not any(flat)
    residual_zero = not deformation_residuals(alg, psi)
    if cocycle != residual_zero:  # pragma: no cover - the two paths agree
        raise AssertionError("cocycle and dual-number verdicts disagree")
    return cocycle


def random_equivariant_cochain(alg: HomNambuAlgebra, p: int, rng: random.Random, mode="fused"):
    """Random integer combination of the equivariant basis."""
    space = CochainSpace(alg, p, "adjoint", mode)
    basis = equivariant_basis(alg, p, mode)
    flat = [ZERO] * space.dim
    for v in basis.vectors:
        c = Fraction(rng.randint(-3, 3))
        if c:
            for i, x in enumerate(v):
                if x:
                    flat[i] += c * x
    return Cochain.from_flat(space, flat)