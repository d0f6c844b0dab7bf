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

A degree-1 psi is an infinitesimal deformation when bracket + t psi
satisfies the fundamental identity to first order in t.  By bilinearity
of :func:`algebra.fundamental_identity_defects` that t-linear defect is
the pairs (bracket, psi) and (psi, bracket); it equals d psi key by key,
and the deformation check asserts that both verdicts agree.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import partial

from . import algebra, cochains, linalg
from .algebra import AlgebraError, HomNambuAlgebra, bracket_eval_sparse
from .cochains import Cochain, CochainSpace
from .derivations import adjoint_representation, commutation_matrix, row_major
from .fundamental import wedge_of_vectors

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
    return cochains.compatibility_violations(
        alg, adjoint_representation(alg), psi.space.degree, psi.space.mode, psi.coeffs
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


def deformation_residuals(alg: HomNambuAlgebra, psi: Cochain):
    """[(x, y, residual)]: the t-linear part of the fundamental-identity
    defect of bracket + t psi, the pairs (bracket, psi) and (psi, bracket)."""
    windex = psi.space.windex

    def psi_bracket(args):
        return psi.evaluate([wedge_of_vectors(windex, args[:-1])], args[-1])

    pairs = [
        (partial(bracket_eval_sparse, alg), lambda key: psi_bracket([{i: ONE} for i in key])),
        (psi_bracket, alg.bracket_basis_sparse),
    ]
    return algebra.fundamental_identity_defects(alg, pairs)


def check_infinitesimal_deformation(alg: HomNambuAlgebra, psi: Cochain, residuals=None) -> bool:
    """True iff psi is a degree-1 cocycle; asserts that the coboundary
    verdict and the fundamental-identity residual verdict agree.
    ``residuals`` is :func:`deformation_residuals` of psi when the caller
    has it already."""
    bad = equivariance_violations(alg, psi)
    if bad:
        raise NotEquivariantError(bad[0])
    scatter = cochains.coboundary_scatter(alg, adjoint_representation(alg), 1, psi.space.mode)[2]
    cocycle = not cochains.scatter_values(psi.coeffs, scatter)
    if residuals is None:
        residuals = deformation_residuals(alg, psi)
    residual_zero = not residuals
    if cocycle != residual_zero:  # pragma: no cover - the two paths agree
        raise AssertionError("cocycle and residual verdicts disagree")
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