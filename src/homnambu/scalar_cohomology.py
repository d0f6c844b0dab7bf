"""Trivial-coefficient cohomology and central extensions.

The scalar complex is the complex of :mod:`homnambu.cochains` with
values in the trivial representation (V = Q, rho = 0, nu = 1), where
only the bracket-insertion and L(x_i).z terms survive; it is computed
on all cochains, with no compatibility condition.  Degree 0 cochains are
covectors, and the p = 0 case of the operator is (d phi) = -phi([...]),
which is exactly the potential equation used in the Filippov example.

Operators are assembled as sparse matrices whose rows are canonical
output tuples, so d(p+1) o d(p) = 0 is an exact matrix statement.  The
report is the shared :func:`cochains.cohomology` of this module's
:func:`coboundary_matrix`, with no compatibility rows.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial

from . import cochains, linalg
from .algebra import HomNambuAlgebra
from .cochains import Cochain, CochainSpace
from .derivations import trivial_representation
from .indices import levi_civita, wedge_basis

ZERO = Fraction(0)


class NotACocycleError(ValueError):
    def __init__(self, triple):
        self.triple = triple
        super().__init__(f"not a cocycle: coboundary is nonzero at {triple}")


def zero_coboundary_matrix(alg: HomNambuAlgebra, mode: str = "fused") -> linalg.SparseMatrix:
    """Matrix of covector -> degree-1 cochain, phi -> -phi o bracket: the
    degree-0 operator, whose column z is the covector's coordinate z."""
    return coboundary_matrix(alg, 0, "split", mode)


def apply_zero_coboundary(alg: HomNambuAlgebra, covector, mode: str = "fused") -> Cochain:
    space = CochainSpace(alg, 1, "scalar", mode)
    flat = linalg.sparse_mat_vec(zero_coboundary_matrix(alg, mode), linalg.vec(covector))
    return Cochain.from_flat(space, flat)


def coboundary_matrix(
    alg: HomNambuAlgebra, p: int, mode: str = "fused", out_mode: str | None = None
) -> linalg.SparseMatrix:
    """Sparse matrix of the degree-p coboundary, p >= 0."""
    return cochains.coboundary_matrix(alg, trivial_representation(alg), p, mode, out_mode)


def cohomology(alg: HomNambuAlgebra, p: int, mode: str = "fused") -> cochains.CohomologyReport:
    """Cocycles, coboundaries and their quotient at degree p >= 0, on all
    cochains: :func:`cochains.cohomology` of this module's operator
    (this module's name, so that wrappers installed on it see both
    operators of the report)."""
    return cochains.cohomology(p, mode, partial(coboundary_matrix, alg))


# -- central extensions -------------------------------------------------------


def central_extension(alg: HomNambuAlgebra, phi: Cochain, lam=None) -> HomNambuAlgebra:
    """Adjoin a central generator, shifting the bracket by the scalar
    cocycle phi and extending the twist by the covector lam.

    phi must be a degree-1 cocycle; the first violating argument triple
    is reported otherwise.  The extended twist maps the new generator to
    zero; its multiplicativity is a property of (phi, lam) that callers
    check separately when they need it.
    """
    if phi.space.degree != 1 or phi.space.kind != "scalar":
        raise ValueError("central_extension needs a scalar degree-1 cochain")
    d, n = alg.dim, alg.arity
    lam = linalg.vec(lam) if lam is not None else (ZERO,) * d
    if len(lam) != d:
        raise ValueError("lambda length mismatch")
    rep = trivial_representation(alg)
    dphi = cochains.apply(cochains.coboundary_scatter(alg, rep, 1, phi.space.mode, "split"), phi)
    if dphi.coeffs:  # split keys sort in coordinate order
        b1, b2, z = next(iter(dphi.coeffs))
        blocks = [tuple(i + 1 for i in dphi.space.wedge[b]) for b in (b1, b2)]
        raise NotACocycleError((*blocks, z + 1))
    coeffs = {}
    for key in wedge_basis(d, n):
        central = phi.value((phi.space.windex[key[:-1]],), key[-1]).get(0, ZERO)
        value = list(alg.bracket_basis(key)) + [central]
        if any(value):
            coeffs[key] = tuple(value)
    twist = linalg.SparseMatrix(d + 1, d + 1, dict(alg.twist.entries))
    for j in range(d):
        twist.add(d, j, lam[j])
    return HomNambuAlgebra(d + 1, n, coeffs, twist)


def restrict_extension(ext: HomNambuAlgebra) -> HomNambuAlgebra:
    """Quotient a central extension by its last basis vector."""
    d = ext.dim - 1
    coeffs = {}
    for key, value in ext.coeffs.items():
        if any(i >= d for i in key):
            continue
        trimmed = value[:d]
        if any(trimmed):
            coeffs[key] = trimmed
    twist = {(r, c): v for (r, c), v in ext.twist.entries.items() if r < d and c < d}
    return HomNambuAlgebra(d, ext.arity, coeffs, linalg.SparseMatrix(d, d, twist))


def trivialization_map(alg: HomNambuAlgebra, psi_covector):
    """Basis change x + a e -> x + (a + psi(x)) e of the extended space."""
    d = alg.dim
    psi = linalg.vec(psi_covector)
    t = linalg.eye(d + 1)
    for j in range(d):
        t.add(d, j, psi[j])
    return t


# -- the explicit potential for twisted Filippov algebras --------------------


def filippov_potential(signs, alpha, phi: Cochain) -> tuple:
    """Covector psi with (d psi) = phi on the twisted Filippov algebra.

    Works coefficientwise: for each basis index k the complement tuple s
    is the only one the alternating symbol keeps, which pins psi o alpha
    to signed multiples of phi's coordinates; psi itself then comes from
    one exact solve against the twist.
    """
    n = len(signs) - 1
    d = n + 1
    space = phi.space
    if space.degree != 1 or space.alg.dim != d:
        raise ValueError("potential needs a degree-1 cochain on the n+1 dim algebra")
    phik = []
    for k in range(d):
        total = ZERO
        for j in wedge_basis(d, n):
            sign = levi_civita(j + (k,))
            if sign:
                total += sign * phi.value((space.windex[j[:-1]],), j[-1]).get(0, ZERO)
        phik.append(-((-1) ** n) * signs[k] * total)
    psi = linalg.solve(linalg.mat(alpha).T, phik)
    if psi is None:  # pragma: no cover - the fixtures use invertible twists
        raise ValueError("twist is not invertible; no potential from this formula")
    return psi


def potential_by_solve(alg: HomNambuAlgebra, phi: Cochain):
    """A covector psi with (d psi) = phi, from the linear system; None
    when phi is not a degree-0 coboundary."""
    m = zero_coboundary_matrix(alg, phi.space.mode)
    return linalg.solve(m, phi.to_flat())