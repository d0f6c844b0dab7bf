"""The coboundary with values in a representation: the standard
representation of sl2, the trivial representation on Q^2 and the
adjoint representation moved by a change of basis."""

import random

import pytest

from homnambu import adjoint_cohomology, cochains, fixtures, linalg, scalar_cohomology
from homnambu.cochains import CochainSpace
from homnambu.derivations import (
    RepresentationMap,
    adjoint_representation,
    check_rep_equivalence,
    check_representation,
)


def operator(alg, rep, p, mode="fused", out_mode=None):
    """d: C^p -> C^(p+1) with values in rep, degree 0 included."""
    if p == 0:
        return cochains.zero_coboundary_matrix(alg, rep, mode)
    return cochains.coboundary_matrix(alg, rep, p, mode, out_mode)


def compatible(alg, rep, p):
    return linalg.kernel_basis(cochains.equivariance_matrix(alg, rep, p))


def dims(alg, rep, p, restrict):
    """(dim Z, dim B, dim H) at p >= 2, inside the compatible cochains
    when ``restrict``."""
    delta = operator(alg, rep, p, "fused", "split")
    prev = operator(alg, rep, p - 1)
    domain = None
    if restrict:
        domain = compatible(alg, rep, p)
        prev = linalg.restrict_columns(prev, compatible(alg, rep, p - 1))
    z, b, dim_h = linalg.homology(delta, prev, domain)
    return z.dim, b.dim, dim_h


def d_squared_is_zero(alg, rep, p, restrict=False):
    first = operator(alg, rep, p)
    if restrict:
        first = linalg.restrict_columns(first, compatible(alg, rep, p))
    return linalg.sparse_matmul(operator(alg, rep, p + 1), first).is_zero()


def sl2_standard(f_scale=1):
    """h, e, f (the fixture's e1, e2, e3) acting on Q^2; f_scale != 1
    breaks the representation identity."""
    rho = {
        (0,): linalg.mat([[1, 0], [0, -1]]),
        (1,): linalg.mat([[0, 1], [0, 0]]),
        (2,): linalg.mat([[0, 0], [f_scale, 0]]),
    }
    return RepresentationMap(arity=2, dim=2, rho=rho, nu=linalg.eye(2))


def test_sl2_standard_representation_complex():
    alg = fixtures.sl2()
    rep = sl2_standard()
    assert check_representation(alg, rep) == []
    for p in (1, 2, 3):
        assert d_squared_is_zero(alg, rep, p)
    assert dims(alg, rep, 2, restrict=False) == (2, 2, 0)
    assert dims(alg, rep, 3, restrict=False) == (16, 16, 0)


def test_broken_representation_breaks_d_squared():
    alg = fixtures.sl2()
    rep = sl2_standard(f_scale=2)
    assert check_representation(alg, rep)
    assert not d_squared_is_zero(alg, rep, 2)


@pytest.mark.parametrize("name", ["twisted_filippov_rotation", "solvable_d4"])
def test_trivial_representation_on_q2_is_scalar_tensor_identity(name):
    alg = getattr(fixtures, name)()
    rep = RepresentationMap(arity=alg.arity, dim=2, rho={}, nu=linalg.eye(2))
    for p in (1, 2):
        scalar = scalar_cohomology.coboundary_matrix(alg, p)
        general = cochains.coboundary_matrix(alg, rep, p)
        assert (general.rows, general.cols) == (2 * scalar.rows, 2 * scalar.cols)
        expected = {
            (2 * r + i, 2 * c + i): v for (r, c), v in scalar.entries.items() for i in (0, 1)
        }
        assert general.entries == expected


def transported_adjoint(alg, seed):
    """The adjoint representation moved by a random invertible integer f:
    rho' = f rho f^-1 and nu' = f nu f^-1."""
    rng = random.Random(seed)
    d = alg.dim
    while True:
        f = linalg.mat([[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)])
        if linalg.rank(f) == d:
            break
    f_inv = linalg.mat(
        [linalg.solve(f, tuple(int(i == j) for i in range(d))) for j in range(d)]
    ).T
    adj = adjoint_representation(alg)

    def conj(m):
        return linalg.matmul(linalg.matmul(f, m), f_inv)

    rho = {key: conj(m) for key, m in adj.rho.items()}
    return adj, RepresentationMap(arity=alg.arity, dim=d, rho=rho, nu=conj(adj.nu)), f


@pytest.mark.parametrize("name", ["twisted_filippov_rotation", "solvable_d4"])
def test_transported_adjoint_is_a_complex(name):
    alg = getattr(fixtures, name)()
    adj, rep, f = transported_adjoint(alg, seed=0)
    assert check_rep_equivalence(adj, rep, f)
    for p in (1, 2):
        assert d_squared_is_zero(alg, rep, p, restrict=True)


def test_transported_adjoint_keeps_adjoint_dimensions():
    alg = fixtures.solvable_d4()
    _, rep, _ = transported_adjoint(alg, seed=0)
    report = adjoint_cohomology.cohomology(alg, 2)
    assert dims(alg, rep, 2, restrict=True) == (report.dim_z, report.dim_b, report.dim_h)
    assert dims(alg, rep, 2, restrict=True) == (15, 8, 7)
    # the adjoint report at p = 3 gives the same numbers
    assert dims(alg, rep, 3, restrict=True) == (102, 81, 21)


def test_functional_call_counts(monkeypatch):
    calls = [0]
    functional = CochainSpace.functional

    def counted(self, *args):
        calls[0] += 1
        return functional(self, *args)

    monkeypatch.setattr(CochainSpace, "functional", counted)
    alg = fixtures.filippov_n3()
    scalar_cohomology.coboundary_matrix(alg, 2, "fused", "split")
    assert calls[0] == 3024
    calls[0] = 0
    adjoint_cohomology.coboundary_matrix(alg, 2, "fused", "split")
    assert calls[0] <= 7344
