"""Representations shared by the test modules."""

from homnambu import linalg
from homnambu.derivations import RepresentationMap


def sl2_standard(f_scale=1):
    """h, e, f (the fixture's e1, e2, e3) acting on Q^2; f_scale != 1
    breaks the representation identity."""
    rho = {
        (0,): linalg.mat([[1, 0], [0, -1]]),
        (1,): linalg.mat([[0, 1], [0, 0]]),
        (2,): linalg.mat([[0, 0], [f_scale, 0]]),
    }
    return RepresentationMap(arity=2, dim=2, rho=rho, nu=linalg.eye(2))
