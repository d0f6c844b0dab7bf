"""The tables that an algebra's statements read (the twist and its
powers, the induced bracket and L-action read backwards, the twist
images of block tuples) are built once per algebra object, on the
object that owns them, and no statement mutates them."""

from functools import cached_property, partial
from pathlib import Path

import pytest

from homnambu import bridge, cli, cochains, formats
from homnambu.algebra import HomNambuAlgebra
from homnambu.derivations import adjoint_representation
from homnambu.fundamental import HomLeibnizAlgebra

FIXDIR = Path(__file__).resolve().parent.parent / "fixtures"
TABLES = [
    (HomNambuAlgebra, "twist_rows"),
    (HomLeibnizAlgebra, "twist_rows"),
    (HomLeibnizAlgebra, "bracket_rows"),
    (HomLeibnizAlgebra, "l_action_rows"),
]


@pytest.fixture
def builds(monkeypatch):
    """``(owner, table)`` for every table built during the test, and
    ``(algebra, k)`` for every read of alpha^k (its columns are the one
    reader of the powers on these paths)."""
    seen = []
    for cls, name in TABLES:
        def counted(self, build=cls.__dict__[name].func, name=name):
            seen.append((self, name))
            return build(self)

        table = cached_property(counted)
        table.__set_name__(cls, name)
        monkeypatch.setattr(cls, name, table)
    power = HomNambuAlgebra.twist_power

    def counted_power(self, k):
        seen.append((self, k))
        return power(self, k)

    monkeypatch.setattr(HomNambuAlgebra, "twist_power", counted_power)
    return seen


@pytest.mark.parametrize(
    "argv",
    [
        ["cohomology", "filippov_n3_reflected", "-p", "2", "--coefficients", "adjoint"],
        ["bridge-check", "filippov_n3", "-p", "1"],
    ],
    ids=lambda argv: argv[0],
)
def test_each_table_is_built_once_per_algebra(argv, builds, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = [argv[0], str(FIXDIR / f"{argv[1]}.alg"), *argv[2:]]
    runs = []
    for _ in range(2):
        assert cli.main(argv) == 0
        runs.append(list(builds))
        builds.clear()
    capsys.readouterr()
    first, second = runs
    assert {"twist_rows", "bracket_rows", "l_action_rows", 1} <= {what for _, what in first}
    for run in runs:
        built = [(id(owner), what) for owner, what in run]
        assert len(built) == len(set(built))
    # a second command loads a fresh algebra and builds every table again
    assert [what for _, what in second] == [what for _, what in first]
    assert not {id(owner) for owner, _ in first} & {id(owner) for owner, _ in second}


def _builders(alg, p):
    """Every statement that shares the algebra's tables, as matrix builders:
    delta_(p-1) and delta_p fused, split and fused->split, the
    equivariance rows, the tensor-mode coboundary and the Leibniz one."""
    adj = adjoint_representation(alg)
    out = []
    for q in (p - 1, p):
        for mode, out_mode in (("fused", None), ("split", None), ("fused", "split")):
            out.append(partial(cochains.coboundary_matrix, alg, adj, q, mode, out_mode))
        for mode in ("fused", "split", "tensor"):
            out.append(partial(cochains.equivariance_matrix, alg, adj, q, mode))
    leib = bridge.tensor_fundamental_of(alg)
    degree = 1 if leib.dim <= 16 else 0  # 125 tensor blocks at d = 5, n = 4
    out.append(partial(cochains.coboundary_matrix, alg, adj, degree, "tensor"))
    out.append(partial(bridge.leibniz_coboundary_matrix, leib, degree))
    return out


def _typed(m):
    return m.shape, {cell: (type(v), v) for cell, v in m.entries.items()}


@pytest.mark.parametrize("path", sorted(FIXDIR.glob("*.alg")), ids=lambda path: path.stem)
def test_shared_tables_give_the_same_operators_in_any_order(path):
    p = 1 if formats.load_algebra(path).dim > 4 else 2
    forward = [_typed(build()) for build in _builders(formats.load_algebra(path), p)]
    backward = [_typed(build()) for build in reversed(_builders(formats.load_algebra(path), p))]
    assert forward == backward[::-1]
