"""Text grammar: parsing, canonical dumps, error reporting."""

from fractions import Fraction

import numpy as np
import pytest

from homnambu import fixtures, linalg
from homnambu.formats import (
    ParseError,
    dumps_algebra,
    dumps_matrix,
    load_algebra,
    loads_algebra,
    loads_matrix,
    loads_representation,
    parse_rational,
    save_algebra,
)

GOOD = """\
# a comment
dim = 3
arity = 2
1 0 0
0 1/2 0
0 0 1
[1,2] -> 0,0,1
[1,3] -> 0,-2/3,0
"""


def test_loads_algebra_roundtrip():
    alg = loads_algebra(GOOD)
    assert alg.dim == 3 and alg.arity == 2
    assert alg.twist[1, 1] == Fraction(1, 2)
    assert alg.bracket_basis((0, 1)) == (0, 0, 1)
    assert alg.bracket_basis((0, 2)) == (0, Fraction(-2, 3), 0)
    assert loads_algebra(dumps_algebra(alg)).coeffs == alg.coeffs


def test_dump_is_byte_stable():
    alg = fixtures.twisted_filippov_rotation()
    text = dumps_algebra(alg)
    assert dumps_algebra(loads_algebra(text)) == text


def test_out_of_order_tuple_normalizes_with_sign():
    text = "dim = 3\narity = 2\n1 0 0\n0 1 0\n0 0 1\n[2,1] -> 0,0,5\n"
    alg = loads_algebra(text)
    assert alg.bracket_basis((0, 1)) == (0, 0, -5)


def test_inconsistent_duplicate_is_parse_error_with_line():
    text = (
        "dim = 3\narity = 2\n1 0 0\n0 1 0\n0 0 1\n"
        "[1,2] -> 0,0,1\n[2,1] -> 0,0,1\n"
    )
    with pytest.raises(ParseError) as exc:
        loads_algebra(text)
    assert exc.value.line == 7


def test_bad_rational_reports_line():
    text = "dim = 2\narity = 2\n1 0.5\n0 1\n"
    with pytest.raises(ParseError) as exc:
        loads_algebra(text)
    assert exc.value.line == 3


def test_missing_headers():
    with pytest.raises(ParseError):
        loads_algebra("arity = 2\ndim = 2\n1 0\n0 1\n")


def test_dimension_mismatch_in_bracket_line():
    text = "dim = 2\narity = 2\n1 0\n0 1\n[1,2] -> 1\n"
    with pytest.raises(ParseError) as exc:
        loads_algebra(text)
    assert exc.value.line == 5


def test_bracket_index_out_of_range():
    text = "dim = 2\narity = 2\n1 0\n0 1\n[1,3] -> 0,1\n"
    with pytest.raises(ParseError):
        loads_algebra(text)


def test_parse_rational_grammar():
    assert parse_rational("-3/4") == Fraction(-3, 4)
    assert parse_rational("+2") == 2
    for bad in ("1.5", "3/-4", "a", "1/ 2"):
        with pytest.raises(ParseError):
            parse_rational(bad)


def test_matrix_roundtrip():
    m = linalg.mat([[1, Fraction(-1, 3)], [0, 2]])
    assert np.array_equal(loads_matrix(dumps_matrix(m)), m)


def test_matrix_ragged_row():
    with pytest.raises(ParseError):
        loads_matrix("1 2\n3\n")


def test_save_and_load_file(tmp_path):
    alg = fixtures.sl2()
    path = tmp_path / "sl2.alg"
    save_algebra(alg, path)
    again = load_algebra(path)
    assert again.coeffs == alg.coeffs
    assert np.array_equal(again.twist, alg.twist)


def test_fixture_files_written(tmp_path):
    paths = fixtures.write_all(tmp_path)
    assert len(paths) == 14
    for p in paths:
        loaded = load_algebra(p)
        assert loaded.dim >= 2


def test_loads_representation():
    text = (
        "arity = 2\ndim = 2\n"
        "nu:\n1 0\n0 1\n"
        "rho [1]:\n0 1\n0 0\n"
        "rho [2]:\n0 0\n1 0\n"
    )
    rep = loads_representation(text)
    assert rep.arity == 2 and rep.dim == 2
    assert rep.rho_basis((0,))[0, 1] == 1
    assert rep.rho_basis((1,))[1, 0] == 1


REP_HEAD = "arity = 3\ndim = 2\nnu:\n1 0\n0 1\n"


def test_representation_key_sorted_with_sign():
    rep = loads_representation(REP_HEAD + "rho [2,1]:\n0 1\n0 0\n")
    assert list(rep.rho) == [(0, 1)]
    assert rep.rho_basis((0, 1))[0, 1] == -1
    assert rep.rho_basis((1, 0))[0, 1] == 1


def test_representation_index_below_one():
    with pytest.raises(ParseError):
        loads_representation(REP_HEAD + "rho [0,1]:\n0 1\n0 0\n")


def test_representation_repeated_index():
    with pytest.raises(ParseError):
        loads_representation(REP_HEAD + "rho [1,1]:\n0 1\n0 0\n")


def test_representation_non_integer_index():
    with pytest.raises(ParseError):
        loads_representation(REP_HEAD + "rho [a,1]:\n0 1\n0 0\n")


def test_representation_empty_index_list():
    with pytest.raises(ParseError):
        loads_representation(REP_HEAD + "rho []:\n0 1\n0 0\n")


def test_representation_repeated_block():
    with pytest.raises(ParseError):
        loads_representation(REP_HEAD + "rho [1,2]:\n0 1\n0 0\nrho [2,1]:\n0 1\n0 0\n")
