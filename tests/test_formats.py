"""Text grammar: parsing, canonical dumps, error reporting."""

import re
import time
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homnambu import bridge, cli, fixtures, linalg
from homnambu.adjoint_cohomology import random_equivariant_cochain
from homnambu.cochains import Cochain, CochainSpace, apply_coboundary
from homnambu.derivations import adjoint_representation
from homnambu.formats import (
    ParseError,
    dumps_algebra,
    dumps_cochains,
    dumps_matrix,
    load_algebra,
    loads_algebra,
    loads_cochains,
    loads_leibniz,
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
    # the tensor cochain mode is internal: no file declares it
    text = COCHAIN_HEAD.format(kind="adjoint", degree=1, mode="tensor") + "[1,2,3] -> 0,1,0,-1\n"
    with pytest.raises(ParseError, match="line 5"):
        loads_cochains(text, fixtures.filippov_n3())


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
    for bad in ("1.5", "3/-4", "a", "1/ 2", "1/0", "0/0"):
        with pytest.raises(ParseError):
            parse_rational(bad)


def test_matrix_roundtrip():
    m = linalg.mat([[1, Fraction(-1, 3)], [0, 2]])
    assert loads_matrix(dumps_matrix(m)) == m


def test_matrix_ragged_row():
    with pytest.raises(ParseError):
        loads_matrix("1 2\n3\n")


def test_save_and_load_file(tmp_path):
    alg = fixtures.sl2()
    path = tmp_path / "sl2.alg"
    save_algebra(alg, path)
    again = load_algebra(path)
    assert again.coeffs == alg.coeffs
    assert again.twist == alg.twist


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


@pytest.mark.parametrize("key", ["٢,1", "1_0,1", "1 2,1"])
def test_index_lists_are_ascii_integers(key):
    # the rho and Leibniz readers share the algebra's index-list reader
    with pytest.raises(ParseError, match=f"line 6: bad rho index list '{key}'"):
        loads_representation(REP_HEAD + f"rho [{key}]:\n0 1\n0 0\n")
    pair = "kind = leibniz\ndim = 2\n1 0\n0 1\n[" + key + "] -> 0,1\n"
    with pytest.raises(ParseError, match=f"line 5: bad index pair '{key}'"):
        loads_leibniz(pair)


def test_representation_repeated_block():
    with pytest.raises(ParseError):
        loads_representation(REP_HEAD + "rho [1,2]:\n0 1\n0 0\nrho [2,1]:\n0 1\n0 0\n")


COCHAIN_HEAD = "kind = {kind}\ndegree = {degree}\ndim = 4\narity = 3\nmode = {mode}\ncochain 1\n"


def scalar_cochains(body, degree=1, mode="split"):
    text = COCHAIN_HEAD.format(kind="scalar", degree=degree, mode=mode) + body
    return loads_cochains(text, fixtures.filippov_n3())


def test_split_cochain_final_index_in_range():
    assert scalar_cochains("[1,2,4] -> 1\n")[0].to_flat()
    for bad in ("[1,2,9] -> 1\n", "[1,2,0] -> 1\n"):
        with pytest.raises(ParseError, match="line 7"):
            scalar_cochains(bad)


def test_repeated_cochain_key_is_parse_error():
    for body in ("[1,2,3] -> 1\n[1,2,3] -> 2\n", "[1,2,3] -> 1\n[1,2,3] -> 0\n"):
        with pytest.raises(ParseError, match="line 8"):
            scalar_cochains(body, mode="fused")
    # the same key in two cochains is fine
    two = scalar_cochains("[1,2,3] -> 1\ncochain 2\n[1,2,3] -> 2\n", mode="fused")
    assert [c.to_flat()[0] for c in two] == [1, 2]


def test_spaces_that_files_cannot_name_are_not_written():
    # a file names scalar or adjoint values, degree >= 1, fused or split;
    # anything else would be written and then rejected, or misread
    alg = fixtures.filippov_n3()
    leib = bridge.tensor_fundamental_of(alg)
    phi = cli.bridge_input_cochain(alg, leib, 1, 5)
    psi = random_equivariant_cochain(alg, 1, Random(5))
    dpsi = apply_coboundary(adjoint_representation(alg), psi)
    unnamed = {
        "tensor layout": phi,
        "Leibniz layout": bridge.delta_lift(phi),
        "a representation's values": dpsi,
        "degree 0": Cochain(CochainSpace(alg, 0, "scalar"), {(1,): {0: 1}}),
    }
    assert dpsi.coeffs and dpsi.space.kind == "representation"
    for label, cochain in unnamed.items():
        assert cochain.coeffs, label
        with pytest.raises(ValueError, match="no file holds"):
            dumps_cochains([cochain])
    adjoint = Cochain(CochainSpace(alg, 2, "adjoint"), dict(dpsi.coeffs))
    assert loads_cochains(dumps_cochains([adjoint]), alg)[0].coeffs == adjoint.coeffs


def test_high_degree_header_builds_no_keys():
    # degree 12 of filippov_n3 has 6^11 * 4 keys; the loader needs none of them
    key = "[" + "1,2," * 11 + "2,3,4] -> 1\n"
    start = time.perf_counter()
    (cochain,) = scalar_cochains(key, degree=12, mode="fused")
    assert time.perf_counter() - start < 0.5
    assert cochain.space.dim == 6 ** 11 * 4
    assert "keys" not in vars(cochain.space) and "fuse" not in vars(cochain.space)
    assert list(cochain.coeffs.values()) == [{0: 1}]


# -- junk input: every loader fails with ParseError and nothing else ---------

FUZZ_SAMPLES = {
    "algebra": (GOOD, loads_algebra),
    "matrix": ("1 0 -2\n1/2 3 0\n", loads_matrix),
    "scalar fused": (
        COCHAIN_HEAD.format(kind="scalar", degree=2, mode="fused") + "[1,2,1,3,4] -> 1/2\n",
        "cochains",
    ),
    "scalar split": (
        COCHAIN_HEAD.format(kind="scalar", degree=1, mode="split") + "[1,2,4] -> -1\n",
        "cochains",
    ),
    "adjoint": (
        COCHAIN_HEAD.format(kind="adjoint", degree=1, mode="fused") + "[1,2,3] -> 0,1,0,-1\n",
        "cochains",
    ),
    "leibniz": ("kind = leibniz\ndim = 2\n1 0\n0 1\n[1,2] -> 0,1\n[2,1] -> 0,-1\n", loads_leibniz),
    "representation": (REP_HEAD + "rho [2,1]:\n0 1\n0 0\n", loads_representation),
}

NUMBER = st.one_of(st.integers(-40, 40).map(str), st.sampled_from(["0", "1/0", "0/0"]))
JUNK = st.one_of(
    NUMBER,
    st.sampled_from(
        ["/", ",", "[", "]", "->", "=", ":", "#", "\n", " ", "-", "+", "x",
         "dim = ", "arity = ", "degree = ", "mode = split", "kind = adjoint", "cochain 2",
         "nu:", "rho [1,2]:", "\u00e9"]
    ),
)


def capped(text: str) -> str:
    """Every number at most 40 and every ``degree`` header at most 12."""
    text = re.sub(r"\d+", lambda m: str(min(int(m.group()), 40)), text)
    return re.sub(r"(degree\s*=\s*)(\d+)", lambda m: m.group(1) + str(min(int(m.group(2)), 12)), text)


@st.composite
def junk_texts(draw):
    """A sample text with a few junk tokens inserted or a few of its
    numbers replaced."""
    name = draw(st.sampled_from(sorted(FUZZ_SAMPLES)))
    text, load = FUZZ_SAMPLES[name]
    rnd = draw(st.randoms(use_true_random=True))  # uniform over positions
    for _ in range(draw(st.integers(1, 3))):
        numbers = [m.span() for m in re.finditer(r"\d+", text)]
        if numbers and rnd.random() < 0.5:
            start, end = rnd.choice(numbers)
            token = draw(NUMBER)
        else:
            start = end = rnd.randint(0, len(text))
            token = draw(JUNK)
        text = text[:start] + token + text[end:]
    return capped(text), load


@given(junk_texts())
@settings(max_examples=1000, deadline=None)
def test_junk_input_raises_only_parse_errors(case):
    text, load = case
    alg = fixtures.filippov_n3()
    try:
        if load != "cochains":
            load(text)
            return
        cochains = loads_cochains(text, alg)
    except ParseError:
        return
    for cochain in cochains:
        if cochain.space.dim <= 10 ** 5:  # a flat vector of the whole space
            cochain.to_flat()
    if cochains:  # what was accepted is written back and read again unchanged
        again = loads_cochains(dumps_cochains(cochains), alg)
        assert [c.coeffs for c in again] == [c.coeffs for c in cochains]


@pytest.mark.parametrize("name", sorted(FUZZ_SAMPLES))
def test_truncated_input_raises_only_parse_errors(name):
    # the fuzz test inserts and replaces tokens but never cuts a text short
    text, load = FUZZ_SAMPLES[name]
    alg = fixtures.filippov_n3()
    for end in range(len(text) + 1):
        try:
            loads_cochains(text[:end], alg) if load == "cochains" else load(text[:end])
        except ParseError:
            pass


def test_representation_rejects_arity_below_two():
    with pytest.raises(ParseError, match="arity >= 2"):
        loads_representation("arity = 1\ndim = 2\nnu:\n1 0\n0 1\n")
