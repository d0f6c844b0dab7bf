"""Text formats: algebras, matrices, representations, cochains.

The algebra grammar is line-oriented; ``#`` starts a comment and blank
lines are ignored.  Indices are 1-based on disk.  Rationals must match
``[+-]?digits[/digits]`` with a positive denominator::

    dim = 4
    arity = 3
    1 0 0 0          <- d twist rows of d rationals
    0 1 0 0
    0 0 1 0
    0 0 0 1
    [1,2,3] -> 0,0,0,-1
    [2,3,4] -> 1,0,0,0

Bracket tuples may come in any order; the loader normalizes them to
increasing order with the sign and rejects entries that disagree after
normalization.  ``dump_algebra`` emits a canonical form (sorted tuples,
lowest terms, zero rows omitted), so dump -> load -> dump is byte-stable.
Digits are ASCII in every count, index and rational.
"""

from __future__ import annotations

import re
from fractions import Fraction

from . import linalg
from .algebra import AlgebraError, HomNambuAlgebra
from .indices import sort_with_sign

_RATIONAL = re.compile(r"^[+-]?\d+(/0*[1-9]\d*)?$", re.ASCII)
_INDEX = re.compile(r"\s*[+-]?\d+\s*", re.ASCII)
_BRACKET_LINE = re.compile(r"^\[([^\]]*)\]\s*->\s*(.*)$")


class ParseError(ValueError):
    def __init__(self, message, line=None):
        self.line = line
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{message}")


def parse_rational(token: str, line=None) -> Fraction:
    token = token.strip()
    if not _RATIONAL.match(token):
        raise ParseError(f"bad rational {token!r}", line)
    return Fraction(token)


def _indices(text: str, what: str, lineno, count=None) -> tuple:
    """0-based indices of a comma-separated list of 1-based integers, and
    ``count`` of them when given; otherwise a ParseError naming ``what``."""
    tokens = text.split(",")
    if count not in (None, len(tokens)) or not all(map(_INDEX.fullmatch, tokens)):
        raise ParseError(f"bad {what} {text!r}", lineno)
    return tuple(int(tok) - 1 for tok in tokens)


def format_rational(value: Fraction) -> str:
    return str(Fraction(value))


def _content_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _parse_header(line, name, lineno):
    m = re.match(rf"^{name}\s*=\s*(\d+)$", line, re.ASCII)
    if not m:
        raise ParseError(f"expected '{name} = <count>', got {line!r}", lineno)
    return int(m.group(1))


def _square_matrix(lines, pos: int, dim: int, what: str) -> linalg.SparseMatrix:
    """The dim x dim matrix on content lines pos, pos + 1, ..., one row of
    dim rationals a line; ``what`` names the rows in errors."""
    if pos + dim > len(lines):
        raise ParseError(f"expected {dim} {what} rows")
    rows = []
    for lineno, line in lines[pos:pos + dim]:
        tokens = line.split()
        if len(tokens) != dim:
            raise ParseError(f"{what} row has {len(tokens)} entries, expected {dim}", lineno)
        rows.append([parse_rational(tok, lineno) for tok in tokens])
    return linalg.mat(rows)


def loads_algebra(text: str) -> HomNambuAlgebra:
    lines = list(_content_lines(text))
    if len(lines) < 2:
        raise ParseError("missing 'dim' and 'arity' headers")
    dim = _parse_header(lines[0][1], "dim", lines[0][0])
    arity = _parse_header(lines[1][1], "arity", lines[1][0])
    if dim < 1 or arity < 2:
        raise ParseError("need dim >= 1 and arity >= 2", lines[1][0])
    alg = HomNambuAlgebra(dim, arity, {}, _square_matrix(lines, 2, dim, "twist"))
    for lineno, line in lines[2 + dim:]:
        m = _BRACKET_LINE.match(line)
        if not m:
            raise ParseError(f"expected '[i1,...,i{arity}] -> c1,...,c{dim}', got {line!r}", lineno)
        key = _indices(m.group(1), "index tuple", lineno)
        values = [parse_rational(tok, lineno) for tok in m.group(2).split(",")]
        try:
            alg._insert(key, values)
        except AlgebraError as exc:
            raise ParseError(str(exc), lineno) from None
    return alg


def dumps_algebra(alg: HomNambuAlgebra) -> str:
    out = [f"dim = {alg.dim}", f"arity = {alg.arity}", *matrix_lines(alg.twist)]
    for key in sorted(alg.coeffs):
        idx = ",".join(str(i + 1) for i in key)
        vals = ",".join(format_rational(v) for v in alg.coeffs[key])
        out.append(f"[{idx}] -> {vals}")
    return "\n".join(out) + "\n"


def load_algebra(path) -> HomNambuAlgebra:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_algebra(fh.read())


def save_algebra(alg: HomNambuAlgebra, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_algebra(alg))


# -- plain matrices ---------------------------------------------------------


def matrix_lines(m: linalg.SparseMatrix) -> list:
    """One line of space-separated rationals per matrix row."""
    return [" ".join(format_rational(v) for v in row) for row in m.to_dense()]


def loads_matrix(text: str) -> linalg.SparseMatrix:
    rows = []
    width = None
    for lineno, line in _content_lines(text):
        tokens = line.split()
        if width is None:
            width = len(tokens)
        elif len(tokens) != width:
            raise ParseError(f"row has {len(tokens)} entries, expected {width}", lineno)
        rows.append([parse_rational(tok, lineno) for tok in tokens])
    if not rows:
        raise ParseError("empty matrix")
    return linalg.mat(rows)


def dumps_matrix(m: linalg.SparseMatrix) -> str:
    return "\n".join(matrix_lines(m)) + "\n"


def load_matrix(path) -> linalg.SparseMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_matrix(fh.read())


def save_matrix(m, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_matrix(m))


# -- cochains -----------------------------------------------------------------


def _flatten_key(space, key):
    """Canonical 0-based argument indices of a stored key."""
    blocks, z = space.decode_args(key)
    return [i for b in blocks for i in space.wedge[b]] + [z]


def _unflatten_key(space, indices, lineno=None):
    n = space.alg.arity
    p = space.degree
    expected = (p - 1) * (n - 1) + n if space.mode == "fused" else p * (n - 1) + 1
    if len(indices) != expected:
        raise ParseError(f"expected {expected} indices for degree {p}, got {len(indices)}", lineno)
    blocks = []
    pos = 0
    for _ in range(p - 1 if space.mode == "fused" else p):
        t = tuple(indices[pos:pos + n - 1])
        pos += n - 1
        if t not in space.windex:
            raise ParseError(f"block {t} is not strictly increasing/in range", lineno)
        blocks.append(space.windex[t])
    if space.mode == "fused":
        tail = tuple(indices[pos:])
        if tail not in space.nindex:
            raise ParseError(f"final group {tail} is not strictly increasing/in range", lineno)
        return tuple(blocks) + (space.nindex[tail],)
    if not 0 <= indices[pos] < space.alg.dim:
        raise ParseError(f"final index {indices[pos] + 1} is out of range", lineno)
    return tuple(blocks) + (indices[pos],)


def dumps_cochains(cochains) -> str:
    """Serialize one or more cochains sharing a space that files name:
    scalar or adjoint values, degree >= 1, fused or split."""
    cochains = list(cochains)
    if not cochains:
        raise ValueError("nothing to serialize")
    space = cochains[0].space
    if space.kind == "representation" or space.degree < 1 or space.mode not in ("fused", "split"):
        raise ValueError(f"no file holds {space.kind} cochains of degree {space.degree} "
                         f"in mode {space.mode}")
    out = [
        f"kind = {space.kind}",
        f"degree = {space.degree}",
        f"dim = {space.alg.dim}",
        f"arity = {space.alg.arity}",
        f"mode = {space.mode}",
    ]
    heads = {}  # key -> "[indices] -> ", built once per file
    components = range(space.value_dim)
    for idx, cochain in enumerate(cochains):
        if cochain.space is not space and (
            cochain.space.degree != space.degree
            or cochain.space.kind != space.kind
            or cochain.space.mode != space.mode
        ):
            raise ValueError("cochains must share one space")
        out.append(f"cochain {idx + 1}")
        for key in sorted(cochain.coeffs):
            if (head := heads.get(key)) is None:
                flat = ",".join(str(i + 1) for i in _flatten_key(space, key))
                head = heads[key] = f"[{flat}] -> "
            # stored values are ints or Fractions, whose str is format_rational's
            value = cochain.coeffs[key]
            out.append(head + ",".join(str(value[r]) if r in value else "0" for r in components))
    return "\n".join(out) + "\n"


def loads_cochains(text: str, alg):
    """Parse a cochain file against an algebra; returns a list."""
    from .cochains import Cochain, CochainSpace

    lines = list(_content_lines(text))
    if len(lines) < 5:
        raise ParseError("missing cochain headers")
    kind_line = lines[0][1]
    m = re.match(r"^kind\s*=\s*(scalar|adjoint)$", kind_line)
    if not m:
        raise ParseError(f"expected 'kind = scalar|adjoint', got {kind_line!r}", lines[0][0])
    kind = m.group(1)
    degree = _parse_header(lines[1][1], "degree", lines[1][0])
    if degree < 1:
        raise ParseError("cochain files start at degree 1", lines[1][0])
    dim = _parse_header(lines[2][1], "dim", lines[2][0])
    arity = _parse_header(lines[3][1], "arity", lines[3][0])
    mode_line = lines[4][1]
    m = re.match(r"^mode\s*=\s*(fused|split)$", mode_line)
    if not m:
        raise ParseError(f"expected 'mode = fused|split', got {mode_line!r}", lines[4][0])
    mode = m.group(1)
    if dim != alg.dim or arity != alg.arity:
        raise ParseError(
            f"cochain is for dim {dim}, arity {arity}; algebra has {alg.dim}, {alg.arity}"
        )
    space = CochainSpace(alg, degree, kind, mode)
    cochains = []
    coeffs = None
    for lineno, line in lines[5:]:
        if re.match(r"^cochain\s+\d+$", line, re.ASCII):
            coeffs, seen = {}, set()
            cochains.append(coeffs)
            continue
        m = _BRACKET_LINE.match(line)
        if not m or coeffs is None:
            raise ParseError(f"expected 'cochain k' or a coefficient line, got {line!r}", lineno)
        key = _unflatten_key(space, _indices(m.group(1), "index tuple", lineno), lineno)
        if key in seen:
            raise ParseError(f"repeated key {m.group(1)!r} in one cochain", lineno)
        seen.add(key)
        values = [parse_rational(tok, lineno) for tok in m.group(2).split(",")]
        if len(values) != space.value_dim:
            count = "one rational" if kind == "scalar" else f"{dim} rationals"
            raise ParseError(f"{kind} cochain lines carry {count}", lineno)
        if vec := {r: v for r, v in enumerate(values) if v}:
            coeffs[key] = vec
    return [Cochain(space, dict(sorted(coeffs.items()))) for coeffs in cochains]


def load_cochains(path, alg):
    with open(path, "r", encoding="utf-8") as fh:
        return loads_cochains(fh.read(), alg)


def save_cochains(cochains, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_cochains(cochains))


# -- binary (Hom-Leibniz) algebras --------------------------------------------


def dumps_leibniz(leib) -> str:
    """Binary-algebra text format: dim, twist rows, ordered-pair lines.

    Unlike the n-ary format, pairs are not symmetrized; the bracket of a
    Hom-Leibniz algebra need not be skew.
    """
    out = ["kind = leibniz", f"dim = {leib.dim}", *matrix_lines(leib.twist_matrix())]
    for i in range(leib.dim):
        for j in range(leib.dim):
            cell = leib.table[i][j]
            if not cell:
                continue
            dense = [cell.get(k, Fraction(0)) for k in range(leib.dim)]
            out.append(
                f"[{i + 1},{j + 1}] -> " + ",".join(format_rational(v) for v in dense)
            )
    return "\n".join(out) + "\n"


def loads_leibniz(text: str):
    from .fundamental import HomLeibnizAlgebra

    lines = list(_content_lines(text))
    if len(lines) < 2 or lines[0][1] != "kind = leibniz":
        raise ParseError("expected 'kind = leibniz' header")
    dim = _parse_header(lines[1][1], "dim", lines[1][0])
    twist = _square_matrix(lines, 2, dim, "twist")
    table = [[{} for _ in range(dim)] for _ in range(dim)]
    for lineno, line in lines[2 + dim:]:
        m = _BRACKET_LINE.match(line)
        if not m:
            raise ParseError(f"expected '[i,j] -> c1,...,c{dim}', got {line!r}", lineno)
        i, j = _indices(m.group(1), "index pair", lineno, 2)
        if not (0 <= i < dim and 0 <= j < dim):
            raise ParseError("pair out of range", lineno)
        values = [parse_rational(tok, lineno) for tok in m.group(2).split(",")]
        if len(values) != dim:
            raise ParseError(f"expected {dim} coefficients", lineno)
        table[i][j] = {k: v for k, v in enumerate(values) if v}
    return HomLeibnizAlgebra(
        dim=dim,
        basis=[(i,) for i in range(dim)],
        index={(i,): i for i in range(dim)},
        table=table,
        twist_cols=[twist.column(c) for c in range(dim)],
        source=None,
    )


def load_leibniz(path):
    with open(path, "r", encoding="utf-8") as fh:
        return loads_leibniz(fh.read())


def save_leibniz(leib, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_leibniz(leib))


# -- representations --------------------------------------------------------


def loads_representation(text: str):
    """Standalone representation file.

    Grammar: ``arity = n``, ``dim = d'`` (module dimension), a ``nu:``
    marker followed by d' matrix rows, then any number of
    ``rho [i1,...,i_{n-1}]:`` blocks each followed by d' rows.  Distinct
    1-based indices in any order; stored sorted, times the sort's sign.
    """
    from .derivations import RepresentationMap

    lines = list(_content_lines(text))
    if len(lines) < 2:
        raise ParseError("missing 'arity' and 'dim' headers")
    arity = _parse_header(lines[0][1], "arity", lines[0][0])
    dim = _parse_header(lines[1][1], "dim", lines[1][0])
    if arity < 2:
        raise ParseError("need arity >= 2", lines[0][0])
    if len(lines) == 2:
        raise ParseError("missing 'nu:' block")
    lineno, line = lines[2]
    if line != "nu:":
        raise ParseError(f"expected 'nu:', got {line!r}", lineno)
    nu, pos = _square_matrix(lines, 3, dim, "matrix"), 3 + dim
    rho = {}
    while pos < len(lines):
        lineno, line = lines[pos]
        m = re.match(r"^rho\s*\[([^\]]*)\]\s*:$", line)
        if not m:
            raise ParseError(f"expected 'rho [i1,...]:', got {line!r}", lineno)
        key = _indices(m.group(1), "rho index list", lineno)
        if len(key) != arity - 1:
            raise ParseError(f"rho tuple needs {arity - 1} indices", lineno)
        canon, sign = sort_with_sign(key)
        if sign == 0 or canon[0] < 0:
            raise ParseError(f"rho indices must be distinct and at least 1, got {line!r}", lineno)
        if canon in rho:
            raise ParseError(f"repeated rho block for {m.group(1)!r}", lineno)
        rho[canon] = sign * _square_matrix(lines, pos + 1, dim, "matrix")
        pos += 1 + dim
    return RepresentationMap(arity=arity, dim=dim, rho=rho, nu=nu)


def load_representation(path):
    with open(path, "r", encoding="utf-8") as fh:
        return loads_representation(fh.read())
