"""End-to-end CLI runs against the shipped fixture files."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from homnambu import fixtures
from homnambu.cli import main
from homnambu.formats import dumps_algebra, load_algebra, load_leibniz, save_cochains
from homnambu.cochains import Cochain, CochainSpace

FIXDIR = Path(__file__).resolve().parent.parent / "fixtures"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_imports_only_the_standard_library():
    # a fresh interpreter, so that no other test's imports are counted
    paths = [str(FIXDIR.parent / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    probe = (
        "import sys; before = set(sys.modules); import homnambu.cli; "
        "print(*sorted({m.split('.')[0] for m in set(sys.modules) - before}))"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    imported = set(out.stdout.split())
    assert "homnambu" in imported
    assert imported - {"homnambu"} <= sys.stdlib_module_names


def test_fixture_dir_is_shipped():
    assert (FIXDIR / "filippov_n3.alg").exists()


def test_validate_pass(capsys):
    code, out, _ = run(capsys, "validate", FIXDIR / "filippov_n3.alg")
    assert code == 0
    assert "hom_nambu: pass" in out


def test_validate_perturbed_fails_with_witness(capsys):
    code, out, _ = run(capsys, "validate", FIXDIR / "perturbed_n3.alg")
    assert code == 3
    assert "fail at x=" in out


def test_validate_formats_a_noncanonical_skew_key(monkeypatch, capsys):
    # the loader canonicalizes every key, so inject one behind it
    from homnambu import cli

    alg = load_algebra(FIXDIR / "filippov_n3.alg")
    alg.coeffs[(1, 0, 2)] = (0, 0, 0, Fraction(-1, 2))
    monkeypatch.setattr(cli, "_load", lambda path: alg)
    code, out, _ = run(capsys, "validate", "injected.alg")
    assert code == 3
    assert "skew: fail at (2,1,3): 0,0,0,-1/2" in out
    assert "skew_checked: False" in out


def test_zero_denominator_exit_2(tmp_path, capsys):
    bad = tmp_path / "zero_denominator.alg"
    text = (FIXDIR / "filippov_n3.alg").read_text()
    bad.write_text(text.replace("\n1 0 0 0\n", "\n1/0 0 0 0\n", 1))
    code, _, err = run(capsys, "validate", bad)
    assert code == 2
    assert "line 3: bad rational '1/0'" in err
    rho = tmp_path / "rho.matrix"
    rho.write_text("1/0 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n")
    code, _, err = run(
        capsys, "twist", FIXDIR / "filippov_n3.alg", "--map", rho, "-o", tmp_path / "out.alg"
    )
    assert code == 2
    assert "line 1: bad rational '1/0'" in err


def test_validate_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.alg"
    bad.write_text("dim = 2\narity = 2\n1 0\n0 1\n[1,2] -> 1\n")
    code, _, err = run(capsys, "validate", bad)
    assert code == 2
    assert "line 5" in err
    # the cochain modes on the command line are fused and split only
    with pytest.raises(SystemExit) as exc:
        run(capsys, "cohomology", FIXDIR / "sl2.alg", "-p", 1, "--mode", "tensor")
    assert exc.value.code == 2
    assert "invalid choice: 'tensor'" in capsys.readouterr().err


def test_validate_json(capsys):
    code, out, _ = run(capsys, "--json", "validate", FIXDIR / "filippov_n3.alg")
    assert code == 0
    data = json.loads(out)
    assert data["checks"]["multiplicative"] == "pass"


def test_twist_roundtrip(tmp_path, capsys):
    mapfile = tmp_path / "rot.mat"
    from homnambu.formats import save_matrix

    save_matrix(fixtures.rotation_twist_4d(), mapfile)
    out_alg = tmp_path / "twisted.alg"
    code, _, _ = run(capsys, "twist", FIXDIR / "filippov_n3.alg", "--map", mapfile, "-o", out_alg)
    assert code == 0
    expected = dumps_algebra(fixtures.twisted_filippov_rotation())
    assert out_alg.read_text() == expected


def test_twist_rejects_non_endomorphism(tmp_path, capsys):
    mapfile = tmp_path / "bad.mat"
    mapfile.write_text("1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 2\n")
    code, _, err = run(capsys, "twist", FIXDIR / "filippov_n3.alg", "--map", mapfile, "-o", tmp_path / "x.alg")
    assert code == 4
    assert "endomorphism" in err


def test_twist_refuses_twisted_input(tmp_path, capsys):
    mapfile = tmp_path / "id.mat"
    mapfile.write_text("1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n")
    code, _, err = run(
        capsys, "twist", FIXDIR / "filippov_n3_twisted.alg", "--map", mapfile, "-o", tmp_path / "x.alg"
    )
    assert code == 4


def test_derivations_matches_library(capsys):
    code, out, _ = run(capsys, "--json", "derivations", FIXDIR / "filippov_n3.alg", "-k", "0")
    assert code == 0
    data = json.loads(out)
    assert data["dimension"] == 6
    # printed matrices agree with the library's canonical basis
    from homnambu.derivations import derivation_space, unflatten_matrix
    from homnambu.formats import loads_matrix

    alg = load_algebra(FIXDIR / "filippov_n3.alg")
    space = derivation_space(alg, 0)
    assert len(data["basis"]) == space.dim
    for rows, flat in zip(data["basis"], space.vectors):
        printed = loads_matrix("\n".join(rows))
        assert printed == unflatten_matrix(flat, alg.dim)


def test_derivations_at_a_high_twist_power(capsys):
    # the rotation twist has order 4, so alpha^3000 = id and level 3000
    # has the derivations of level 0
    twisted = FIXDIR / "filippov_n3_twisted.alg"
    code, out, _ = run(capsys, "--json", "derivations", twisted, "-k", "3000")
    assert code == 0
    code, out0, _ = run(capsys, "--json", "derivations", twisted, "-k", "0")
    assert code == 0
    assert json.loads(out)["basis"] == json.loads(out0)["basis"]


def test_derivations_refuses_invalid(capsys):
    code, _, err = run(capsys, "derivations", FIXDIR / "perturbed_n3.alg")
    assert code == 4
    assert "refusing" in err


def test_fundamental_export_loads(tmp_path, capsys):
    out_file = tmp_path / "fund.leib"
    code, out, _ = run(capsys, "fundamental", FIXDIR / "filippov_n3.alg", "-o", out_file)
    assert code == 0
    assert "hom_leibniz_identity: pass" in out
    leib = load_leibniz(out_file)
    assert leib.dim == 6
    from homnambu.fundamental import check_hom_leibniz

    assert check_hom_leibniz(leib) == []


def test_cohomology_trivial_h1(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(
        capsys, "cohomology", FIXDIR / "filippov_n3_twisted.alg", "--degree", "1"
    )
    assert code == 0
    assert "dim_H: 0" in out
    basis = tmp_path / "filippov_n3_twisted.z1.scalar.cochains"
    assert basis.exists()
    alg = load_algebra(FIXDIR / "filippov_n3_twisted.alg")
    from homnambu.formats import load_cochains

    assert len(load_cochains(basis, alg)) == 4


def test_main_builds_one_parser(monkeypatch, capsys):
    from homnambu import cli

    built, build = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    try:
        for _ in range(3):
            assert run(capsys, "validate", FIXDIR / "filippov_n3.alg")[0] == 0
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1


def test_main_keeps_no_state_between_calls(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    alg = FIXDIR / "filippov_n3_twisted.alg"

    def plain():
        code, out, _ = run(capsys, "cohomology", alg, "-p", "1")
        assert code == 0
        return [line for line in out.splitlines() if not line.startswith("elapsed_seconds")]

    first = plain()
    assert f"cocycle_basis_file: {tmp_path / 'filippov_n3_twisted.z1.scalar.cochains'}" in first
    custom = tmp_path / "custom.cochains"
    code, out, _ = run(capsys, "--json", "cohomology", alg, "-p", "1", "--basis-out", custom)
    assert code == 0 and json.loads(out)["cocycle_basis_file"] == str(custom)
    assert plain() == first  # text again, and the default basis path
    with pytest.raises(SystemExit) as rejected:
        main(["--json", "cohomology", str(alg), "-p", "one", "--basis-out", str(custom)])
    assert rejected.value.code == 2
    capsys.readouterr()
    assert plain() == first


def test_cohomology_degree0_writes_covectors(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "--json", "cohomology", FIXDIR / "solvable_d4.alg", "-p", "0")
    assert code == 0
    report = json.loads(out)
    assert report["dimensions"]["dim_Z"] == 3
    basis = tmp_path / "solvable_d4.z0.scalar.matrix"
    assert report["cocycle_basis_file"] == str(basis)
    from homnambu import linalg
    from homnambu.formats import load_matrix
    from homnambu.scalar_cohomology import zero_coboundary_matrix

    rows = load_matrix(basis)
    assert rows.shape == (3, 4)
    delta = zero_coboundary_matrix(load_algebra(FIXDIR / "solvable_d4.alg"))
    for row in rows.to_dense():
        assert not any(linalg.sparse_mat_vec(delta, tuple(row)))


@pytest.mark.parametrize(
    "argv",
    [
        ("filippov_n3", "-p", "2", "--mode", "split"),
        ("sl2", "-p", "3", "--coefficients", "adjoint"),
        ("solvable_d4", "-p", "0"),
    ],
    ids=["trivial-split", "adjoint", "degree-0"],
)
def test_cohomology_writes_bases_without_dense_vectors(argv, tmp_path, capsys, monkeypatch):
    # reports and cocycle files are built from the sparse basis rows: no
    # dense basis vector and no dense cochain vector is formed on the way
    from homnambu import linalg

    def densified(*_args):
        raise AssertionError("a dense vector was built on the report path")

    monkeypatch.setattr(Cochain, "from_flat", classmethod(densified))
    monkeypatch.setattr(linalg.SubspaceBasis, "vectors", property(densified))
    monkeypatch.chdir(tmp_path)
    stem, *options = argv
    code, out, err = run(capsys, "--json", "cohomology", FIXDIR / f"{stem}.alg", *options)
    assert code == 0, err
    report = json.loads(out)
    assert report["dimensions"]["dim_Z"] > 0
    assert Path(report["cocycle_basis_file"]).is_file()


def test_cohomology_zero_bracket(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "cohomology", FIXDIR / "zero_d2_n2.alg", "--degree", "1")
    assert code == 0
    assert "dim_H: 1" in out


def test_cohomology_adjoint(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(
        capsys,
        "--json",
        "cohomology",
        FIXDIR / "volume_d3_twisted.alg",
        "--coefficients",
        "adjoint",
        "--degree",
        "1",
    )
    assert code == 0
    data = json.loads(out)
    dims = data["dimensions"]
    assert dims["dim_Z"] - dims["dim_B"] == dims["dim_H"]


def test_extend_roundtrip(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, _ = run(
        capsys, "cohomology", FIXDIR / "filippov_n3_twisted.alg", "--degree", "1"
    )
    assert code == 0
    basis = tmp_path / "filippov_n3_twisted.z1.scalar.cochains"
    out_alg = tmp_path / "extended.alg"
    code, out, _ = run(
        capsys,
        "extend",
        FIXDIR / "filippov_n3_twisted.alg",
        "--cochain",
        basis,
        "--index",
        "2",
        "-o",
        out_alg,
    )
    assert code == 0
    assert "hom_nambu_identity: pass" in out
    ext = load_algebra(out_alg)
    assert ext.dim == 5
    # the emitted file re-parses to identical canonical form
    assert dumps_algebra(ext) == out_alg.read_text()
    # skewness and the identity hold; the extended twist need not be
    # multiplicative and is only reported
    code, out, _ = run(capsys, "--json", "validate", out_alg)
    checks = json.loads(out)["checks"]
    assert checks["skew"] == "pass" and checks["hom_nambu"] == "pass"


def test_extend_zero_cochain(tmp_path, capsys):
    alg = load_algebra(FIXDIR / "filippov_n3.alg")
    space = CochainSpace(alg, 1, "scalar")
    cfile = tmp_path / "zero.cochains"
    save_cochains([Cochain.zero(space)], cfile)
    out_alg = tmp_path / "ext.alg"
    code, _, _ = run(capsys, "extend", FIXDIR / "filippov_n3.alg", "--cochain", cfile, "-o", out_alg)
    assert code == 0
    ext = load_algebra(out_alg)
    assert ext.dim == 5
    code, _, _ = run(capsys, "validate", out_alg)
    assert code == 0


def test_extend_non_cocycle_exit_4(tmp_path, capsys):
    alg = load_algebra(FIXDIR / "solvable_d4.alg")
    space = CochainSpace(alg, 1, "scalar")
    from fractions import Fraction

    from homnambu import linalg
    from homnambu.scalar_cohomology import coboundary_matrix

    mat = coboundary_matrix(alg, 1, "fused", "split")
    target = None
    for i in range(space.dim):
        flat = [Fraction(0)] * space.dim
        flat[i] = Fraction(1)
        if any(linalg.sparse_mat_vec(mat, flat)):
            target = Cochain.from_flat(space, flat)
            break
    assert target is not None
    cfile = tmp_path / "noncocycle.cochains"
    save_cochains([target], cfile)
    code, _, err = run(
        capsys, "extend", FIXDIR / "solvable_d4.alg", "--cochain", cfile, "-o", tmp_path / "x.alg"
    )
    assert code == 4
    assert "not a cocycle" in err


def test_deform_check_cocycle_and_noncocycle(tmp_path, capsys):
    import random

    from homnambu import linalg
    from homnambu.adjoint_cohomology import cohomology as adj_cohomology

    alg = load_algebra(FIXDIR / "filippov_n3.alg")
    rep = adj_cohomology(alg, 1)
    space = CochainSpace(alg, 1, "adjoint")
    good = Cochain.from_flat(space, rep.cocycle_basis.vectors[0])
    cfile = tmp_path / "good.cochains"
    save_cochains([good], cfile)
    code, out, _ = run(capsys, "deform-check", FIXDIR / "filippov_n3.alg", "--cochain", cfile)
    assert code == 0
    assert "infinitesimal_deformation: True" in out

    rng = random.Random(1)
    bad = None
    from homnambu.adjoint_cohomology import coboundary_matrix as adj_matrix

    m = adj_matrix(alg, 1, "fused", "split")
    for _ in range(10):
        candidate = Cochain.random(space, rng)
        if any(linalg.sparse_mat_vec(m, candidate.to_flat())):
            bad = candidate
            break
    assert bad is not None
    cfile2 = tmp_path / "bad.cochains"
    save_cochains([bad], cfile2)
    code, out, _ = run(capsys, "deform-check", FIXDIR / "filippov_n3.alg", "--cochain", cfile2)
    assert code == 3
    assert "first_residual" in out


def test_bridge_check_holds(capsys):
    code, out, _ = run(
        capsys, "bridge-check", FIXDIR / "volume_d3_twisted.alg", "--degree", "0", "--ternary"
    )
    assert code == 0
    assert "commuting_square: holds" in out


def test_bridge_check_ternary_lifts_phi_once(monkeypatch, capsys):
    from homnambu import bridge

    lifted = []
    delta_lift = bridge.delta_lift

    def counted(phi):
        lifted.append(phi.space.degree)
        return delta_lift(phi)

    monkeypatch.setattr(bridge, "delta_lift", counted)
    code, out, _ = run(capsys, "bridge-check", FIXDIR / "filippov_n3.alg", "--degree", "1", "--ternary")
    assert code == 0
    assert "ternary_paths_agree: True" in out
    assert sorted(lifted) == [1, 2]  # phi once, and its coboundary


def test_bridge_check_degree_1(capsys):
    code, out, _ = run(capsys, "bridge-check", FIXDIR / "filippov_n3.alg", "--degree", "1")
    assert code == 0
    assert "commuting_square: holds" in out


def test_roundtrip_byte_stability(tmp_path, capsys):
    src = FIXDIR / "filippov_n3_reflected.alg"
    alg = load_algebra(src)
    text = dumps_algebra(alg)
    again = dumps_algebra(load_algebra(src))
    assert text == again
    copy = tmp_path / "copy.alg"
    copy.write_text(text)
    assert dumps_algebra(load_algebra(copy)) == text


def test_deform_check_index_out_of_range_exit_4(tmp_path, capsys):
    alg = load_algebra(FIXDIR / "filippov_n3.alg")
    cfile = tmp_path / "two.cochains"
    space = CochainSpace(alg, 1, "adjoint")
    save_cochains([Cochain.zero(space), Cochain.zero(space)], cfile)
    for index in (99, 3, 0, -1):
        code, _, err = run(
            capsys, "deform-check", FIXDIR / "filippov_n3.alg", "--cochain", cfile, "--index", index
        )
        assert code == 4, index
        assert "out of range (file holds 2)" in err


def test_cohomology_negative_degree_exit_4(capsys):
    code, out, err = run(capsys, "cohomology", FIXDIR / "filippov_n3.alg", "-p", -1)
    assert code == 4
    assert out == ""
    assert "trivial cohomology starts at degree 0" in err


def test_cohomology_adjoint_degree_0_exit_4(capsys):
    code, out, err = run(
        capsys, "cohomology", FIXDIR / "filippov_n3.alg", "-p", 0, "--coefficients", "adjoint"
    )
    assert code == 4
    assert out == ""
    assert "adjoint cohomology starts at degree 1" in err


def test_cochain_file_of_degree_12_exit_4(tmp_path, capsys):
    # 6^11 * 4 keys at this degree: refused for its degree, not built
    key = "[" + "1,2," * 11 + "2,3,4] -> "
    head = "degree = 12\ndim = 4\narity = 3\nmode = fused\ncochain 1\n"
    scalar, adjoint = tmp_path / "s.cochains", tmp_path / "a.cochains"
    scalar.write_text("kind = scalar\n" + head + key + "1\n")
    adjoint.write_text("kind = adjoint\n" + head + key + "1,0,0,0\n")
    alg = FIXDIR / "filippov_n3.alg"
    code, _, err = run(capsys, "extend", alg, "--cochain", scalar, "-o", tmp_path / "ext.alg")
    assert code == 4
    assert "scalar degree-1 cochain" in err
    code, _, err = run(capsys, "deform-check", alg, "--cochain", adjoint)
    assert code == 4
    assert "adjoint degree-1 cochain" in err


def test_cochain_file_of_degree_0_exit_2(tmp_path, capsys):
    cfile = tmp_path / "zero.cochains"
    cfile.write_text("kind = adjoint\ndegree = 0\ndim = 4\narity = 3\nmode = fused\n")
    code, _, err = run(capsys, "deform-check", FIXDIR / "filippov_n3.alg", "--cochain", cfile)
    assert code == 2
    assert "line 2" in err
    assert "degree 1" in err


HEAD = "dim = 3\narity = 2\n1 0 0\n0 1 0\n0 0 1\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("dim = ３\narity = 2\n1 0 0\n0 1 0\n0 0 1\n",
         "line 1: expected 'dim = <count>', got 'dim = ３'"),
        (HEAD + "[١,٢] -> 0,0,1\n", "line 6: bad index tuple '١,٢'"),
        (HEAD + "[1,2] -> ١,0,0\n", "line 6: bad rational '١'"),
        (HEAD + "[0_1,2] -> 0,0,1\n", "line 6: bad index tuple '0_1,2'"),
        (HEAD + "[1,x] -> 0,0,1\n", "line 6: bad index tuple '1,x'"),
        (HEAD + "[-1,2] -> 0,0,1\n", "line 6: bracket tuple (-2, 1) out of range for dim 3"),
    ],
)
def test_digits_are_ascii_exit_2(text, message, tmp_path, capsys):
    # the file grammar is [+-]?digits[/digits] in ASCII; a tuple with an
    # ASCII sign still reaches the range check
    bad = tmp_path / "digits.alg"
    bad.write_text(text, encoding="utf-8")
    code, _, err = run(capsys, "validate", bad)
    assert code == 2
    assert message in err
    assert "Traceback" not in err


def test_cochain_indices_are_ascii_exit_2(tmp_path, capsys):
    head = "kind = scalar\ndegree = 1\ndim = 4\narity = 3\nmode = fused\ncochain 1\n"
    for line, message in (("[1,2,٣] -> 1", "bad index tuple '1,2,٣'"),
                          ("[1,2,0_3] -> 1", "bad index tuple '1,2,0_3'")):
        cfile = tmp_path / "c.cochains"
        cfile.write_text(head + line + "\n", encoding="utf-8")
        alg = FIXDIR / "filippov_n3.alg"
        code, _, err = run(capsys, "extend", alg, "--cochain", cfile, "-o", tmp_path / "ext.alg")
        assert code == 2
        assert f"line 7: {message}" in err
        assert "Traceback" not in err


def test_validate_an_arity_above_the_dimension(tmp_path, capsys):
    # no increasing tuple exists, so no check allocates one
    alg = tmp_path / "wide.alg"
    alg.write_text("dim = 2\narity = 99999999999\n1 0\n0 1\n")
    code, out, err = run(capsys, "validate", alg)
    assert code == 0, err
    assert "hom_nambu: pass" in out
