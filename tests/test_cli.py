"""CLI surface: outputs, exit codes, deterministic files."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from codebounds import cli, codes, gegenbauer, jsonutil, pfender
from codebounds.errors import TheoremViolationError

ROOT = Path(__file__).resolve().parents[1]


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "codebounds", *args],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestGegenbauer:
    def test_eval_legendre(self):
        code, out, _ = run_cli(
            "gegenbauer", "eval", "--dim", "3", "--degree", "2", "--at", "0.5"
        )
        assert code == 0
        assert out.strip() == "-0.125"

    def test_eval_at_one(self):
        code, out, _ = run_cli(
            "gegenbauer", "eval", "--dim", "11", "--degree", "9", "--at", "1.0"
        )
        assert code == 0
        assert out.strip() == "1"

    def test_bad_dimension_exits_2(self):
        code, _, err = run_cli(
            "gegenbauer", "eval", "--dim", "1", "--degree", "2", "--at", "0.5"
        )
        assert code == 2
        assert "dimension" in err

    def test_missing_flags_exit_2(self):
        code, _, _ = run_cli("gegenbauer", "eval", "--dim", "3")
        assert code == 2

    def test_expand(self):
        code, out, _ = run_cli(
            "gegenbauer", "expand", "--dim", "3", "--expand", "0,0,1"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("a_0 = 0.333333")
        assert lines[2].startswith("a_2 = 0.666666")

    def test_expand_prints_what_the_library_gives(self, capsys, rng):
        for degree in (0, 1, 7, 40):
            dim = int(rng.integers(2, 30))
            mono = [jsonutil.format_float(v) for v in rng.uniform(-2, 2, degree + 1)]
            # --expand=..., as a first value "-1.5" would read as an option
            expand = "--expand=" + ",".join(mono)
            assert cli.main(["gegenbauer", "expand", "--dim", str(dim), expand]) == 0
            poly = gegenbauer.expand_in_basis([float(v) for v in mono], dim)
            assert capsys.readouterr().out == "".join(
                f"a_{k} = {jsonutil.format_float(a)}\n"
                for k, a in enumerate(poly.coeffs)
            )


def readme_commands():
    """The ``codebounds`` and ``python scripts/...`` lines of the README."""
    text = (ROOT / "README.md").read_text().replace("\\\n", " ")
    for block in re.findall(r"^```\w*\n(.*?)^```$", text, re.S | re.M):
        for line in block.splitlines():
            words = line.split()
            if words[:1] == ["codebounds"] or line.startswith("python scripts/"):
                yield words


def test_readme_commands_do_not_import_scipy(tmp_path):
    # numpy is the only runtime dependency; importing scipy.linalg alone is
    # about 0.3 s of a cold start
    commands = list(readme_commands())
    assert sum(words[0] == "python" for words in commands) == 2
    assert {words[1] for words in commands if words[0] == "codebounds"} == {
        "gegenbauer", "bound", "code",
    }
    jsonutil.dump_path(
        str(tmp_path / "phi.json"), {"basis": "gegenbauer", "dim": 3, "coeffs": [0, 1]}
    )
    jsonutil.dump_path(
        str(tmp_path / "ortho.json"),
        codes.code_to_json_dict(codes.generate("orthonormal", dim=3)),
    )
    script = (
        "import runpy, sys\n"
        "from codebounds.cli import main\n"
        f"for words in {commands!r}:\n"
        "    if words[0] == 'codebounds':\n"
        "        main(words[1:])\n"
        "        continue\n"
        f"    sys.argv = [{str(ROOT)!r} + '/' + words[1], *words[2:]]\n"
        "    try:\n"
        "        runpy.run_path(sys.argv[0], run_name='__main__')\n"
        "    except SystemExit as exc:\n"
        "        assert not exc.code, words\n"
        "print('scipy' in sys.modules)\n"
    )
    # the commands write their files into tmp_path, so the package is
    # found through an absolute path
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True,
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.stdout.splitlines()[-1] == "False"


class TestBoundLP:
    def test_kissing_d8(self, tmp_path):
        out_file = tmp_path / "c8.json"
        code, out, _ = run_cli(
            "bound", "lp", "--dim", "8", "--cos-theta", "0.5", "--degree", "6",
            "--out", str(out_file),
        )
        assert code == 0
        assert "bound_int=240" in out
        assert "verified=yes" in out
        data = json.loads(out_file.read_text())
        assert data["kind"] == "pfender" and data["variant"] == "interval"
        assert data["bound_int"] == 240
        assert data["verification"]["passed"] is True

    def test_no_certificate_exits_1(self):
        code, _, err = run_cli(
            "bound", "lp", "--dim", "5", "--cos-theta", "0.5", "--degree", "0"
        )
        assert code == 1
        assert "no certificate" in err

    def test_a_huge_dimension_has_no_certificate(self):
        # the Jacobi entries of Levenshtein's search are past the float
        # range here, and used to end in an OverflowError traceback
        code, _, err = run_cli(
            "bound", "lp", "--dim", str(10**300), "--cos-theta", "0.5", "--degree", "3"
        )
        assert code == 1
        assert err.startswith("no certificate:")
        assert "Traceback" not in err

    def test_negative_degree_exits_2(self):
        code, _, err = run_cli(
            "bound", "lp", "--dim", "3", "--cos-theta", "0.5", "--degree", "-2"
        )
        assert code == 2
        assert "degree must be >= 0" in err

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            code, _, _ = run_cli(
                "bound", "lp", "--dim", "4", "--cos-theta", "0.5", "--degree", "6",
                "--out", str(path),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_grid_flag_is_gone_exits_2(self, capsys):
        # the first-round grid is fixed at dgs_bound.GRID_POINTS
        with pytest.raises(SystemExit) as info:
            cli.main([
                "bound", "lp", "--dim", "3", "--cos-theta", "0.5", "--degree", "6",
                "--grid", "500",
            ])
        assert info.value.code == 2
        assert "unrecognized arguments: --grid 500" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command",
        [
            ["bound", "lp", "--dim", "3", "--degree", "4"],
            ["bound", "pfender", "--phi", "phi.json", "--c", "0.25"],
        ],
        ids=["lp", "pfender"],
    )
    @pytest.mark.parametrize(
        "angle", [[], ["--cos-theta", "0.5", "--theta-degrees", "90"]],
        ids=["neither", "both"],
    )
    def test_exactly_one_angle_flag(self, command, angle, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(command + angle)
        assert info.value.code == 2
        assert "--cos-theta" in capsys.readouterr().err

    def test_theta_degrees_flag(self, tmp_path):
        code, out, _ = run_cli(
            "bound", "lp", "--dim", "3", "--theta-degrees", "90", "--degree", "4",
        )
        assert code == 0
        assert "verified=yes" in out


class TestBoundPfender:
    @pytest.fixture()
    def phi_file(self, tmp_path):
        path = tmp_path / "g1_d3.json"
        jsonutil.dump_path(
            str(path), {"basis": "gegenbauer", "dim": 3, "coeffs": [0.0, 1.0]}
        )
        return path

    def test_tetrahedron(self, phi_file, tmp_path):
        out_file = tmp_path / "pf.json"
        code, out, _ = run_cli(
            "bound", "pfender", "--phi", str(phi_file),
            "--c", "0.3333333333333333", "--cos-theta", "-0.3333333333333333",
            "--out", str(out_file),
        )
        assert code == 0
        assert "bound_real=4 " in out
        assert "verified=yes" in out
        data = json.loads(out_file.read_text())
        assert data["kind"] == "pfender"
        assert data["variant"] == "interval"

    def test_failed_condition_exits_1(self, phi_file):
        code, out, err = run_cli(
            "bound", "pfender", "--phi", str(phi_file),
            "--c", "0.9", "--cos-theta", "-0.3333333333333333",
        )
        assert code == 1
        assert "verified=no" in out

    def test_c_zero_exits_2(self, phi_file):
        code, _, _ = run_cli(
            "bound", "pfender", "--phi", str(phi_file), "--c", "0",
            "--cos-theta", "-0.5",
        )
        assert code == 2

    def test_bound_past_float_range_exits_2(self, phi_file):
        # (phi(1) + c) / c = 1 / 1e-320 overflows to inf
        code, out, err = run_cli(
            "bound", "pfender", "--phi", str(phi_file), "--c", "1e-320",
            "--cos-theta", "-0.5",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: c = 1e-320 ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "dim, coeffs, c, cos_theta, message",
        [
            # phi(1) + c overflows
            (3, [0.0, 1.7e308], "1e308", "-0.5",
             "phi(1) + c is past the float range, with c = 1e+308"),
            # phi's samples are finite, its derivative's Chebyshev
            # coefficients are not
            (5, [0.0] + [1e307] * 10, "1", "0.5", "phi overflows float64: "),
        ],
        ids=["phi(1) + c", "phi'"],
    )
    def test_an_overflowing_phi_exits_2_with_one_error_line(
        self, tmp_path, dim, coeffs, c, cos_theta, message
    ):
        phi_file = tmp_path / "big.json"
        jsonutil.dump_path(str(phi_file), {"basis": "gegenbauer", "dim": dim, "coeffs": coeffs})
        code, out, err = run_cli(
            "bound", "pfender", "--phi", str(phi_file), "--c", c, "--cos-theta", cos_theta
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: " + message) and err.count("\n") == 1, err

    def test_finite_set_non_finite_cos_theta_exits_2(self, phi_file, tmp_path):
        simplex = tmp_path / "s3.json"
        jsonutil.dump_path(
            str(simplex), codes.code_to_json_dict(codes.generate("simplex", dim=3))
        )
        code, out, err = run_cli(
            "bound", "pfender", "--phi", str(phi_file), "--c", "0.25",
            "--finite-set", "--code", str(simplex), "--cos-theta", "nan",
        )
        assert code == 2
        assert out == ""
        assert err == "error: cos_theta must be finite, got nan\n"

    def test_finite_set_angle_above_one_exits_2(self, phi_file, tmp_path):
        simplex = tmp_path / "s3.json"
        jsonutil.dump_path(
            str(simplex), codes.code_to_json_dict(codes.generate("simplex", dim=3))
        )
        out_file = tmp_path / "cert.json"
        code, out, err = run_cli(
            "bound", "pfender", "--phi", str(phi_file), "--c", "0.25",
            "--finite-set", "--code", str(simplex), "--cos-theta", "2.0",
            "--out", str(out_file),
        )
        assert code == 2
        assert out == ""
        assert err == "error: cos_theta must lie in [-1, 1]\n"
        assert not out_file.exists()

    def test_non_object_phi_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "phi.json"
        path.write_text("[1, 2]")
        argv = ["bound", "pfender", "--phi", str(path), "--c", "1", "--cos-theta", "0"]
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: phi must be a JSON object, got list\n")

    def test_missing_field_is_named(self, tmp_path, capsys):
        path = tmp_path / "phi.json"
        jsonutil.dump_path(str(path), {"basis": "gegenbauer", "dim": 3})
        argv = ["bound", "pfender", "--phi", str(path), "--c", "1", "--cos-theta", "0"]
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: missing field 'coeffs'\n")

    def test_finite_set_without_code_exits_2(self, phi_file):
        code, _, err = run_cli(
            "bound", "pfender", "--phi", str(phi_file), "--c", "0.5",
            "--cos-theta", "-0.5", "--finite-set",
        )
        assert code == 2
        assert "--code" in err


class TestCode:
    def test_gen_verify_icosahedron(self, tmp_path):
        ico = tmp_path / "ico.json"
        code, _, _ = run_cli("code", "gen", "--family", "icosahedron", "--out", str(ico))
        assert code == 0
        code, out, _ = run_cli(
            "code", "verify", "--file", str(ico), "--cos-theta", "0.5"
        )
        assert code == 0
        assert "valid=yes" in out
        assert "max_offdiag=0.44721" in out

    def test_verify_non_finite_cos_theta_exits_2(self, tmp_path):
        e8 = tmp_path / "e8.json"
        assert run_cli("code", "gen", "--family", "e8_roots", "--out", str(e8))[0] == 0
        code, out, err = run_cli(
            "code", "verify", "--file", str(e8), "--cos-theta", "nan"
        )
        assert code == 2
        assert out == ""
        assert err == "error: cos_theta must be finite, got nan\n"

    def test_verify_non_unit_vector_exits_1(self, tmp_path):
        bad = tmp_path / "bad_code.json"
        jsonutil.dump_path(
            str(bad),
            {
                "kind": "spherical",
                "dim": 2,
                "cos_theta": 0.5,
                "vectors": [[0.5, 0.0], [0.0, 1.0]],
            },
        )
        code, out, _ = run_cli("code", "verify", "--file", str(bad))
        assert code == 1
        assert "valid=no" in out
        assert "axiom (ii)" in out

    def test_float_dimension_exits_2(self, tmp_path):
        path = tmp_path / "code.json"
        jsonutil.dump_path(
            str(path),
            {"kind": "spherical", "dim": 2.5, "cos_theta": 0.5,
             "vectors": [[1.0, 0.0], [0.0, 1.0]]},
        )
        code, out, err = run_cli("code", "verify", "--file", str(path))
        assert (code, out) == (2, "")
        assert err == "error: dim must be an integer, got 2.5\n"

    def test_malformed_json_exits_2_with_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"kind": "spherical", ')
        code, _, err = run_cli("code", "verify", "--file", str(path))
        assert code == 2
        assert "line 1" in err

    def test_non_object_code_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "code.json"
        path.write_text("[1]")
        assert cli.main(["code", "verify", "--file", str(path)]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: code must be a JSON object, got list\n")

    def test_nested_non_object_phi_exits_2(self, tmp_path, capsys):
        ortho = tmp_path / "ortho.json"
        cert = tmp_path / "cert.json"
        jsonutil.dump_path(
            str(ortho), codes.code_to_json_dict(codes.generate("orthonormal", dim=3))
        )
        data = pfender.certificate_to_json_dict(
            pfender.pfender_bound(pfender.PhiSpec("gegenbauer", [0.0, 1.0], dim=3),
                                  0.5, -0.5)
        )
        data["phi"] = []
        jsonutil.dump_path(str(cert), data)
        argv = ["code", "check-theorem", "--file", str(ortho), "--cert", str(cert)]
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: phi must be a JSON object, got list\n")

    def test_check_theorem_orthonormal(self, tmp_path):
        ortho = tmp_path / "ortho_d5.json"
        phi = tmp_path / "phi_sq_d5.json"
        cert = tmp_path / "cert_d5.json"
        assert run_cli("code", "gen", "--family", "orthonormal", "--dim", "5",
                       "--out", str(ortho))[0] == 0
        jsonutil.dump_path(
            str(phi), {"basis": "monomial", "dim": None, "coeffs": [-0.2, 0.0, 1.0]}
        )
        code, out, _ = run_cli(
            "bound", "pfender", "--phi", str(phi), "--c", "0.2",
            "--cos-theta", "0", "--finite-set", "--code", str(ortho),
            "--out", str(cert),
        )
        assert code == 0
        code, out, _ = run_cli(
            "code", "check-theorem", "--file", str(ortho), "--cert", str(cert)
        )
        assert code == 0
        assert out.strip() == "n=5 bound=5 slack=0"

    @pytest.mark.parametrize(
        "edit, field",
        [({}, None), ({"bound_int": 3}, "bound_int"), ({"bound_real": 3.5}, "bound_real")],
    )
    def test_check_theorem_compares_the_stored_bound(self, tmp_path, capsys, edit, field):
        # the finite-set certificate (t^2 - 1/4, 1/4) bounds the orthonormal
        # d = 4 code by exactly its size, 4
        ortho, phi, cert = (tmp_path / name for name in ("o.json", "p.json", "c.json"))
        assert cli.main(["code", "gen", "--family", "orthonormal", "--dim", "4",
                         "--out", str(ortho)]) == 0
        jsonutil.dump_path(
            str(phi), {"basis": "monomial", "dim": None, "coeffs": [-0.25, 0.0, 1.0]}
        )
        assert cli.main(["bound", "pfender", "--phi", str(phi), "--c", "0.25",
                         "--cos-theta", "0", "--finite-set", "--code", str(ortho),
                         "--out", str(cert)]) == 0
        capsys.readouterr()
        data = jsonutil.load_path(str(cert))
        assert (data["bound_real"], data["bound_int"]) == (4.0, 4)
        jsonutil.dump_path(str(cert), {**data, **edit})
        argv = ["code", "check-theorem", "--file", str(ortho), "--cert", str(cert)]
        code = cli.main(argv)
        out, err = capsys.readouterr()
        if field is None:
            assert (code, out, err) == (0, "n=4 bound=4 slack=0\n", "")
        else:
            assert (code, out) == (1, "")
            assert err.startswith(f"stored {field} rejected: ")
            assert err.count("\n") == 1

    def test_check_theorem_slack_is_against_the_floor(self, tmp_path, capsys):
        # the README's g1 certificate at d = 5 bounds the simplex's n = 6 by
        # bound_real 5.9999999999999991; applicability is n <= bound_int = 6,
        # so the slack is bound_int - n = 0 (bound_real - n is -8.9e-16)
        simplex, phi, cert = (tmp_path / name for name in ("s.json", "p.json", "c.json"))
        assert cli.main(["code", "gen", "--family", "simplex", "--dim", "5",
                         "--out", str(simplex)]) == 0
        jsonutil.dump_path(
            str(phi), {"basis": "gegenbauer", "dim": 5, "coeffs": [0.0, 1.0]}
        )
        assert cli.main(["bound", "pfender", "--phi", str(phi), "--c", "0.2",
                         "--cos-theta", "-0.2", "--out", str(cert)]) == 0
        capsys.readouterr()
        argv = ["code", "check-theorem", "--file", str(simplex), "--cert", str(cert)]
        code = cli.main(argv)
        out, err = capsys.readouterr()
        assert (code, out, err) == (0, "n=6 bound=5.9999999999999991 slack=0\n", "")

    def test_check_theorem_inapplicable_exits_1(self, tmp_path):
        d4 = tmp_path / "d4.json"
        phi = tmp_path / "phi.json"
        cert = tmp_path / "cert.json"
        assert run_cli("code", "gen", "--family", "d4_roots", "--out", str(d4))[0] == 0
        jsonutil.dump_path(
            str(phi), {"basis": "gegenbauer", "dim": 4, "coeffs": [0.0, 1.0]}
        )
        jsonutil.dump_path(
            str(cert),
            {
                "kind": "pfender",
                "variant": "interval",
                "phi": {"basis": "gegenbauer", "dim": 4, "coeffs": [0.0, 1.0]},
                "c": 0.25,
                "cos_theta": 0.5,
                "bound_real": 5.0,
                "bound_int": 5,
            },
        )
        code, _, err = run_cli(
            "code", "check-theorem", "--file", str(d4), "--cert", str(cert)
        )
        assert code == 1
        assert "not applicable" in err

    def test_check_theorem_violation_exits_1(self, tmp_path, monkeypatch, capsys):
        code_file, cert_file = tmp_path / "ortho.json", tmp_path / "cert.json"
        jsonutil.dump_path(
            str(code_file),
            codes.code_to_json_dict(codes.generate("orthonormal", dim=4)),
        )
        jsonutil.dump_path(
            str(cert_file),
            {
                "kind": "pfender",
                "variant": "interval",
                "phi": {"basis": "gegenbauer", "dim": 4, "coeffs": [0.0, 1.0]},
                "c": 0.25,
                "cos_theta": 0.5,
                "bound_real": 5.0,
                "bound_int": 5,
            },
        )

        def violated(*args, **kwargs):
            raise TheoremViolationError("planted")

        monkeypatch.setattr(pfender, "functional_pfender_check", violated)
        code = cli.main([
            "code", "check-theorem", "--file", str(code_file), "--cert", str(cert_file),
        ])
        assert code == 1
        assert capsys.readouterr().err == "THEOREM VIOLATION: planted\n"

    def test_gen_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            assert run_cli("code", "gen", "--family", "e8_roots", "--out", str(path))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_family_exits_2(self, tmp_path):
        code, _, err = run_cli(
            "code", "gen", "--family", "leech", "--out", str(tmp_path / "x.json")
        )
        assert code == 2
        assert err == (
            f"error: unknown family 'leech'; choose from {codes.FAMILIES}\n"
        )

    def test_a_fixed_family_rejects_another_dimension(self, tmp_path, capsys):
        out = tmp_path / "e8.json"
        argv = ["code", "gen", "--family", "e8_roots", "--dim", "5", "--out", str(out)]
        assert cli.main(argv) == 2
        assert capsys.readouterr() == (
            "", "error: e8_roots has dimension 8, got dimension 5\n"
        )
        assert not out.exists()
        argv[5] = "8"
        assert cli.main(argv) == 0
        assert out.read_text() == jsonutil.dumps(
            codes.code_to_json_dict(codes.generate("e8_roots"))
        )

    @pytest.mark.parametrize("family, dim", [
        ("simplex", 7), ("orthonormal", 2), ("cross_polytope", 5),
        ("icosahedron", None), ("d4_roots", None), ("e8_roots", None),
    ])
    def test_gen_writes_what_the_library_writes(self, tmp_path, capsys, family, dim):
        out = tmp_path / "gen.json"
        argv = ["code", "gen", "--family", family, "--out", str(out)]
        assert cli.main(argv + ([] if dim is None else ["--dim", str(dim)])) == 0
        code = codes.generate(family, dim)
        assert out.read_text() == jsonutil.dumps(codes.code_to_json_dict(code))
        assert capsys.readouterr().out == (
            f"wrote {out}: spherical code, n={code.n}, dim={code.dim}\n"
        )

    def test_verify_metric_code_file(self, tmp_path):
        from codebounds import codes as codes_mod

        metric = codes_mod.embed_as_metric_code(codes_mod.generate("simplex", dim=3))
        path = tmp_path / "metric.json"
        jsonutil.dump_path(str(path), codes_mod.code_to_json_dict(metric))
        code, out, _ = run_cli("code", "verify", "--file", str(path))
        assert code == 0
        assert "valid=yes" in out

    @pytest.mark.parametrize("value", [5, None, "1234"], ids=str)
    def test_point_indices_not_an_array_exits_2(self, value, tmp_path, capsys):
        metric = codes.embed_as_metric_code(codes.generate("simplex", dim=3))
        data = codes.code_to_json_dict(metric)
        data["point_indices"] = value
        path = tmp_path / "metric.json"
        path.write_text(json.dumps(data))
        assert cli.main(["code", "verify", "--file", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: point_indices must be an array of integers, got {value!r}\n"


def _files_with_reals():
    """One valid file of each kind whose reals the readers check."""
    phi = pfender.PhiSpec("gegenbauer", [0.0, 1.0], dim=3)
    rng = np.random.default_rng(5)
    return {
        "spherical": codes.code_to_json_dict(codes.generate("orthonormal", dim=3)),
        "functional": codes.code_to_json_dict(
            codes.random_functional_code(rng, 3.0, 2, 3)
        ),
        "metric": codes.code_to_json_dict(
            codes.embed_as_metric_code(codes.generate("simplex", dim=2))
        ),
        "phi": pfender.phi_to_json_dict(phi),
        "cert": pfender.certificate_to_json_dict(pfender.pfender_bound(phi, 0.5, -0.5)),
    }


class TestJsonReals:
    """Every real a check or a bound reads must be a finite JSON number: a
    string, a bool, NaN or Infinity there, at a scalar or at any array
    leaf, exits 2 naming the field."""

    @pytest.mark.parametrize(
        "kind, where, bad",
        [
            ("spherical", ("cos_theta",), "0.5"),
            ("spherical", ("cos_theta",), True),
            ("spherical", ("vectors", 0, 0), "1"),
            ("functional", ("space", "p"), "3"),
            ("functional", ("points", 1, 0), False),
            ("functional", ("functionals", 2, 1), "0.5"),
            ("functional", ("cos_theta",), None),
            ("metric", ("distance", 0, 1), "1"),
            ("metric", ("functions", 1, 2), True),
            ("metric", ("cos_theta",), [0.5]),
            ("phi", ("coeffs", 0), "0"),
            ("phi", ("coeffs", 1), True),
            ("cert", ("c",), "0.5"),
            ("cert", ("cos_theta",), False),
            ("cert", ("bound_real",), "4"),
            ("cert", ("phi", "coeffs", 1), "1"),
            ("functional", ("cos_theta",), math.nan),
            ("metric", ("distance", 0, 1), math.inf),
            ("phi", ("coeffs", 1), -math.inf),
            ("cert", ("bound_real",), math.nan),
        ],
        ids=str,
    )
    def test_a_non_number_exits_2_naming_the_field(
        self, kind, where, bad, tmp_path, capsys
    ):
        files = _files_with_reals()
        data = files[kind]
        *path, last = where
        for key in path:
            data = data[key]
        data[last] = bad
        ortho = tmp_path / "ortho.json"
        target = tmp_path / "target.json"
        jsonutil.dump_path(str(ortho), files["spherical"])
        # json.dumps writes NaN and Infinity as the tokens json.load reads
        target.write_text(json.dumps(files[kind]))
        if kind == "phi":
            argv = ["bound", "pfender", "--phi", str(target), "--c", "0.5",
                    "--cos-theta", "-0.5"]
        elif kind == "cert":
            argv = ["code", "check-theorem", "--file", str(ortho),
                    "--cert", str(target)]
        else:
            argv = ["code", "verify", "--file", str(target)]
        assert cli.main(argv) == 2
        field = [key for key in where if isinstance(key, str)][-1]
        out, err = capsys.readouterr()
        assert out == ""
        want = "finite" if isinstance(bad, float) else "a real number"
        assert err == f"error: {field} must be {want}, got {bad!r}\n"

    def test_an_array_field_needs_an_array(self, tmp_path, capsys):
        path = tmp_path / "phi.json"
        path.write_text('{"basis": "gegenbauer", "dim": 3, "coeffs": 1.5}')
        argv = ["bound", "pfender", "--phi", str(path), "--c", "0.5",
                "--cos-theta", "-0.5"]
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: coeffs must be an array of real numbers, got 1.5\n"

    def test_p_may_be_inf(self, tmp_path, capsys):
        # the sup norm's unit vectors e_j and their l_1 dual functionals
        eye = [[1.0, 0.0], [0.0, 1.0]]
        code = codes.FunctionalCode(codes.LpSpace(float("inf"), 2), eye, eye, 0.0)
        path = tmp_path / "linf.json"
        jsonutil.dump_path(str(path), codes.code_to_json_dict(code))
        assert json.loads(path.read_text())["space"]["p"] == "inf"
        assert cli.main(["code", "verify", "--file", str(path)]) == 0
        assert capsys.readouterr().out.startswith("valid=yes")


HUGE = 10**400


def _huge_cases(path):
    """Per entry point: the JSON data it reads from ``path`` (or None), its
    argv and the library call that reads the same input."""
    phi_dim = {"basis": "gegenbauer", "dim": HUGE, "coeffs": [0.0, 0.0, 1.0]}
    phi_coeff = {"basis": "gegenbauer", "dim": 3, "coeffs": [0.0, HUGE]}
    sphere = codes.code_to_json_dict(codes.generate("orthonormal", dim=3))
    sphere["vectors"][1][2] = HUGE
    metric = codes.code_to_json_dict(
        codes.embed_as_metric_code(codes.generate("simplex", dim=2))
    )
    metric["point_indices"][0] = HUGE
    pfender_argv = ["bound", "pfender", "--phi", path, "--c", "0.5",
                    "--cos-theta", "-0.5"]
    return {
        "eval-dim": (
            None,
            ["gegenbauer", "eval", "--dim", str(HUGE), "--degree", "2", "--at", "0.5"],
            lambda: gegenbauer.gegenbauer_eval(HUGE, 2, 0.5),
        ),
        "expand-dim": (
            None,
            ["gegenbauer", "expand", "--dim", str(HUGE), "--expand", "0,0,1"],
            lambda: gegenbauer.expand_in_basis([0.0, 0.0, 1.0], HUGE),
        ),
        "phi-dim": (phi_dim, pfender_argv, lambda: pfender.phi_from_json_dict(phi_dim)),
        "phi-coeff": (
            phi_coeff, pfender_argv, lambda: pfender.phi_from_json_dict(phi_coeff)
        ),
        "vector": (
            sphere, ["code", "verify", "--file", path],
            lambda: codes.code_from_json_dict(sphere),
        ),
        "point-index": (
            metric, ["code", "verify", "--file", path],
            lambda: codes.code_from_json_dict(metric),
        ),
        "gen-simplex": (
            None,
            ["code", "gen", "--family", "simplex", "--dim", str(HUGE), "--out", path],
            lambda: codes.generate("simplex", HUGE),
        ),
    }


class TestIntegersPastTheFloatRange:
    """An integer that no float holds, as a dimension, a point index or a
    real, exits 2 with the library's named ValueError, where it used to end
    in an unnamed OverflowError and exit 1. (``bound lp``'s case is in
    test_imports, which also checks that it loads no numpy.)"""

    @pytest.mark.parametrize("case", list(_huge_cases("x.json")))
    def test_exits_2_as_the_library_fails(self, case, tmp_path, capsys):
        path = tmp_path / "in.json"
        data, argv, call = _huge_cases(str(path))[case]
        if data is not None:
            path.write_text(json.dumps(data))
        with pytest.raises(ValueError) as raised:
            call()
        assert cli.main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {raised.value}\n")
        assert case != "gen-simplex" or not path.exists()

    @pytest.mark.parametrize("value", [HUGE, -HUGE], ids=["huge", "-huge"])
    def test_a_real_past_the_float_range_is_not_finite(self, value):
        with pytest.raises(ValueError, match=r"^coeffs must be finite, got -?10{400}$"):
            jsonutil.json_real(value, "coeffs")
        # an integer that a float holds is read as that float
        assert jsonutil.json_real(10**308, "coeffs") == 1e308

    @pytest.mark.parametrize(
        "what, build",
        [
            ("phi coefficients", lambda: pfender.PhiSpec("gegenbauer", [0.0, HUGE], dim=3)),
            ("coeffs", lambda: gegenbauer.GegenbauerPoly(3, [1.0, HUGE])),
            ("vectors", lambda: codes.SphericalCode(2, [[1.0, HUGE]], 0.5)),
            (
                "functionals",
                lambda: codes.FunctionalCode(
                    codes.LpSpace(2.0, 2), [[1.0, 0.0]], [[HUGE, 0.0]], 0.5
                ),
            ),
            (
                "function tables",
                lambda: codes.MetricCode(
                    codes.PointedMetricSpace([[0.0, 1.0], [1.0, 0.0]]),
                    [1], [[0.0, -HUGE]], 0.5,
                ),
            ),
            ("distance matrix", lambda: codes.PointedMetricSpace([[0.0, HUGE], [1.0, 0.0]])),
            (
                "c",
                lambda: pfender.pfender_bound(
                    pfender.PhiSpec("gegenbauer", [0.0, 1.0], dim=3), HUGE, 0.5
                ),
            ),
        ],
        ids=["PhiSpec", "GegenbauerPoly", "SphericalCode", "FunctionalCode",
             "MetricCode", "PointedMetricSpace", "pfender_bound"],
    )
    def test_a_library_float_input_past_the_float_range_is_named(self, what, build):
        # numpy's conversion raises an unnamed OverflowError here
        message = f"^{what} must be finite, got an integer past the float range$"
        with pytest.raises(ValueError, match=message):
            build()

    def test_a_huge_point_index_is_out_of_range(self):
        metric = codes.embed_as_metric_code(codes.generate("simplex", dim=2))
        for index in (HUGE, -HUGE, 2**63):
            with pytest.raises(ValueError, match="^point index out of range$"):
                codes.MetricCode(
                    metric.space, [index, 2, 3], metric.functions, metric.cos_theta
                )


@pytest.mark.parametrize("family", ["simplex", "orthonormal", "cross_polytope"])
def test_a_catalog_dimension_past_the_maximum_exits_2(family, tmp_path, capsys):
    # checked before a row is built; a dimension of 10**4 would take
    # gigabytes, and 10**400 would run until memory runs out
    from codebounds import _catalog

    dim = _catalog.MAX_CATALOG_DIM + 1
    with pytest.raises(ValueError) as raised:
        codes.generate(family, dim)
    assert str(raised.value) == f"{family} dimension is capped at 1024, got 1025"
    out = tmp_path / "gen.json"
    argv = ["code", "gen", "--family", family, "--dim", str(dim), "--out", str(out)]
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {raised.value}\n")
    assert not out.exists()
