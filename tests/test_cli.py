"""CLI surface: outputs, exit codes, deterministic files."""

import json
import subprocess
import sys

import pytest

from codebounds import cli, codes, jsonutil, pfender
from codebounds.errors import TheoremViolationError


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

    def test_expand_does_not_import_scipy(self):
        # importing scipy.linalg is about 0.3 s of a cold start
        script = (
            "import sys; from codebounds.cli import main; "
            "main(['gegenbauer', 'expand', '--dim', '3', '--expand', '0,0,1']); "
            "print('scipy' in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True
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
        assert data["kind"] == "dgs"
        assert data["bound_int"] == 240
        assert data["verification"]["passed"] is True

    def test_no_certificate_exits_1(self):
        code, _, err = run_cli(
            "bound", "lp", "--dim", "5", "--cos-theta", "0.5", "--degree", "0"
        )
        assert code == 1
        assert "no certificate" in err

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

    def test_malformed_json_exits_2_with_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"kind": "spherical", ')
        code, _, err = run_cli("code", "verify", "--file", str(path))
        assert code == 2
        assert "line 1" in err

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
        code, _, _ = run_cli(
            "code", "gen", "--family", "leech", "--out", str(tmp_path / "x.json")
        )
        assert code == 2

    def test_verify_metric_code_file(self, tmp_path):
        from codebounds import codes as codes_mod

        metric = codes_mod.embed_as_metric_code(codes_mod.generate("simplex", dim=3))
        path = tmp_path / "metric.json"
        jsonutil.dump_path(str(path), codes_mod.code_to_json_dict(metric))
        code, out, _ = run_cli("code", "verify", "--file", str(path))
        assert code == 0
        assert "valid=yes" in out
