"""The package namespace resolves lazily, and each CLI command imports
only the modules it runs."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import codebounds
from codebounds import cli, codes, jsonutil, pfender
from codebounds.gegenbauer import expand_in_basis, gegenbauer_eval

ROOT = Path(__file__).resolve().parents[1]


def loaded_after(script, cwd, package="codebounds"):
    """The ``package.*`` modules in sys.modules once ``script`` has run in
    a fresh interpreter, each without the ``package.`` prefix."""
    prefix = package + "."
    script += (
        f"\nprint(json.dumps([m for m in sys.modules if m.startswith({prefix!r})]))"
    )
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys\n" + script], capture_output=True,
        text=True, check=True, cwd=cwd, env={**os.environ, "PYTHONPATH": path},
    )
    return {name.split(".", 1)[1] for name in json.loads(proc.stdout.splitlines()[-1])}


def test_importing_the_package_loads_no_module(tmp_path):
    assert loaded_after("import codebounds", tmp_path) == set()


@pytest.mark.parametrize(
    "argv, unused",
    [
        (["gegenbauer", "eval", "--dim", "3", "--degree", "2", "--at", "0.5"],
         {"gegenbauer", "codes", "pfender", "dgs_bound", "linprog", "scanning"}),
        (["code", "verify", "--file", "e8.json", "--cos-theta", "0.5"],
         {"gegenbauer", "pfender", "dgs_bound", "linprog", "scanning"}),
        (["bound", "pfender", "--phi", "g1.json", "--c", "0.5", "--cos-theta", "-0.5"],
         {"codes", "dgs_bound", "linprog"}),
        (["bound", "lp", "--dim", "3", "--cos-theta", "0.5", "--degree", "6"],
         {"codes"}),
    ],
    ids=lambda v: " ".join(v[:2]) if isinstance(v, list) else None,
)
def test_a_command_imports_only_what_it_runs(tmp_path, argv, unused):
    jsonutil.dump_path(
        str(tmp_path / "e8.json"), codes.code_to_json_dict(codes.generate("e8_roots"))
    )
    jsonutil.dump_path(
        str(tmp_path / "g1.json"),
        pfender.phi_to_json_dict(pfender.PhiSpec("gegenbauer", [0.0, 1.0], dim=3)),
    )
    script = f"from codebounds import cli\nassert cli.main({argv!r}) == 0"
    loaded = loaded_after(script, tmp_path)
    assert "cli" in loaded
    assert not loaded & unused, sorted(loaded & unused)


GEN_DIMS = {"simplex": 5, "orthonormal": 4, "cross_polytope": 3}


@pytest.mark.parametrize(
    "argv, exit_code, stderr",
    [
        (["gegenbauer", "eval", "--dim", "3", "--degree", "2", "--at", "0.5"], 0, ""),
        (["bound", "lp", "--dim", "3", "--cos-theta", "0.5", "--degree", "41"], 2,
         "error: degree is capped at 40\n"),
        (["bound", "lp", "--dim", "1", "--cos-theta", "0.5", "--degree", "6"], 2,
         "error: dimension must be an integer >= 2, got 1\n"),
        (["bound", "lp", "--dim", str(10**400), "--cos-theta", "0.5", "--degree", "3"],
         2, "error: dimension must be at most 1.7976931348623157e+308, got an integer "
         "of 1329 bits\n"),
        (["bound", "lp", "--dim", "3", "--cos-theta", "1.0", "--degree", "6"], 2,
         "error: cos_theta must lie in [-1, 1), got 1.0\n"),
        (["gegenbauer", "expand", "--dim", "3", "--expand", "0,0,1"], 0, ""),
        (["gegenbauer", "expand", "--dim", "1", "--expand", "0,0,1"], 2,
         "error: dimension must be an integer >= 2, got 1\n"),
        (["gegenbauer", "expand", "--dim", "3", "--expand", ",".join(["1"] * 42)], 2,
         "error: monomial tables are capped at degree 40\n"),
        *[
            (["code", "gen", "--family", family, "--out", "gen.json"]
             + (["--dim", str(GEN_DIMS[family])] if family in GEN_DIMS else []), 0, "")
            for family in codes.FAMILIES
        ],
        (["code", "gen", "--family", "leech", "--out", "gen.json"], 2,
         f"error: unknown family 'leech'; choose from {codes.FAMILIES}\n"),
        (["code", "gen", "--family", "e8_roots", "--dim", "5", "--out", "gen.json"], 2,
         "error: e8_roots has dimension 8, got dimension 5\n"),
    ],
    ids=["eval", "lp-degree", "lp-dim", "lp-huge-dim", "lp-cos-theta", "expand", "expand-dim",
         "expand-degree", *[f"gen-{family}" for family in codes.FAMILIES],
         "gen-leech", "gen-e8-dim"],
)
def test_a_scalar_command_loads_no_numpy(tmp_path, argv, exit_code, stderr):
    # its arguments are checked, and its values computed, in plain Python
    script = (
        "import contextlib, io\nfrom codebounds import cli\nerr = io.StringIO()\n"
        f"with contextlib.redirect_stderr(err):\n    code = cli.main({argv!r})\n"
        f"assert (code, err.getvalue()) == ({exit_code}, {stderr!r}), err.getvalue()"
    )
    # a loaded numpy would show as numpy.* submodules
    assert loaded_after(script, tmp_path, "numpy") == set()


@pytest.mark.parametrize(
    "dim, degree, at",
    [(3, 2, math.nan), (3, 2, math.inf), (3, 2, 2.0), (3, -1, 0.5), (1, 2, 0.5),
     (1, -1, math.nan)],
)
def test_a_scalar_eval_fails_as_the_library_does(capsys, dim, degree, at):
    with pytest.raises(ValueError) as raised:
        gegenbauer_eval(dim, degree, at)
    argv = ["--dim", str(dim), "--degree", str(degree), "--at", str(at)]
    assert cli.main(["gegenbauer", "eval", *argv]) == 2
    assert capsys.readouterr() == ("", f"error: {raised.value}\n")


@pytest.mark.parametrize(
    "dim, mono",
    [(1, "0,0,1"), (3, ",".join(["1"] * 42)), (3, "1,nan"), (3, "1,-inf"),
     (2, ",".join(["1e308"] * 41))],
    ids=["dim", "degree", "nan", "inf", "overflow"],
)
def test_a_scalar_expand_fails_as_the_library_does(capsys, dim, mono):
    values = [float(v) for v in mono.split(",")]
    with pytest.raises(ValueError) as raised:
        expand_in_basis(values, dim)
    assert cli.main(["gegenbauer", "expand", "--dim", str(dim), "--expand", mono]) == 2
    assert capsys.readouterr() == ("", f"error: {raised.value}\n")


def test_a_finite_set_check_loads_no_numpy_polynomial(tmp_path):
    # a monomial phi is evaluated by Horner's rule in pfender itself, so a
    # finite-set check, which never searches for critical points, needs
    # nothing from numpy.polynomial
    code = codes.euclidean_to_functional(codes.generate("orthonormal", dim=3))
    phi = pfender.PhiSpec("monomial", [-1.0 / 3.0, 0.0, 1.0])
    result = pfender.functional_pfender_check(code, phi, 1.0 / 3.0, variant="finite_set")
    assert result.applicable
    jsonutil.dump_path(str(tmp_path / "code.json"), codes.code_to_json_dict(code))
    jsonutil.dump_path(
        str(tmp_path / "cert.json"), pfender.certificate_to_json_dict(result.certificate)
    )
    argv = ["code", "check-theorem", "--file", "code.json", "--cert", "cert.json"]
    script = f"from codebounds import cli\nassert cli.main({argv!r}) == 0"
    assert "polynomial" not in loaded_after(script, tmp_path, "numpy")


@pytest.mark.parametrize("name", [n for n in codebounds.__all__ if n != "__version__"])
def test_every_public_name_is_its_home_modules_object(name):
    value = getattr(codebounds, name)
    assert value.__module__.startswith("codebounds.")
    assert getattr(sys.modules[value.__module__], name) is value


def test_star_import_gives_every_public_name():
    namespace = {}
    exec("from codebounds import *", namespace)
    assert set(codebounds.__all__) <= set(namespace)
    assert namespace["lp_bound"] is codebounds.dgs_bound.lp_bound


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'leech'"):
        codebounds.leech
    assert not hasattr(codebounds, "FAMILIES")
