"""The package namespace resolves lazily, and each CLI command imports
only the modules it runs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import codebounds
from codebounds import codes, jsonutil, pfender

ROOT = Path(__file__).resolve().parents[1]


def loaded_after(script, cwd):
    """The ``codebounds.*`` modules in sys.modules once ``script`` has run
    in a fresh interpreter."""
    script += "\nprint(json.dumps([m for m in sys.modules if m[:11] == 'codebounds.']))"
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
         {"codes", "pfender", "dgs_bound", "linprog", "scanning"}),
        (["code", "verify", "--file", "e8.json", "--cos-theta", "0.5"],
         {"gegenbauer", "pfender", "dgs_bound", "linprog", "scanning"}),
        (["bound", "pfender", "--phi", "g1.json", "--c", "0.5", "--cos-theta", "-0.5"],
         {"dgs_bound", "linprog"}),
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
