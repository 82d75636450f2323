"""Start-up loads only what a command runs: the package serves its public
names on first use, and the CLI imports the library inside each command."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import fuzzball

# runs ``python -m fuzzball ARG...`` in process, then reports the exit code
# and the loaded modules on the last line of stderr
_DRIVER = """
import json, runpy, sys
sys.argv = ["fuzzball", *sys.argv[1:]]
code = 0
try:
    runpy.run_module("fuzzball", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(json.dumps({"code": code, "modules": sorted(sys.modules)}), file=sys.stderr)
"""


def loaded(tmp_path, *args):
    """(exit code, loaded module names) of one ``fuzzball ARG...`` run."""
    src = os.path.dirname(os.path.dirname(fuzzball.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", _DRIVER, *args],
        capture_output=True, text=True, cwd=tmp_path, env=env, timeout=120,
    )
    last = json.loads(proc.stderr.strip().splitlines()[-1])
    return last["code"], set(last["modules"])


@pytest.mark.parametrize(
    "args, code",
    [
        (["--help"], 0),
        (["verify", "--help"], 0),
        (["verify", "--suite", "nope"], 2),
        (["gen"], 2),
    ],
)
def test_help_and_usage_errors_load_no_library(tmp_path, args, code):
    exit_code, modules = loaded(tmp_path, *args)
    assert exit_code == code
    assert not {m for m in modules if m == "numpy" or m.startswith("numpy.")}
    assert {m for m in modules if m.startswith("fuzzball.")} == {"fuzzball.cli"}


@pytest.mark.parametrize(
    "args",
    [
        ["gen", "grvv", "--n", "16", "--out", "g.json"],
        ["verify", "--suite", "u2", "--n-list", "2", "--out", "r.json"],
    ],
)
def test_commands_load_only_the_modules_they_run(tmp_path, args):
    exit_code, modules = loaded(tmp_path, *args)
    assert exit_code == 0
    unused = {
        f"fuzzball.{m}" for m in ("geometry", "harmonics", "spectra", "equivalence", "superalg")
    }
    assert "fuzzball.grvv" in modules and not modules & unused


@pytest.mark.parametrize(
    "args",
    [
        ["spectrum", "laplacian", "--n", "4", "--out", "s.csv"],
        ["converge", "commutator", "--n-list", "4,8", "--out", "c.csv"],
    ],
)
def test_spectra_commands_load_no_geometry(tmp_path, args):
    exit_code, modules = loaded(tmp_path, *args)
    assert exit_code == 0
    assert "fuzzball.spectra" in modules and "fuzzball.geometry" not in modules


def test_package_names_resolve_to_their_submodule_objects():
    assert fuzzball.__all__ and len(set(fuzzball.__all__)) == len(fuzzball.__all__)
    for name in fuzzball.__all__:
        module = importlib.import_module(f"fuzzball.{fuzzball._SOURCES[name]}")
        obj = getattr(fuzzball, name)
        assert obj is getattr(module, name)
        # the table names the submodule that defines it
        assert obj.__module__ == module.__name__, name
    names = {}
    exec("from fuzzball import *", names)
    assert all(names[name] is getattr(fuzzball, name) for name in fuzzball.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        fuzzball.no_such_name
