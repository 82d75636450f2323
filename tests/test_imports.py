"""Start-up loads only what a command runs: the package serves its public
names on first use, and the CLI imports the library inside each command.
Every library function and class is reached from a command, a frozen
acceptance test, a demo or a benchmark."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

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


# the entry points whose names reach library code
_ROOTS = (
    "src/fuzzball/cli.py",
    "tests/test_acceptance.py",
    "demos/*.py",
    "perfbench/*.py",
    "benchmarks/ladder.py",
)
# top-level library names that no entry point reaches, kept on purpose: the
# classical spinor and vector references held for the bifundamental Laplacian
# and Dirac rows, and the PEP 562 hook, which Python calls without naming it
_UNREACHED = {
    "spherical_spinor",
    "_cg_half",
    "vector_harmonics",
    "spinorial_harmonic",
    "symbol_map",
    "__getattr__",
}


def _names(node):
    """Every name a syntax tree reads: variables, attributes and the names
    it imports."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.rpartition(".")[2])
    return names


def test_every_library_function_is_reached():
    """Names are matched, not bindings, so this can miss dead code (a name
    that some reached code reads for another object) but never invents it."""
    repo = Path(fuzzball.__file__).resolve().parents[2]
    defs, reached = {}, set()
    for path in sorted(Path(fuzzball.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append(node)
            else:
                reached |= _names(node)  # module-level code runs on import
    for pattern in _ROOTS:
        paths = sorted(repo.glob(pattern))
        assert paths, pattern
        for path in paths:
            reached |= _names(ast.parse(path.read_text()))
    frontier = reached & defs.keys()
    while frontier:
        name = frontier.pop()
        new = set().union(*map(_names, defs[name])) - reached
        reached |= new
        frontier |= new & defs.keys()
    unreached = defs.keys() - reached
    assert not unreached - _UNREACHED, f"reached by nothing: {sorted(unreached - _UNREACHED)}"
    # an exception that is reached again, or gone, leaves the list
    assert not _UNREACHED - unreached, f"no longer unreached: {sorted(_UNREACHED - unreached)}"
