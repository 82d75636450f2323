"""Start-up loads only what a command runs: the package serves its public
names on first use, and the CLI imports the library inside each command.
Every library function and class is reached from a command, a frozen
acceptance test, a demo or a benchmark, and every parameter default is
overridden by some caller there or in the library."""

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


_LIBRARY = "src/fuzzball/*.py"
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


def _parsed(patterns):
    """The syntax trees of the files that the glob patterns name in the
    repository; each pattern must name at least one."""
    repo = Path(fuzzball.__file__).resolve().parents[2]
    trees = []
    for pattern in patterns:
        paths = sorted(repo.glob(pattern))
        assert paths, pattern
        trees += [ast.parse(path.read_text()) for path in paths]
    return trees


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
    defs, reached = {}, set()
    for tree in _parsed([_LIBRARY]):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append(node)
            else:
                reached |= _names(node)  # module-level code runs on import
    for tree in _parsed(_ROOTS):
        reached |= _names(tree)
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


# defaults that no caller overrides, kept on purpose, with the reason
_UNSET = {
    "calibrate.scales": "the search grid that the tests score against the dense oracle",
    "dirac_square_check.fd_step": "the plain-difference refinement test sets it; it stays "
    "with the classical Dirac code until ROADMAP item 11",
}


def test_every_parameter_is_set_by_a_caller():
    """A default that no call overrides is a constant in disguise.  Calls
    from the library and the entry points count, other tests do not; a
    call passes a parameter by keyword, by position, or through ``*`` or
    ``**``.  Calls are matched by the called name, as above."""
    defaults = {}  # function -> [(parameter, its position or None)]
    for tree in _parsed([_LIBRARY]):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                keyword_only = zip(args.kwonlyargs, args.kw_defaults)
                defaults.setdefault(node.name, []).extend(
                    [(arg.arg, i) for i, arg in enumerate(positional) if i >= first]
                    + [(arg.arg, None) for arg, default in keyword_only if default is not None]
                )
    passed = set()
    for tree in _parsed((_LIBRARY, *_ROOTS[1:])):
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            keywords = {k.arg for k in call.keywords}  # None for **
            starred = any(isinstance(a, ast.Starred) for a in call.args)
            for param, i in defaults.get(name, ()):
                if param in keywords or None in keywords or (
                    i is not None and (starred or i < len(call.args))
                ):
                    passed.add(f"{name}.{param}")
    unset = {f"{name}.{param}" for name, params in defaults.items() for param, _ in params}
    unset -= passed
    assert not unset - _UNSET.keys(), f"set by no caller: {sorted(unset - _UNSET.keys())}"
    # an exception that a caller sets again, or that is gone, leaves the list
    assert not _UNSET.keys() - unset, f"no longer unset: {sorted(_UNSET.keys() - unset)}"
