"""
Per-kernel timing ladder for the spin-map kernels of ``fuzzball.su2rep``, the
harmonics and spectra kernels, the graded-closure calibration, and the bulk
writers of the CLI.

    python3 benchmarks/ladder.py --label change --out benchmarks/ladder.json
    python3 benchmarks/ladder.py --label parent --src ../parent/src \\
        --label change --src src --out benchmarks/ladder.json
    python3 benchmarks/ladder.py --label change --rung build_basis \\
        --rung decompose_bifundamental --out benchmarks/ladder.json
    python3 benchmarks/ladder.py --label parent --src ../parent/src \\
        --label change --src src --label parent_control --src ../parent/src \\
        --rung superalgebra --out benchmarks/BENCH_19.json

Times ``bilinears`` and the four residual evaluators (``u2_structure_residual``,
``su2_closure_residual`` on J, ``doublet_covariance_residual`` and
``intertwiner_residual``) on the ground-state doublet and on a gauge-dressed
copy of it (``fuzzball.cli._dressed``, the dressing ``verify`` checks), for
N in ``SIZES``.  The ``gen_grvv_dressed`` rung runs the CLI in process,
``main(["gen", "grvv", "--n", N, "--dress", SEED, "--out", <temp file>])``:
building, dressing and writing the doublet; ``tracemalloc_peak_mb`` is the
traced peak (MiB) of one more call, made apart from the timed ones.  The
``grid_csv`` rung times ``cli._write_grid_csv`` of ``geometry.grid_report``
at the grids in ``GRID_SIZES`` (the report is computed once, untimed), and
the ``geometry_grid`` rung times ``geometry.grid_report`` followed by
``geometry.identification_check`` (n = 2) at the same grids
(``report_and_check``), and each of the three grid passes on its own
(``grid_report``, ``identification_check``, ``s_unitarity``).  The
``build_basis``, ``fuzzy_laplacian_spectrum`` and ``scalar_kinetic_spectrum``
rungs call the kernel on ``irrep(N)`` for N in ``SPECTRA_SIZES``; a size the
measured tree refuses (``ValueError``, as a size cap raises) is recorded as
null, with the message under ``refused``.  The ``decompose_bifundamental``
rung fits one fixed random fluctuation pair on the undressed ground state for
N in ``DECOMPOSE_SIZES``, with the basis built once outside the timed calls
(as ``verify`` passes it); the ``weight_frame`` rung times
``su2rep.weight_frame`` of ``irrep(N)`` under one fixed random rotation for N
in ``SIZES``; the ``round_trip`` rung times ``equivalence.round_trip`` of
``irrep(N)`` (``rep``) and of ``ground_state(N)`` (``sol``), the two calls
of ``verify --suite equivalence``, for N in ``SIZES``; the ``canonicalize``
rung times ``equivalence.canonicalize`` of the representation of the
dressed ground state (``cli._dressed``, via ``grvv_to_su2``, untimed) for N
in ``SIZES``.  The ``superalgebra`` rung times ``superalg.calibrate`` of
``ground_state(N)`` (untimed) without a tolerance, the call of ``verify
--suite superalgebra``, for N in ``SIZES``, with the ``tracemalloc_peak_mb``
of one more call as for ``gen_grvv_dressed``.  The ``startup`` rung times
whole fresh ``python -m fuzzball``
processes, one per call, for each command of ``STARTUP_COMMANDS`` (its
sizes): ``--help`` and three small commands, whose time is mostly
interpreter start-up and imports.  ``--rung`` (repeatable) measures only the
named rungs.

Each (rung, size) is measured in fresh child processes, one per tree and
round: ``ROUNDS`` rounds with the trees in the order given, so two trees run
A B A B and host drift falls on both alike.  A child makes one warm-up call
(first-touch allocation) and ``REPEATS`` timed calls; each entry is the
median of a tree's ``ROUNDS * REPEATS`` calls with its quartiles (``q1_s``,
``q3_s``).  ``n_exp`` is the least-squares slope of log t against log N (grid
points for ``grid_csv``) over the sizes from ``FIT_FROM`` on, below which
call overhead dominates.  The evaluators are handed precomputed bilinears,
so their times exclude ``bilinears``.

``fuzzball`` is imported from each ``--src`` (default: this checkout's
``src``), paired in order with the ``--label`` options.  One tree may be
given twice under two labels: the two runs are an A/A control, whose
difference is the ladder's own noise.  Each tree's run is
stored under ``runs[label]`` with the environment block of
``perfbench/run.py`` (cores, BLAS and its threads, numpy), whose
``git_commit`` names the measured ``--src``; runs under other labels
already in the file are kept.
"""

import argparse
import importlib.util
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_SRC = os.path.join(ROOT, "src")
SIZES = [16, 32, 64, 128, 256, 512]
SPECTRA_SIZES = [16, 32, 64, 128, 256]
DECOMPOSE_SIZES = [16, 32, 64, 128, 256]
GRID_SIZES = ["64x128", "128x256", "256x512"]
ROUNDS = 2
REPEATS = 4
SEED = 0
FIT_FROM = 64
# label -> argv of each ``startup`` spawn
STARTUP_COMMANDS = {
    "help": ["--help"],
    "gen_grvv_16": ["gen", "grvv", "--n", "16"],
    "verify_u2_2": ["verify", "--suite", "u2", "--n-list", "2"],
    "spectrum_laplacian_8": ["spectrum", "laplacian", "--n", "8"],
}

sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from run import environment  # noqa: E402  (the CLI benchmark's environment block)


def _git_commit(path):
    """HEAD of the checkout holding ``path``, marked +dirty if files under
    ``path`` differ from it."""
    try:
        out = subprocess.run(["git", "-C", path, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", path, "status", "--porcelain", "--", "."],
                               capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None
    return out + ("+dirty" if dirty else "")


def timed(fn):
    """Seconds of REPEATS calls of fn after one warm-up call."""
    fn()
    ts = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        ts.append(time.perf_counter() - t0)
    return ts


# ---------------------------------------------------------------------------
# rungs: each measures one size in the child process, returning
# ({kernel: {kind: [seconds]}}, extras)


def spin_maps(n):
    from fuzzball.cli import _dressed
    from fuzzball.grvv import ground_state
    from fuzzball.su2rep import (
        bilinears,
        doublet_covariance_residual,
        intertwiner_residual,
        su2_closure_residual,
        u2_structure_residual,
    )

    table = {
        "bilinears": lambda sol, b: bilinears(sol),
        "u2_structure_residual": lambda sol, b: u2_structure_residual(b),
        "su2_closure_residual": lambda sol, b: su2_closure_residual(b.j),
        "doublet_covariance_residual": lambda sol, b: doublet_covariance_residual(sol, b),
        "intertwiner_residual": lambda sol, b: intertwiner_residual(sol, b),
    }
    # the BLAS starts its threads on the first large product: not timed
    warm = np.ones((256, 256), dtype=complex)
    for _ in range(10):
        warm @ warm
    samples = {name: {} for name in table}
    # the ground state of size n and the dressed copy verify checks
    for kind, sol in {"plain": ground_state(n), "dressed": _dressed(n, SEED)}.items():
        b = bilinears(sol)
        for name, fn in table.items():
            samples[name][kind] = timed(lambda: fn(sol, b))
    return samples, {}


def traced_peak_mb(fn):
    """tracemalloc peak (MiB) of one call of fn, made apart from the timed ones."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def gen_grvv_dressed(n):
    from fuzzball.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        argv = ["gen", "grvv", "--n", str(n), "--dress", str(SEED),
                "--out", os.path.join(tmp, "gen.json")]
        ts = timed(lambda: main(argv))
        peak = traced_peak_mb(lambda: main(argv))
    return {"gen_grvv_dressed": {"cli": ts}}, {"tracemalloc_peak_mb": peak}


def superalgebra(n):
    from fuzzball.grvv import ground_state
    from fuzzball.superalg import calibrate

    sol = ground_state(n)
    # no tolerance, as verify calls it: the closure misses 1e-10 from N = 256
    ts = timed(lambda: calibrate(sol, tol=math.inf))
    peak = traced_peak_mb(lambda: calibrate(sol, tol=math.inf))
    return {"calibrate": {"ground": ts}}, {"tracemalloc_peak_mb": peak}


def grid_csv(size):
    from fuzzball import geometry
    from fuzzball.cli import _write_grid_csv

    grid = geometry.SphereGrid.make(*map(int, size.split("x")))
    residuals = geometry.grid_report(grid)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "grid.csv")
        ts = timed(lambda: _write_grid_csv(path, grid, residuals))
    return {"grid_csv": {"write": ts}}, {}


def geometry_grid(size):
    from fuzzball import geometry

    grid = geometry.SphereGrid.make(*map(int, size.split("x")))

    def both():
        geometry.grid_report(grid)
        geometry.identification_check(2, grid)

    return {"geometry_grid": {
        "report_and_check": timed(both),
        "grid_report": timed(lambda: geometry.grid_report(grid)),
        "identification_check": timed(lambda: geometry.identification_check(2, grid)),
        "s_unitarity": timed(lambda: geometry.s_unitarity(grid)),
    }}, {}


def irrep_kernel(name):
    def rung(n):
        from fuzzball import harmonics, spectra
        from fuzzball.su2rep import irrep

        fn = getattr(harmonics if name == "build_basis" else spectra, name)
        rep = irrep(n)
        try:
            return {name: {"irrep": timed(lambda: fn(rep))}}, {}
        except ValueError as exc:
            return {name: {"irrep": None}}, {"refused": str(exc)}

    return rung


def decompose(n):
    from fuzzball.grvv import ground_state
    from fuzzball.harmonics import _default_basis, decompose_bifundamental

    sol = ground_state(n)
    basis = _default_basis(sol)
    rng = np.random.default_rng(SEED)
    r1, r2 = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for _ in range(2))
    ts = timed(lambda: decompose_bifundamental(r1, r2, sol, basis=basis))
    return {"decompose_bifundamental": {"ground": ts}}, {}


def frame(n):
    from fuzzball.matcore import dagger, random_unitary
    from fuzzball.su2rep import Su2Representation, irrep, weight_frame

    u = random_unitary(n, np.random.default_rng(SEED))
    rep = Su2Representation(*(u @ g @ dagger(u) for g in irrep(n).generators), partition=(n,))
    return {"weight_frame": {"rotated": timed(lambda: weight_frame(rep))}}, {}


def equivalence_round_trip(n):
    from fuzzball.equivalence import round_trip
    from fuzzball.grvv import ground_state
    from fuzzball.su2rep import irrep

    rep, sol = irrep(n), ground_state(n)
    return {"round_trip": {"rep": timed(lambda: round_trip(rep)),
                           "sol": timed(lambda: round_trip(sol))}}, {}


def canonicalize(n):
    from fuzzball.cli import _dressed
    from fuzzball.equivalence import canonicalize, grvv_to_su2

    rep = grvv_to_su2(_dressed(n, SEED))[0]
    return {"canonicalize": {"dressed": timed(lambda: canonicalize(rep))}}, {}


def startup(command):
    # the tree this child imports fuzzball from, found without importing it
    src = os.path.dirname(os.path.dirname(importlib.util.find_spec("fuzzball").origin))
    env = dict(os.environ, PYTHONPATH=src)
    argv = [sys.executable, "-m", "fuzzball", *STARTUP_COMMANDS[command]]
    ts = timed(lambda: subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, check=True))
    return {"startup": {"spawn": ts}}, {}


def _points(size):
    nt, nphi = map(int, size.split("x"))
    return nt * nphi


# rung: (function, sizes, x of each size in the exponent fit)
RUNGS = {
    "spin_maps": (spin_maps, SIZES, int),
    "gen_grvv_dressed": (gen_grvv_dressed, SIZES, int),
    "grid_csv": (grid_csv, GRID_SIZES, _points),
    "geometry_grid": (geometry_grid, GRID_SIZES, _points),
    **{
        name: (irrep_kernel(name), SPECTRA_SIZES, int)
        for name in ("build_basis", "fuzzy_laplacian_spectrum", "scalar_kinetic_spectrum")
    },
    "decompose_bifundamental": (decompose, DECOMPOSE_SIZES, int),
    "weight_frame": (frame, SIZES, int),
    "round_trip": (equivalence_round_trip, SIZES, int),
    "canonicalize": (canonicalize, SIZES, int),
    "superalgebra": (superalgebra, SIZES, int),
    # no size to fit an exponent against
    "startup": (startup, list(STARTUP_COMMANDS), lambda command: 0),
}


# ---------------------------------------------------------------------------
# the parent: children per (rung, size, round, tree) and the rows


def child(src, rung, size):
    """Run one (rung, size) on the tree at ``src`` in a fresh process."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", rung, str(size), "--src", src],
        capture_output=True, text=True,
    )
    if proc.returncode:
        sys.exit(f"{rung} {size} on {src} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def exponent(xs, seconds):
    pts = [(x, t) for x, t in zip(xs, seconds) if x >= FIT_FROM and t]
    if len(pts) < 2:
        return None
    x, y = np.log([p[0] for p in pts]), np.log([p[1] for p in pts])
    return float(np.polyfit(x, y, 1)[0])


def row(cells, sizes, xs):
    """Ladder row from {size: [seconds], or None if refused}."""
    q = {str(s): statistics.quantiles(cells[s], n=4) if cells[s] else (None,) * 3
         for s in sizes}
    med = {k: v[1] for k, v in q.items()}
    return {"median_s": med, "q1_s": {k: v[0] for k, v in q.items()},
            "q3_s": {k: v[2] for k, v in q.items()},
            "n_exp": exponent(xs, list(med.values()))}


def measure(trees, rungs):
    """{label: {kernel: {kind: row}}} over the named rungs for the (label,
    src) trees, alternating them per (rung, size) in ROUNDS rounds."""
    results = {label: {} for label, _ in trees}
    for rung in rungs:
        _, sizes, x_of = RUNGS[rung]
        samples = {label: {} for label, _ in trees}  # (kernel, kind) -> size -> seconds or None
        extras = {label: {} for label, _ in trees}  # extra -> size -> value
        for size in sizes:
            for _ in range(ROUNDS):
                for label, src in trees:
                    out = child(src, rung, size)
                    for name, kinds in out["samples"].items():
                        for kind, ts in kinds.items():
                            cells = samples[label].setdefault((name, kind), {})
                            have = cells.get(size, [])
                            cells[size] = None if ts is None or have is None else have + ts
                    for key, value in out["extras"].items():
                        extras[label].setdefault(key, {})[str(size)] = value
            print(f"{rung} {size} done", file=sys.stderr)
        xs = [x_of(s) for s in sizes]
        for label, _ in trees:
            for (name, kind), cells in samples[label].items():
                results[label].setdefault(name, {})[kind] = dict(row(cells, sizes, xs), **extras[label])
    return results


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", action="append", help="key of a tree's run in the output file")
    ap.add_argument("--out", help="JSON file to create or update")
    ap.add_argument("--src", action="append",
                    help="directory holding a fuzzball package, one per --label")
    ap.add_argument("--rung", action="append", choices=list(RUNGS),
                    help="measure only this rung (repeatable; default: all)")
    ap.add_argument("--child", nargs=2, metavar=("RUNG", "SIZE"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    srcs = [os.path.abspath(s) for s in (args.src or [DEFAULT_SRC])]

    if args.child:
        rung, size = args.child
        fn, sizes, _ = RUNGS[rung]
        sys.path.insert(0, srcs[0])
        samples, extras = fn(type(sizes[0])(size))
        json.dump({"samples": samples, "extras": extras}, sys.stdout)
        return 0

    if not args.label or not args.out or len(args.label) != len(srcs):
        ap.error("give --out and one --label per --src (or one --label for this checkout)")
    t0 = time.perf_counter()
    results = measure(list(zip(args.label, srcs)), args.rung or list(RUNGS))
    seconds = round(time.perf_counter() - t0, 3)
    doc = {"schema": 1, "runs": {}}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    for label, src in zip(args.label, srcs):
        env = environment(argparse.Namespace(seed=SEED))
        env["git_commit"] = _git_commit(src)
        doc["runs"][label] = {
            "env": env,
            "sizes": SIZES,
            "spectra_sizes": SPECTRA_SIZES,
            "grid_sizes": GRID_SIZES,
            "decompose_sizes": DECOMPOSE_SIZES,
            "startup_commands": STARTUP_COMMANDS,
            "rounds": ROUNDS,
            "repeats": REPEATS,
            "fit_from": FIT_FROM,
            "interleaved_with": [lb for lb in args.label if lb != label],
            "seconds": seconds,
            "kernels": results[label],
        }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for name, per in results[args.label[0]].items():
        for kind in per:
            sums = [sum(t for t in results[label][name][kind]["median_s"].values() if t is not None)
                    for label in args.label]
            print(f"{name:28s} {kind:8s} sum " + "  ".join(f"{t:8.4f} s" for t in sums))
    return 0


if __name__ == "__main__":
    sys.exit(main())
