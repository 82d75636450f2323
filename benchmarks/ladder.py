"""
Per-kernel timing ladder for the spin-map kernels of ``fuzzball.su2rep``, the
harmonics and spectra kernels, and the JSON writer of ``fuzzball gen``.

    python3 benchmarks/ladder.py --label change --out benchmarks/ladder.json
    python3 benchmarks/ladder.py --label parent --src ../parent/src --out benchmarks/ladder.json

Times ``bilinears`` and the four residual evaluators (``u2_structure_residual``,
``su2_closure_residual`` on J, ``doublet_covariance_residual`` and
``intertwiner_residual``) on the ground-state doublet and on a gauge-dressed
copy of it (``fuzzball.cli._dressed``, the dressing ``verify`` checks), for
N in ``SIZES``.  The ``gen_grvv_dressed`` rung runs the CLI in process,
``main(["gen", "grvv", "--n", N, "--dress", SEED, "--out", <temp file>])``:
building, dressing and writing the doublet; ``tracemalloc_peak_mb`` is the
traced peak (MiB) of one more call, made apart from the timed ones.  Each
entry is the median of ``REPEATS`` calls with its quartiles (``q1_s``,
``q3_s``: run-to-run spread); ``n_exp`` is the least-squares slope of
log t against log N over the sizes from ``FIT_FROM`` on, below which call
overhead dominates.  The evaluators are handed precomputed bilinears, so
their times exclude ``bilinears``.  The ``build_basis``,
``fuzzy_laplacian_spectrum`` and ``scalar_kinetic_spectrum`` rungs call the
kernel on ``irrep(N)`` for N in ``SPECTRA_SIZES``; a size the measured tree
refuses (``ValueError``, as a size cap raises) is recorded as null, with the
message under ``refused``.

``fuzzball`` is imported from ``--src`` (default: this checkout's ``src``),
so two checkouts can be measured into one file on the same machine.  The run
is stored under ``runs[label]`` with the environment block of
``perfbench/run.py`` (cores, BLAS and its threads, numpy), whose
``git_commit`` names the measured ``--src``; runs under other labels
already in the file are kept.
"""

import argparse
import json
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
REPEATS = 7
SEED = 0
FIT_FROM = 64

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


def kernels():
    from fuzzball.su2rep import (
        bilinears,
        doublet_covariance_residual,
        intertwiner_residual,
        su2_closure_residual,
        u2_structure_residual,
    )

    return {
        "bilinears": lambda sol, b: bilinears(sol),
        "u2_structure_residual": lambda sol, b: u2_structure_residual(b),
        "su2_closure_residual": lambda sol, b: su2_closure_residual(b.j),
        "doublet_covariance_residual": lambda sol, b: doublet_covariance_residual(sol, b),
        "intertwiner_residual": lambda sol, b: intertwiner_residual(sol, b),
    }


def doublets(n):
    """The ground state of size n and the dressed copy ``verify`` checks."""
    from fuzzball.cli import _dressed
    from fuzzball.grvv import ground_state

    return {"plain": ground_state(n), "dressed": _dressed(n, SEED)}


def exponent(sizes, seconds):
    pts = [(n, t) for n, t in zip(sizes, seconds) if n >= FIT_FROM and t]
    if len(pts) < 2:
        return None
    x, y = np.log([p[0] for p in pts]), np.log([p[1] for p in pts])
    return float(np.polyfit(x, y, 1)[0])


def timed(fn):
    """(q1, median, q3) seconds of REPEATS calls of fn after one warm-up
    call (first-touch allocation)."""
    fn()
    ts = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        ts.append(time.perf_counter() - t0)
    return statistics.quantiles(ts, n=4)


def row(stats, sizes=SIZES):
    """Ladder row of per-size (q1, median, q3) triples."""
    q1, med, q3 = (dict(zip(map(str, sizes), col)) for col in zip(*stats))
    return {"median_s": med, "q1_s": q1, "q3_s": q3,
            "n_exp": exponent(sizes, list(med.values()))}


def irrep_rows():
    """Rows of the harmonics and spectra kernels on ``irrep(N)``, N in
    SPECTRA_SIZES; a refused size reads (None, None, None)."""
    from fuzzball.harmonics import build_basis
    from fuzzball.spectra import fuzzy_laplacian_spectrum, scalar_kinetic_spectrum
    from fuzzball.su2rep import irrep

    out = {}
    for fn in (build_basis, fuzzy_laplacian_spectrum, scalar_kinetic_spectrum):
        stats, refused = [], {}
        for n in SPECTRA_SIZES:
            rep = irrep(n)
            try:
                stats.append(timed(lambda: fn(rep)))
            except ValueError as exc:
                stats.append((None, None, None))
                refused[str(n)] = str(exc)
        out[fn.__name__] = {"irrep": dict(row(stats, SPECTRA_SIZES), refused=refused)}
        print(f"{fn.__name__} done", file=sys.stderr)
    return out


def gen_grvv_dressed(tmp):
    """Row of the in-process ``gen grvv --n N --dress SEED`` rung."""
    from fuzzball.cli import main

    out = os.path.join(tmp, "gen.json")
    stats, peaks = [], {}
    for n in SIZES:
        argv = ["gen", "grvv", "--n", str(n), "--dress", str(SEED), "--out", out]
        stats.append(timed(lambda: main(argv)))
        tracemalloc.start()
        try:
            main(argv)
            peaks[str(n)] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
    return dict(row(stats), tracemalloc_peak_mb=peaks)


def measure():
    from fuzzball.su2rep import bilinears

    table = kernels()
    stats = {k: {"plain": [], "dressed": []} for k in table}
    # the BLAS starts its threads on the first large product: not timed
    warm = np.ones((256, 256), dtype=complex)
    for _ in range(10):
        warm @ warm
    for n in SIZES:
        for kind, sol in doublets(n).items():
            b = bilinears(sol)
            for name, fn in table.items():
                stats[name][kind].append(timed(lambda: fn(sol, b)))
        print(f"n={n} done", file=sys.stderr)
    results = {name: {kind: row(s) for kind, s in per.items()} for name, per in stats.items()}
    with tempfile.TemporaryDirectory() as tmp:
        results["gen_grvv_dressed"] = {"cli": gen_grvv_dressed(tmp)}
    print("gen_grvv_dressed done", file=sys.stderr)
    results.update(irrep_rows())
    return results


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True, help="key of this run in the output file")
    ap.add_argument("--out", required=True, help="JSON file to create or update")
    ap.add_argument("--src", default=DEFAULT_SRC, help="directory holding the fuzzball package")
    args = ap.parse_args(argv)
    src = os.path.abspath(args.src)
    sys.path.insert(0, src)

    t0 = time.perf_counter()
    results = measure()
    env = environment(argparse.Namespace(seed=SEED))
    env["git_commit"] = _git_commit(src)
    run = {
        "env": env,
        "sizes": SIZES,
        "spectra_sizes": SPECTRA_SIZES,
        "repeats": REPEATS,
        "fit_from": FIT_FROM,
        "seconds": round(time.perf_counter() - t0, 3),
        "kernels": results,
    }
    doc = {"schema": 1, "runs": {}}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    doc["runs"][args.label] = run
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for name, per in results.items():
        for kind, r in per.items():
            total = sum(t for t in r["median_s"].values() if t is not None)
            exp = r["n_exp"]
            print(f"{name:28s} {kind:8s} sum {total:8.4f} s  "
                  f"n_exp {'-' if exp is None else f'{exp:.2f}'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
