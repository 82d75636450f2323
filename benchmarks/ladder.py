"""
Per-kernel timing ladder for the spin-map kernels of ``fuzzball.su2rep``.

    python3 benchmarks/ladder.py --label change --out benchmarks/ladder.json
    python3 benchmarks/ladder.py --label parent --src ../parent/src --out benchmarks/ladder.json

Times ``bilinears`` and the four residual evaluators (``u2_structure_residual``,
``su2_closure_residual`` on J, ``doublet_covariance_residual`` and
``intertwiner_residual``) on the ground-state doublet and on a gauge-dressed
copy of it (``fuzzball.cli._dressed``, the dressing ``verify`` checks), for
N in ``SIZES``.  Each entry is the median of ``REPEATS`` calls; ``n_exp`` is
the least-squares slope of log t against log N over the sizes from
``FIT_FROM`` on, below which call overhead dominates.  The evaluators are
handed precomputed bilinears, so their times exclude ``bilinears``.

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
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_SRC = os.path.join(ROOT, "src")
SIZES = [16, 32, 64, 128, 256, 512]
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
    pts = [(n, t) for n, t in zip(sizes, seconds) if n >= FIT_FROM and t > 0]
    if len(pts) < 2:
        return None
    x, y = np.log([p[0] for p in pts]), np.log([p[1] for p in pts])
    return float(np.polyfit(x, y, 1)[0])


def measure():
    from fuzzball.su2rep import bilinears

    table = kernels()
    times = {k: {"plain": [], "dressed": []} for k in table}
    # the BLAS starts its threads on the first large product: not timed
    warm = np.ones((256, 256), dtype=complex)
    for _ in range(10):
        warm @ warm
    for n in SIZES:
        for kind, sol in doublets(n).items():
            b = bilinears(sol)
            for name, fn in table.items():
                fn(sol, b)  # warm-up: first-touch allocation
                ts = []
                for _ in range(REPEATS):
                    t0 = time.perf_counter()
                    fn(sol, b)
                    ts.append(time.perf_counter() - t0)
                times[name][kind].append(statistics.median(ts))
        print(f"n={n} done", file=sys.stderr)
    return {
        name: {
            kind: {
                "median_s": dict(zip(map(str, SIZES), secs)),
                "n_exp": exponent(SIZES, secs),
            }
            for kind, secs in per.items()
        }
        for name, per in times.items()
    }


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
        for kind, row in per.items():
            total = sum(row["median_s"].values())
            exp = row["n_exp"]
            print(f"{name:28s} {kind:8s} sum {total:8.4f} s  "
                  f"n_exp {'-' if exp is None else f'{exp:.2f}'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
