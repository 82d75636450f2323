"""
The benchmark's workloads, the rows each ``verify`` call must report, and
the independent checks of every other output.

Every workload is a fixed list of CLI invocations built from the seed: the
seed feeds ``--dress``, ``--seed`` and the fluctuation matrices handed to
``decompose``.  Sizes the CLI refuses or skips before doing any work
(``harmonics`` above 16, ``equivalence`` at 128) are left out on purpose,
since timing a refusal would reward it.
"""

import csv
import json
import os
from dataclasses import dataclass, field

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))

PER_N_ROWS = {
    "grvv": ("grvv_residual", "sphere_left", "sphere_right"),
    "u2": ("u2_structure", "u2_structure_dressed"),
    "covariance": ("doublet_covariance", "doublet_covariance_dressed"),
    "intertwiner": ("intertwiner", "intertwiner_dressed"),
    "harmonics": ("gram", "adjoint_j3", "laplacian_spectrum", "bifundamental_reconstruction"),
    "superalgebra": ("osp_closure",),
    "equivalence": ("round_trip_rep", "round_trip_sol"),
}
GEOMETRY_FIXED_ROWS = (
    "hopf_section_roundtrip",
    "s_unitarity",
    "gamma3_relation",
    "killing_equation",
    "clifford_so5",
    "clifford_so9",
    "hopf_s4_norm",
    "hopf_s8_roundtrip",
)
GEOMETRY_SIZED_ROWS = (
    "identification_coordinate",
    "identification_local_phase",
    "identification_dx",
    "identification_order_b",
    "identification_order_c",
)
SUITE_ORDER = tuple(PER_N_ROWS) + ("geometry",)


def expected_rows(suite, n_list):
    """The (suite, name, n) rows ``verify --suite SUITE --n-list N_LIST`` reports."""
    suites = SUITE_ORDER if suite == "all" else (suite,)
    rows = []
    for s in suites:
        if s == "geometry":
            top = max(n_list)
            rows += [(s, name, 0) for name in GEOMETRY_FIXED_ROWS]
            rows += [(s, name, top) for name in GEOMETRY_SIZED_ROWS]
            continue
        for n in n_list:
            if s == "superalgebra" and n < 2:
                continue
            rows += [(s, name, n) for name in PER_N_ROWS[s]]
    return rows


def row_id(suite, name, n):
    return f"{suite}/{name}/{n}"


@dataclass
class Step:
    """One CLI invocation of a pass.

    ``label`` names the step in check ids; ``outputs`` are the files it
    writes besides stdout; ``rows`` the verify manifest (None for other
    subcommands); ``check`` maps the stdout path to a list of
    (check id, ok, detail) tuples.
    """

    label: str
    args: list
    outputs: list = field(default_factory=list)
    rows: list = None
    check: object = None

    @property
    def subcommand(self):
        return self.args[0]


def count_verify(rows, report, returncode, stderr):
    """Checks of one verify invocation against its manifest.

    Returns ``(attempted, failed ids)``.  The invocation itself is one check:
    it fails on exit 2 or any other code but 0/1, on a traceback, on an
    unreadable report and on a report with zero rows.  Each manifest row is
    one check that fails when the row is missing or does not pass.
    """
    got = {}
    if isinstance(report, dict):
        for r in report.get("results", []):
            got[(r.get("suite"), r.get("name"), r.get("n"))] = bool(r.get("pass"))
    failed = []
    if returncode not in (0, 1) or "Traceback" in stderr or not got:
        failed.append("exit")
    failed += [row_id(*key) for key in rows if not got.get(key, False)]
    return 1 + len(rows), failed


def count_command(returncode, stderr):
    """Any other subcommand: one check, exit 0 without a traceback."""
    ok = returncode == 0 and "Traceback" not in stderr
    return 1, ([] if ok else ["exit"])


# ---------------------------------------------------------------------------
# independent output checks (run outside the timed region)


def load_matrix(obj):
    # read the interchange format here, not with the library's own reader,
    # so that a writer/reader pair that agree on a wrong format is caught
    data = np.asarray(obj["data"], dtype=float).reshape(-1, 2)
    return (data[:, 0] + 1j * data[:, 1]).reshape(int(obj["rows"]), int(obj["cols"]))


def write_matrix(path, a):
    with open(path, "w") as fh:
        json.dump(
            {"rows": a.shape[0], "cols": a.shape[1],
             "data": [[float(z.real), float(z.imag)] for z in a.reshape(-1)]},
            fh,
        )


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def check_grvv_json(path, partition, dressed):
    """The doublet loads, solves the cubic equation to rounding relative to
    the N^2 scale, and keeps the ground state's singular values sqrt(0..n-1)
    per block."""
    with open(path) as fh:
        obj = json.load(fh)
    g = [load_matrix(obj["g1"]), load_matrix(obj["g2"])]
    n = g[0].shape[0]
    gd = [x.conj().T for x in g]
    right = gd[0] @ g[0] + gd[1] @ g[1]
    left = g[0] @ gd[0] + g[1] @ gd[1]
    res = max(np.linalg.norm(g[a] - (g[a] @ right - left @ g[a])) for a in range(2))
    ref = np.sort(np.concatenate([np.sqrt(np.arange(k)) for k in partition]))
    sv = max(
        float(np.max(np.abs(np.sort(np.linalg.svd(x, compute_uv=False)) - ref))) for x in g
    )
    meta = list(obj.get("partition", ())) == list(partition) and obj.get("dressed") == dressed
    return [
        ("meta", meta, f"partition={obj.get('partition')} dressed={obj.get('dressed')}"),
        ("cubic_residual", res / n**2 <= 1e-12, f"{res / n**2:.3e} of N^2"),
        ("singular_values", sv <= 1e-12 * n, f"{sv:.3e}"),
    ]


def check_gamma_json(path, dim, count):
    with open(path) as fh:
        obj = json.load(fh)
    gs = [load_matrix(m) for m in obj["matrices"]]
    worst = max(
        float(np.max(np.abs(a @ b + b @ a - 2.0 * (i == j) * np.eye(dim))))
        for i, a in enumerate(gs)
        for j, b in enumerate(gs)
    )
    ok = len(gs) == count and all(x.shape == (dim, dim) for x in gs) and worst <= 1e-12
    return [("clifford", ok, f"{len(gs)} matrices, worst {worst:.3e}")]


def check_laplacian_csv(path, n):
    """Groups 4l(l+1), each 2l+1 times, for l = 0..n-1."""
    rows = _read_csv(path)[1:]
    ok = len(rows) == n
    for l, row in zip(range(n), rows):
        ev = 4 * l * (l + 1)
        ok &= abs(float(row[0]) - ev) <= 1e-8 * max(1, ev) and int(row[1]) == 2 * l + 1
    return [("groups", ok, f"{len(rows)} groups")]


def check_kinetic_csv(path, n):
    """Multiplicities sum to 3N^2 and sum(eig * mult) equals the trace
    3 (N^2 + sum_l 4l(l+1)(2l+1)) of the kinetic operator."""
    rows = _read_csv(path)[1:]
    mult = sum(int(r[1]) for r in rows)
    trace = sum(float(r[0]) * int(r[1]) for r in rows)
    ref = 3 * (n * n + sum(4 * l * (l + 1) * (2 * l + 1) for l in range(n)))
    return [
        ("multiplicity", mult == 3 * n * n, f"{mult} vs {3 * n * n}"),
        ("trace", abs(trace - ref) <= 1e-9 * ref, f"{trace:.12g} vs {ref}"),
    ]


def check_commutator_csv(path, n_list):
    rows = _read_csv(path)[1:]
    ok = [int(r[0]) for r in rows] == list(n_list)
    for r in rows:
        ref = 2.0 / (int(r[0]) + 1)
        ok &= abs(float(r[1]) - ref) <= 1e-9 * ref
    return [("closed_form", ok, f"{len(rows)} rows")]


def check_grid_csv(path, n_theta, n_phi):
    with open(path) as fh:
        count = sum(1 for _ in fh) - 1
    return [("rows", count == 4 * n_theta * n_phi, f"{count} vs {4 * n_theta * n_phi}")]


def check_decompose(path, solution, matrices, src):
    """The written (r, s, t) coefficients rebuild the input doublet
    r^a = sum r_lm Y_lm g^a + sum s^a_b,lm Y_lm g^b + t^a e_1^T.
    The harmonics Y_lm come from the library under test."""
    import sys

    if src not in sys.path:
        sys.path.insert(0, src)
    from fuzzball.grvv import GrvvSolution
    from fuzzball.harmonics import build_basis
    from fuzzball.su2rep import bilinears, su2_from_bilinears

    with open(solution) as fh:
        sobj = json.load(fh)
    g = [load_matrix(sobj["g1"]), load_matrix(sobj["g2"])]
    n = g[0].shape[0]
    target = []
    for p in matrices:
        with open(p) as fh:
            target.append(load_matrix(json.load(fh)))
    with open(path) as fh:
        obj = json.load(fh)
    sol = GrvvSolution(g1=g[0], g2=g[1], partition=(n,))
    basis = build_basis(su2_from_bilinears(bilinears(sol), partition=(n,)))
    rec = [np.zeros((n, n), dtype=complex) for _ in range(2)]
    for l, m, re, im in obj["r"]:
        y = basis[(l, m)]
        for a in range(2):
            rec[a] += complex(re, im) * (y @ g[a])
    for l, m, a, b, re, im in obj["s"]:
        rec[a] += complex(re, im) * (basis[(l, m)] @ g[b])
    for a, k, re, im in obj["t"]:
        rec[a][k, 0] += complex(re, im)
    err = max(np.linalg.norm(rec[a] - target[a]) for a in range(2))
    scale = max(np.linalg.norm(t) for t in target)
    return [("reconstruction", err <= 1e-8 * scale, f"{err:.3e} of {scale:.3e}")]


# ---------------------------------------------------------------------------
# workloads


def _verify(label, suite, n_list, seed, extra=(), outputs=(), check=None):
    return Step(
        label=label,
        args=["verify", "--suite", suite, "--n-list", ",".join(map(str, n_list)),
              "--seed", str(seed), *extra],
        outputs=list(outputs),
        rows=expected_rows(suite, n_list),
        check=check,
    )


def desk_sweep(seed, work):
    commutator_ns = [4, 8, 16, 32, 64, 128, 256]
    return [
        _verify("verify-all", "all", [2, 3, 4, 8, 12, 16], seed, ["--grid", "64x128"]),
        Step("gen-grvv-16", ["gen", "grvv", "--n", "16", "--dress", str(seed)],
             check=lambda out: check_grvv_json(out, [16], True)),
        Step("gen-gamma-so9", ["gen", "gamma", "--group", "so9"],
             check=lambda out: check_gamma_json(out, 16, 9)),
        Step("spectrum-laplacian-8", ["spectrum", "laplacian", "--n", "8"],
             check=lambda out: check_laplacian_csv(out, 8)),
        Step("converge-commutator",
             ["converge", "commutator", "--n-list", ",".join(map(str, commutator_ns))],
             check=lambda out: check_commutator_csv(out, commutator_ns)),
    ]


def harmonic_analysis(seed, work):
    sol = os.path.join(work, "sol32.json")
    mats = [os.path.join(work, f"r{k}.json") for k in (1, 2)]
    dec = os.path.join(work, "decompose.json")
    power = os.path.join(work, "power.csv")
    src = os.path.join(os.path.dirname(HERE), "src")
    return [
        Step("spectrum-laplacian-32", ["spectrum", "laplacian", "--n", "32"],
             check=lambda out: check_laplacian_csv(out, 32)),
        Step("spectrum-kinetic-16", ["spectrum", "kinetic", "--n", "16"],
             check=lambda out: check_kinetic_csv(out, 16)),
        Step("decompose-32",
             ["decompose", "--solution", sol, "--matrix", ",".join(mats),
              "--out", dec, "--power-csv", power],
             outputs=[dec, power],
             check=lambda out: check_decompose(dec, sol, mats, src)),
        Step("converge-modes",
             ["converge", "modes", "--n-list", "4,8,16,32", "--l", "2", "--m", "1"]),
        _verify("verify-harmonics", "harmonics", [8, 12, 16], seed),
    ]


def harmonic_analysis_inputs(seed, work, run_cli):
    """The undressed n=32 doublet (decompose's edge read-off assumes it) and
    two seeded Gaussian fluctuation matrices."""
    n = 32
    run_cli(["gen", "grvv", "--n", str(n), "--out", os.path.join(work, "sol32.json")])
    rng = np.random.default_rng(seed)
    for k in (1, 2):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        write_matrix(os.path.join(work, f"r{k}.json"), a)


def large_n_algebra(seed, work):
    big = [64, 128, 256]
    steps = [
        _verify(f"verify-{suite}", suite, big, seed)
        for suite in ("grvv", "u2", "covariance", "intertwiner", "superalgebra")
    ]
    steps.append(_verify("verify-equivalence", "equivalence", [16, 32, 48, 64], seed))
    return steps


def bulk_output(seed, work):
    big = os.path.join(work, "grvv512.json")
    part = os.path.join(work, "grvv_partition.json")
    grid = os.path.join(work, "grid.csv")
    blocks = [64, 128, 192]
    return [
        Step("gen-grvv-512",
             ["gen", "grvv", "--n", "512", "--dress", str(seed), "--out", big],
             outputs=[big], check=lambda out: check_grvv_json(big, [512], True)),
        Step("gen-grvv-partition",
             ["gen", "grvv", "--partition", ",".join(map(str, blocks)),
              "--dress", str(seed), "--out", part],
             outputs=[part], check=lambda out: check_grvv_json(part, blocks, True)),
        _verify("verify-geometry", "geometry", [2, 3, 4, 8], seed,
                ["--grid", "256x512", "--grid-csv", grid], outputs=[grid],
                check=lambda out: check_grid_csv(grid, 256, 512)),
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    steps: object  # (seed, workdir) -> [Step]
    inputs: object = None  # (seed, workdir, run_cli) -> None, untimed


WORKLOADS = {
    w.name: w
    for w in (
        Workload("desk-sweep", desk_sweep),
        Workload("harmonic-analysis", harmonic_analysis, harmonic_analysis_inputs),
        Workload("large-n-algebra", large_n_algebra),
        Workload("bulk-output", bulk_output),
    )
}


def known_failures(workload):
    """{check id: entry} of the failures the baseline is known to have."""
    with open(os.path.join(HERE, "known_failures.json")) as fh:
        entries = json.load(fh)
    return {e["check"]: e for e in entries if e["workload"] == workload}
