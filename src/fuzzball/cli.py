"""
Command-line front end: generators, verification suites, spectra and
convergence tables with machine-readable output.

Exit codes: 0 success, 1 residual above tolerance, 2 usage error.  The top
imports only the standard library (``--help`` loads no numpy); each command
imports what it runs.
"""

import argparse
import contextlib
import csv
import json
import math
import sys

SUITES = (
    "grvv",
    "u2",
    "covariance",
    "intertwiner",
    "harmonics",
    "superalgebra",
    "equivalence",
    "geometry",
    "all",
)
DEFAULT_GRID = (64, 128)


def _parse_int_list(text):
    try:
        values = [int(v) for v in text.split(",") if v != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("empty list")
    return values


def _parse_sizes(text):
    """``--n-list``: matrix sizes, each at least 1."""
    values = _parse_int_list(text)
    if min(values) < 1:
        raise argparse.ArgumentTypeError(f"sizes must be 1 or more, got {min(values)}")
    return values


def _parse_seed(text):
    """``--seed`` and ``--dress``: a seed of numpy's generator, 0 or more."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"seeds must be integers 0 or more, got {text!r}")
    return int(text)


def _parse_grid(text):
    try:
        nt, npz = text.lower().split("x")
        return int(nt), int(npz)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad grid size {text!r}, want e.g. 64x128") from exc


@contextlib.contextmanager
def _output(path):
    """Text stream for an output option: stdout for None or "-", else the file."""
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", newline="") as fh:
            yield fh


def _write_json(path, obj):
    """Compact JSON of ``obj`` plus a newline; arrays in ``obj`` are written
    in the matrix_to_json layout, a block of rows at a time."""
    from .matcore import write_json

    with _output(path) as fh:
        write_json(fh, obj)
        fh.write("\n")


def _write_csv(path, header, rows):
    with _output(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_grid_csv(path, grid, residuals):
    """Write the grid CSV: rows (theta, phi, identity, residual) ordered by
    identity, then theta, then phi, in blocks of GRID_BLOCK_ROWS theta rows
    (matcore._write_blocks: formatted in forked workers on every usable
    CPU, or in process for a small grid or one CPU).  Each angle is
    formatted once, and each theta row is one ``%`` of a template; the
    bytes are those of csv.writer (no field needs quoting, lines end in
    CRLF)."""
    from .geometry import GRID_BLOCK_ROWS
    from .matcore import _write_blocks

    thetas = [f"{t:.10g}," for t in grid.theta.tolist()]
    phis = [f"{p:.10g}," for p in grid.phi.tolist()]
    # per identity, the line tails after the theta field: t + t.join(tails)
    # is the template of theta row t
    per_identity = [
        ([p + name + ",%.6e\r\n" for p in phis], res)
        for name, res in residuals.items()
    ]
    per_identity_blocks = -(-len(thetas) // GRID_BLOCK_ROWS)

    def block(index):
        tails, res = per_identity[index // per_identity_blocks]
        start = index % per_identity_blocks * GRID_BLOCK_ROWS
        rows = res[start : start + GRID_BLOCK_ROWS].tolist()
        return "".join(
            t + t.join(tails) % tuple(row)
            for t, row in zip(thetas[start : start + GRID_BLOCK_ROWS], rows)
        )

    with _output(path) as fh:
        fh.write("theta,phi,identity,residual\r\n")
        n_blocks = per_identity_blocks * len(per_identity)
        _write_blocks(fh, block, n_blocks, len(thetas) * len(per_identity))


# ---------------------------------------------------------------------------
# gen


# the options each generator reads; giving any other one is a usage error
_GEN_OPTIONS = {"grvv": ("n", "partition", "dress"), "su2": ("dims",), "gamma": ("group",)}


def cmd_gen(args):
    for opt in ("n", "partition", "dims", "dress", "group"):
        if getattr(args, opt) is not None and opt not in _GEN_OPTIONS[args.kind]:
            raise ValueError(f"gen {args.kind} takes no --{opt}")
    if args.kind == "grvv":
        from .grvv import block_solution, ground_state

        if args.partition:
            if args.n is not None and args.n != sum(args.partition):
                raise ValueError(
                    f"--n {args.n} disagrees with --partition of total size "
                    f"{sum(args.partition)}"
                )
            sol = block_solution(args.partition)
        else:
            if args.n is None:
                raise ValueError("gen grvv needs --n or --partition")
            sol = ground_state(args.n)
        if args.dress is not None:
            sol = _dress(sol, args.dress)
        _write_json(args.out, sol._record())
        return 0
    if args.kind == "su2":
        if not args.dims:
            raise ValueError("gen su2 needs --dims")
        from .su2rep import _canonical_sum

        _write_json(args.out, _canonical_sum(args.dims)._record())
        return 0
    from .geometry import gamma_so5, gamma_so9

    group = args.group or "so5"
    gammas = gamma_so5() if group == "so5" else gamma_so9()
    _write_json(args.out, {"schema": 1, "group": group, "matrices": gammas})
    return 0


# ---------------------------------------------------------------------------
# verify


class _Skip(Exception):
    """Raised by a per-size suite before its first row: the size is listed
    under ``skipped`` with this reason instead of being checked."""


def _require_doublet(n):
    """Skip a suite of the ground-state doublet at n < 2, where it is zero
    and every residual would read 0 having checked nothing."""
    if n < 2:
        raise _Skip("n < 2: the ground-state doublet is zero, there is no bracket to close")


def _suite_grvv(n, seed):
    _require_doublet(n)
    from .grvv import ground_state, grvv_residual, sphere_constraints

    sol = ground_state(n)
    yield ("grvv_residual", n, grvv_residual(sol))
    sc = sphere_constraints(sol)
    yield ("sphere_left", n, sc[0])
    yield ("sphere_right", n, sc[1])


def _dress(sol, seed):
    """``sol`` in the random gauge (U, V) drawn from ``seed``."""
    import numpy as np

    from .grvv import gauge_dress
    from .matcore import random_unitary

    rng = np.random.default_rng(seed)
    return gauge_dress(sol, random_unitary(sol.size, rng), random_unitary(sol.size, rng))


def _dressed(n, seed):
    from .grvv import ground_state

    return _dress(ground_state(n), seed + n)


def _suite_u2(n, seed):
    _require_doublet(n)
    from .grvv import ground_state
    from .su2rep import _u2_residual

    yield ("u2_structure", n, _u2_residual(ground_state(n)))
    yield ("u2_structure_dressed", n, _u2_residual(_dressed(n, seed)))


def _suite_covariance(n, seed):
    _require_doublet(n)
    from .grvv import ground_state
    from .su2rep import doublet_covariance_residual

    yield ("doublet_covariance", n, doublet_covariance_residual(ground_state(n)))
    yield ("doublet_covariance_dressed", n, doublet_covariance_residual(_dressed(n, seed)))


def _suite_intertwiner(n, seed):
    _require_doublet(n)
    from .grvv import ground_state
    from .su2rep import intertwiner_residual

    yield ("intertwiner", n, intertwiner_residual(ground_state(n)))
    yield ("intertwiner_dressed", n, intertwiner_residual(_dressed(n, seed)))


def _suite_harmonics(n, seed):
    import numpy as np

    from .grvv import ground_state
    from .harmonics import basis_residuals, build_basis, decompose_bifundamental
    from .spectra import fuzzy_laplacian_spectrum
    from .su2rep import irrep

    rep = irrep(n)
    basis = build_basis(rep)
    gram, adj = basis_residuals(basis)
    yield ("gram", n, gram)
    yield ("adjoint_j3", n, adj)
    ev = fuzzy_laplacian_spectrum(rep)
    ref = np.sort(np.concatenate([[4 * l * (l + 1)] * (2 * l + 1) for l in range(n)]))
    yield ("laplacian_spectrum", n, float(np.max(np.abs(ev - ref)) / max(ref[-1], 1)))
    rng = np.random.default_rng(seed + n)
    sol = ground_state(n)
    r = [
        rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)),
        rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)),
    ]
    modes = decompose_bifundamental(r[0], r[1], sol, basis=basis)
    yield ("bifundamental_reconstruction", n, modes.residual)


def _suite_superalgebra(n, seed):
    _require_doublet(n)
    from .grvv import ground_state
    from .superalg import calibrate

    # no tolerance inside calibrate: the row is judged at --tol like any other
    cal = calibrate(ground_state(n), tol=math.inf)
    yield ("osp_closure", n, cal.total)


def _suite_equivalence(n, seed):
    _require_doublet(n)
    from .equivalence import round_trip
    from .grvv import ground_state
    from .su2rep import irrep

    yield ("round_trip_rep", n, round_trip(irrep(n)).worst())
    yield ("round_trip_sol", n, round_trip(ground_state(n)).worst())


def _suite_geometry(n, seed, grid_report):
    import numpy as np

    from . import geometry

    # the pointwise rows are the maxima of the grid_report arrays
    def worst(name):
        return float(np.max(grid_report.residuals[name]))

    yield ("hopf_section_roundtrip", 0, worst("hopf_section_roundtrip"))
    yield ("s_unitarity", 0, grid_report.s_unitarity)
    yield ("gamma3_relation", 0, worst("gamma3_relation"))
    yield ("killing_equation", 0, worst("killing_equation"))
    rep = grid_report.identification
    yield ("identification_coordinate", n, rep.coordinate)
    yield ("identification_local_phase", n, rep.local_phase)
    yield ("identification_dx", n, rep.dx_agreement)
    # convergence orders pass at their own stated bound (2.0 +- 0.1)
    yield ("identification_order_b", n, abs(rep.order_b - 2.0), 0.1)
    yield ("identification_order_c", n, abs(rep.order_c - 2.0), 0.1)
    for name, gammas, dim in (("so5", geometry.gamma_so5(), 4), ("so9", geometry.gamma_so9(), 16)):
        worst = 0.0
        for i, a in enumerate(gammas):
            for j, b in enumerate(gammas):
                worst = max(
                    worst,
                    float(np.max(np.abs(a @ b + b @ a - 2.0 * (i == j) * np.eye(dim)))),
                )
        yield (f"clifford_{name}", 0, worst)
    rng = np.random.default_rng(seed)
    worst4 = worst8 = 0.0
    count = 0
    while count < 25:
        g4 = rng.normal(size=4) + 1j * rng.normal(size=4)
        g4 /= np.linalg.norm(g4)
        worst4 = max(worst4, abs(np.linalg.norm(geometry.hopf_s4(g4)) - 1.0))
        x9 = rng.normal(size=9)
        x9 /= np.linalg.norm(x9)
        if x9[8] <= -0.9:
            continue
        u8 = rng.normal(size=8)
        u8 /= np.linalg.norm(u8)
        worst8 = max(
            worst8,
            float(np.max(np.abs(geometry.hopf_s8(geometry.s8_inversion(x9, u8)) - x9))),
        )
        count += 1
    yield ("hopf_s4_norm", 0, worst4)
    yield ("hopf_s8_roundtrip", 0, worst8)


def _run_suite(suite, n_list, seed, grid_report):
    per_n = {
        "grvv": _suite_grvv,
        "u2": _suite_u2,
        "covariance": _suite_covariance,
        "intertwiner": _suite_intertwiner,
        "harmonics": _suite_harmonics,
        "superalgebra": _suite_superalgebra,
        "equivalence": _suite_equivalence,
    }
    results, skipped = [], []

    def normalize(item):
        # rows are (name, n, residual) with an optional per-row tolerance
        # (used by convergence-order entries whose stated bound is 0.1)
        name, nn, res, *rest = item
        return suite, name, nn, float(res), (rest[0] if rest else None)

    if suite in per_n:
        for n in n_list:
            try:
                results.extend(normalize(item) for item in per_n[suite](n, seed))
            except _Skip as why:
                skipped.append({"suite": suite, "n": n, "reason": str(why)})
    elif suite == "geometry":
        n = max(n_list) if n_list else 2
        results.extend(normalize(item) for item in _suite_geometry(n, seed, grid_report))
    else:
        raise ValueError(f"unknown suite {suite!r}")
    return results, skipped


def cmd_verify(args):
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise ValueError(f"--tol must be finite and positive, got {args.tol}")
    suites = list(SUITES[:-1]) if args.suite == "all" else [args.suite]
    for opt in ("grid", "grid_csv"):
        if getattr(args, opt) is not None and "geometry" not in suites:
            raise ValueError(f"--{opt.replace('_', '-')} needs --suite geometry or all")
    shape = args.grid or DEFAULT_GRID
    grid = grid_report = None
    if "geometry" in suites:
        # one pass over the grid feeds the suite rows and the grid CSV
        from . import geometry

        grid = geometry.SphereGrid.make(*shape)
        grid_report = geometry.grid_report(grid)
    results, skipped = [], []
    for suite in suites:
        rows, skips = _run_suite(suite, args.n_list, args.seed, grid_report)
        results.extend(rows)
        skipped.extend(skips)
    if args.grid_csv:
        _write_grid_csv(args.grid_csv, grid, grid_report.residuals)
    report = {
        "schema": 1,
        "suite": args.suite,
        "n_list": args.n_list,
        "tol": args.tol,
        "seed": args.seed,
        "grid": f"{shape[0]}x{shape[1]}",
        "results": [
            {
                "suite": suite,
                "name": name,
                "n": n,
                "residual": res,
                "tol": row_tol if row_tol is not None else args.tol,
                "pass": bool(res <= (row_tol if row_tol is not None else args.tol)),
            }
            for suite, name, n, res, row_tol in results
        ],
        "skipped": skipped,
    }
    # a report that checked nothing does not pass
    report["passed"] = bool(results) and all(r["pass"] for r in report["results"])
    _write_json(args.out, report)
    return 0 if report["passed"] else 1


# ---------------------------------------------------------------------------
# spectrum / converge / decompose


def cmd_spectrum(args):
    from .spectra import fuzzy_laplacian_spectrum, scalar_kinetic_spectrum
    from .su2rep import irrep

    if args.which == "laplacian":
        ev = fuzzy_laplacian_spectrum(irrep(args.n))
        # level l is the sorted ev[l^2 : (l+1)^2], 2l + 1 values at 4l(l+1)
        scale = max(4 * args.n * (args.n - 1), 1)
        res = [abs(ev[l * l : (l + 1) ** 2] - 4 * l * (l + 1)).max() for l in range(args.n)]
        rows = [[4 * l * (l + 1), 2 * l + 1, l, f"{r / scale:.3e}"] for l, r in enumerate(res)]
        _write_csv(args.out, ["eigenvalue", "multiplicity", "l", "residual"], rows)
        return 0
    if args.which == "kinetic":
        ks = scalar_kinetic_spectrum(irrep(args.n))
        rows = [[f"{eig:.12g}", mult, l, j, f"{res:.3e}"] for eig, mult, l, j, res in ks.groups]
        _write_csv(args.out, ["eigenvalue", "multiplicity", "l", "j", "residual"], rows)
        return 0
    raise ValueError(f"unknown spectrum {args.which!r}")


def cmd_converge(args):
    from .spectra import commutator_decay, mode_convergence

    if args.which == "commutator":
        if min(args.n_list) < 2:
            raise ValueError("converge commutator needs --n-list sizes of 2 or more: at n = 1, "
                             "J = 0 and x_i = J_i / sqrt(n^2 - 1) is undefined")
        table = commutator_decay(args.n_list)
        rows = [[n, f"{v:.15g}", f"{2.0 / (n + 1):.15g}"] for n, v in table]
        _write_csv(args.out, ["n", "spectral_norm", "closed_form"], rows)
        return 0
    if args.which == "modes":
        table = mode_convergence(args.n_list, args.l, args.m)
        rows = [[n, args.l, args.m, f"{v:.15g}"] for n, v in table]
        _write_csv(args.out, ["n", "l", "m", "sup_error"], rows)
        errs = [v for _, v in table]
        return 0 if all(b < a for a, b in zip(errs, errs[1:])) else 1
    raise ValueError(f"unknown convergence study {args.which!r}")


def cmd_decompose(args):
    from .grvv import GrvvSolution
    from .harmonics import decompose_bifundamental
    from .matcore import matrix_from_json

    def load(path, reader):
        with open(path) as fh:
            try:
                return reader(json.load(fh))
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from exc

    sol = load(args.solution, GrvvSolution.from_json)
    paths = args.matrix.split(",")
    if len(paths) != 2:
        raise ValueError("--matrix wants two comma-separated files (r1, r2)")
    mats = [load(p, matrix_from_json) for p in paths]
    modes = decompose_bifundamental(mats[0], mats[1], sol)
    obj = {
        "schema": 1,
        "r": [[l, m, c.real, c.imag] for (l, m), c in sorted(modes.r_coeffs.items())],
        "s": [
            [l, m, a, b, s[a, b].real, s[a, b].imag]
            for (l, m), s in sorted(modes.s_coeffs.items())
            for a in range(2)
            for b in range(2)
        ],
        "t": [
            [a, k, modes.t_coeffs[a, k].real, modes.t_coeffs[a, k].imag]
            for a in range(2)
            for k in range(modes.t_coeffs.shape[1])
        ],
        "residual": modes.residual,
    }
    _write_json(args.out, obj)
    if args.power_csv:
        powers = {}
        for (l, m), c in modes.r_coeffs.items():
            powers.setdefault((l, m), [0.0, 0.0])[0] += abs(c) ** 2
        for (l, m), s in modes.s_coeffs.items():
            powers.setdefault((l, m), [0.0, 0.0])[1] += float((abs(s) ** 2).sum())
        rows = [
            [l, m, f"{p[0]:.15g}", f"{p[1]:.15g}"]
            for (l, m), p in sorted(powers.items())
        ]
        _write_csv(args.power_csv, ["l", "m", "r_power", "s_power"], rows)
    return 0


# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fuzzball",
        description="bifundamental fuzzy two-sphere toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate solutions, representations, gammas")
    gen.add_argument("kind", choices=("grvv", "su2", "gamma"))
    gen.add_argument("--n", type=int)
    gen.add_argument("--partition", type=_parse_int_list)
    gen.add_argument("--dims", type=_parse_int_list)
    gen.add_argument("--dress", type=_parse_seed, help="seed for a random gauge dressing")
    gen.add_argument("--group", choices=("so5", "so9"), help="gamma only (default so5)")
    gen.add_argument("--out", default=None)
    gen.set_defaults(func=cmd_gen)

    ver = sub.add_parser(
        "verify",
        help="run a residual suite",
        epilog="JSON report rows: suite, name, n, residual, tol, pass. "
        "Residual rows pass at --tol; convergence-order rows at 0.1. "
        "Sizes a suite does not check are listed under skipped (suite, n, reason); "
        "a report with no checked row fails. "
        "--grid-csv (geometry suite) writes rows: theta, phi, identity, residual.",
    )
    ver.add_argument("--suite", choices=SUITES, required=True)
    ver.add_argument("--n-list", type=_parse_sizes, default=[2, 3, 4, 8])
    ver.add_argument("--tol", type=float, default=1e-10)
    ver.add_argument("--seed", type=_parse_seed, default=0)
    ver.add_argument("--grid", type=_parse_grid, help="geometry suite only (default 64x128)")
    ver.add_argument("--grid-csv", default=None, help="per-point geometry residual CSV")
    ver.add_argument("--out", default=None)
    ver.set_defaults(func=cmd_verify)

    spect = sub.add_parser(
        "spectrum",
        help="spectra as CSV",
        epilog="laplacian columns: eigenvalue, multiplicity, l, residual: one row per "
        "level 4l(l+1) (multiplicity 2l+1), with the largest distance of its eigenvalues "
        "from it relative to the top level 4N(N-1). kinetic columns: "
        "eigenvalue, multiplicity, l, j, residual: one row per level "
        "3l(l+1) + j(j+1) - 1 (multiplicity 2j+1), with the largest ||Kv - lambda v|| "
        "of its coupled vectors relative to the top level.",
    )
    spect.add_argument("which", choices=("laplacian", "kinetic"))
    spect.add_argument("--n", type=int, required=True)
    spect.add_argument("--out", default=None)
    spect.set_defaults(func=cmd_spectrum)

    conv = sub.add_parser(
        "converge",
        help="convergence tables as CSV",
        epilog="commutator columns: n, spectral_norm, closed_form; "
        "modes columns: n, l, m, sup_error (exit 1 if not monotone).",
    )
    conv.add_argument("which", choices=("commutator", "modes"))
    conv.add_argument("--n-list", type=_parse_sizes, required=True)
    conv.add_argument("--l", type=int, default=1)
    conv.add_argument("--m", type=int, default=0)
    conv.add_argument("--out", default=None)
    conv.set_defaults(func=cmd_converge)

    dec = sub.add_parser(
        "decompose",
        help="mode-decompose a doublet fluctuation",
        epilog="JSON fields: r [[l, m, re, im]...], s [[l, m, a, b, re, im]...], "
        "t [[alpha, k, re, im]...]; --power-csv columns: l, m, r_power, s_power.",
    )
    dec.add_argument("--solution", required=True)
    dec.add_argument("--matrix", required=True, help="r1.json,r2.json")
    dec.add_argument("--out", default=None)
    dec.add_argument("--power-csv", default=None)
    dec.set_defaults(func=cmd_decompose)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
