import csv
import json
import os
import signal
import subprocess
import sys
import time
import tracemalloc

import dense_oracles
import numpy as np
import pytest
from numpy.testing import assert_allclose

import fuzzball
from fuzzball import geometry, matcore
from fuzzball.cli import SUITES, _write_grid_csv, main
from fuzzball.geometry import GRID_BLOCK_ROWS
from fuzzball.grvv import GrvvSolution, gauge_dress, ground_state
from fuzzball.harmonics import build_basis
from fuzzball.matcore import (
    JSON_BLOCK_ROWS,
    POOL_MIN_ROWS,
    matrix_from_json,
    matrix_to_json,
    random_unitary,
)
from fuzzball.su2rep import bilinears, direct_sum, irrep, su2_from_bilinears


def run(args):
    return main(args)


def test_gen_grvv(tmp_path):
    out = tmp_path / "g.json"
    assert run(["gen", "grvv", "--n", "2", "--out", str(out)]) == 0
    sol = GrvvSolution.from_json(json.loads(out.read_text()))
    assert_allclose(sol.g1, np.diag([0.0, 1.0]))
    assert_allclose(sol.g2, np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_gen_grvv_invalid_size(capsys):
    assert run(["gen", "grvv", "--n", "0"]) == 2
    assert "error" in capsys.readouterr().err


def test_gen_su2_partition(tmp_path):
    out = tmp_path / "rep.json"
    assert run(["gen", "su2", "--dims", "2,3", "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["partition"] == [2, 3]
    assert obj["j3"]["rows"] == 5


def test_gen_grvv_dressed_partition(tmp_path):
    out = tmp_path / "d.json"
    assert run(["gen", "grvv", "--partition", "2,3", "--dress", "7", "--out", str(out)]) == 0
    sol = GrvvSolution.from_json(json.loads(out.read_text()))
    assert sol.dressed and sol.partition == (2, 3)


def test_gen_gamma(tmp_path):
    out = tmp_path / "gamma.json"
    assert run(["gen", "gamma", "--group", "so9", "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert len(obj["matrices"]) == 9
    g = matrix_from_json(obj["matrices"][0])
    assert g.shape == (16, 16)


def test_verify_suite_passes(tmp_path):
    out = tmp_path / "report.json"
    code = run(["verify", "--suite", "grvv", "--n-list", "2,4", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert all(r["pass"] for r in report["results"])


def test_verify_unachievable_tolerance(tmp_path):
    out = tmp_path / "report.json"
    code = run(
        ["verify", "--suite", "grvv", "--n-list", "16", "--tol", "1e-30", "--out", str(out)]
    )
    assert code == 1


def test_verify_reports_are_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out in (a, b):
        assert (
            run(["verify", "--suite", "covariance", "--n-list", "3", "--seed", "5", "--out", str(out)])
            == 0
        )
    assert a.read_text() == b.read_text()


def test_verify_geometry_grid(tmp_path):
    out = tmp_path / "geo.json"
    code = run(
        ["verify", "--suite", "geometry", "--grid", "32x64", "--n-list", "2", "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    names = {r["name"] for r in report["results"]}
    assert "hopf_section_roundtrip" in names and "clifford_so9" in names


@pytest.mark.parametrize("n_theta", [785, 786])
def test_verify_geometry_orders_near_the_poles(tmp_path, n_theta):
    # from 785 theta rows on, the order steps of the rows next to the poles
    # would reach or cross a pole; those rows are left out of the order sups
    out = tmp_path / "geo.json"
    args = ["verify", "--suite", "geometry", "--n-list", "2", "--grid", f"{n_theta}x8"]
    assert run(args + ["--out", str(out)]) == 0
    rows = {r["name"]: r["residual"] for r in json.loads(out.read_text())["results"]}
    assert rows["identification_order_b"] < 0.1
    assert rows["identification_order_c"] < 0.1


GRID_ROWS = ("hopf_section_roundtrip", "gamma3_relation", "killing_equation")


def test_verify_geometry_rows_are_grid_maxima(tmp_path):
    out = tmp_path / "geo.json"
    grid_csv = tmp_path / "grid.csv"
    args = ["verify", "--suite", "geometry", "--grid", "8x16", "--n-list", "2"]
    assert run(args + ["--out", str(out), "--grid-csv", str(grid_csv)]) == 0
    rows = {r["name"]: r["residual"] for r in json.loads(out.read_text())["results"]}
    residuals = geometry.grid_report(geometry.SphereGrid.make(8, 16)).residuals
    for name in GRID_ROWS:
        assert rows[name] == float(np.max(residuals[name]))
    lines = grid_csv.read_text().splitlines()
    assert lines[0] == "theta,phi,identity,residual"
    assert len(lines) == 1 + 4 * 8 * 16


def _grid_csv_pair(tmp_path, n_theta, n_phi):
    """(our grid CSV, the csv.writer reference) of the residual magnitudes
    spread over logspace(-300, 300), so every exponent width is exercised."""
    grid = geometry.SphereGrid.make(n_theta, n_phi)
    residuals = geometry.grid_report(grid).residuals
    residuals["killing_equation"] = residuals["killing_equation"] * np.logspace(
        -300, 300, n_theta * n_phi
    ).reshape(n_theta, n_phi)
    ours = tmp_path / "ours.csv"
    _write_grid_csv(str(ours), grid, residuals)
    ref = tmp_path / "ref.csv"
    tt, pp = grid.mesh()
    with open(ref, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["theta", "phi", "identity", "residual"])
        for name, res in residuals.items():
            for i in range(tt.shape[0]):
                for j in range(tt.shape[1]):
                    t, p = float(tt[i, j]), float(pp[i, j])
                    writer.writerow([f"{t:.10g}", f"{p:.10g}", name, f"{res[i, j]:.6e}"])
    return ours.read_bytes(), ref.read_bytes()


def test_grid_csv_bytes_match_csv_writer(tmp_path):
    ours, ref = _grid_csv_pair(tmp_path, 8, 16)
    assert ours == ref


def test_grid_csv_pooled_bytes_match_csv_writer(tmp_path, forks):
    # 4 identities x 40 theta rows pass the pool threshold; each identity
    # ends in a partial block
    assert 4 * 40 >= POOL_MIN_ROWS and 40 % GRID_BLOCK_ROWS
    ours, ref = _grid_csv_pair(tmp_path, 40, 9)
    assert ours == ref
    assert len(forks) == 2


def test_cli_import_leaves_scipy_special_unloaded():
    src = os.path.dirname(os.path.dirname(fuzzball.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, fuzzball.cli; print('scipy.special' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert proc.stdout.strip() == "False"


def test_spectrum_laplacian(tmp_path):
    out = tmp_path / "s.csv"
    assert run(["spectrum", "laplacian", "--n", "3", "--out", str(out)]) == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["eigenvalue", "multiplicity", "l", "residual"]
    mults = [int(r[1]) for r in rows[1:]]
    assert mults == [1, 3, 5]
    assert abs(float(rows[2][0]) - 8.0) < 1e-9


def test_spectrum_laplacian_prints_exact_levels(tmp_path):
    # each row is the exact level 4l(l+1), so l = 0 reads 0 and not the
    # rounding noise of its measured eigenvalue; the residual carries that
    n = 16
    out = tmp_path / "s.csv"
    assert run(["spectrum", "laplacian", "--n", str(n), "--out", str(out)]) == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["eigenvalue", "multiplicity", "l", "residual"]
    assert [r[:3] for r in rows[1:]] == [
        [str(4 * l * (l + 1)), str(2 * l + 1), str(l)] for l in range(n)
    ]
    assert all(0.0 <= float(r[3]) < 1e-14 for r in rows[1:])


def test_spectrum_kinetic_large_size(tmp_path):
    # n = 40 was refused while the spectrum was capped at 16
    n = 40
    out = tmp_path / "k.csv"
    assert run(["spectrum", "kinetic", "--n", str(n), "--out", str(out)]) == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["eigenvalue", "multiplicity", "l", "j", "residual"]
    mult = sum(int(r[1]) for r in rows[1:])
    trace = sum(float(r[0]) * int(r[1]) for r in rows[1:])
    ref = 3 * (n * n + sum(4 * l * (l + 1) * (2 * l + 1) for l in range(n)))
    assert mult == 3 * n * n and abs(trace - ref) <= 1e-9 * ref
    for eig, mult, l, j, res in rows[1:]:
        l, j = int(l), int(j)
        assert float(eig) == 3 * l * (l + 1) + j * (j + 1) - 1 and int(mult) == 2 * j + 1
        assert float(res) < 1e-13


def test_converge_commutator(tmp_path):
    out = tmp_path / "c.csv"
    assert run(["converge", "commutator", "--n-list", "3,99", "--out", str(out)]) == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert float(rows[1][1]) == pytest.approx(0.5, abs=1e-13)
    assert float(rows[2][1]) == pytest.approx(0.02, abs=1e-13)


@pytest.mark.parametrize("sizes", ["1", "1,4"])
def test_converge_commutator_refuses_size_one(capsys, tmp_path, sizes):
    # at n = 1, J = 0: the row read 1,0,1 and the command exited 0
    out = tmp_path / "c.csv"
    assert run(["converge", "commutator", "--n-list", sizes, "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: converge commutator needs --n-list sizes of 2 or more")
    assert "undefined" in err


def test_converge_modes(tmp_path):
    out = tmp_path / "m.csv"
    assert (
        run(["converge", "modes", "--n-list", "4,8,16", "--l", "1", "--m", "0", "--out", str(out)])
        == 0
    )
    rows = list(csv.reader(out.read_text().splitlines()))
    errs = [float(r[3]) for r in rows[1:]]
    assert errs[0] > errs[1] > errs[2]


def test_decompose_identity_fluctuation(tmp_path):
    gfile = tmp_path / "g.json"
    assert run(["gen", "grvv", "--n", "3", "--out", str(gfile)]) == 0
    sol = GrvvSolution.from_json(json.loads(gfile.read_text()))
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    r1.write_text(json.dumps(matrix_to_json(sol.g1)))
    r2.write_text(json.dumps(matrix_to_json(sol.g2)))
    out = tmp_path / "modes.json"
    power = tmp_path / "p.csv"
    code = run(
        [
            "decompose",
            "--solution",
            str(gfile),
            "--matrix",
            f"{r1},{r2}",
            "--out",
            str(out),
            "--power-csv",
            str(power),
        ]
    )
    assert code == 0
    modes = json.loads(out.read_text())
    nonzero = [(l, m) for l, m, re, im in modes["r"] if abs(complex(re, im)) > 1e-10]
    assert nonzero == [(0, 0)]
    assert all(abs(complex(re, im)) < 1e-10 for *_rest, re, im in modes["s"])
    assert all(abs(complex(re, im)) < 1e-10 for _a, _k, re, im in modes["t"])
    rows = list(csv.reader(power.read_text().splitlines()))
    assert rows[0] == ["l", "m", "r_power", "s_power"]


def test_verify_superalgebra_miss_keeps_rows(tmp_path):
    out = tmp_path / "r.json"
    code = run(
        ["verify", "--suite", "superalgebra", "--n-list", "3,8", "--tol", "1e-30", "--out", str(out)]
    )
    assert code == 1
    rows = json.loads(out.read_text())["results"]
    assert [(r["name"], r["n"], r["tol"]) for r in rows] == [
        ("osp_closure", 3, 1e-30),
        ("osp_closure", 8, 1e-30),
    ]
    assert not any(r["pass"] for r in rows)
    assert all(0 < r["residual"] < 1e-10 for r in rows)


def test_converge_modes_frozen_values(tmp_path):
    # the sup errors of the eigensolve-based coherent states, to 1e-12
    out = tmp_path / "m.csv"
    args = ["converge", "modes", "--n-list", "4,8,16,32", "--l", "2", "--m", "1"]
    assert run(args + ["--out", str(out)]) == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["n", "l", "m", "sup_error"]
    assert [r[:3] for r in rows[1:]] == [[n, "2", "1"] for n in ("4", "8", "16", "32")]
    frozen = [0.750458283124987, 0.430180040457951, 0.232939848774015, 0.121603805538394]
    assert_allclose([float(r[3]) for r in rows[1:]], frozen, rtol=0, atol=1e-12)


def test_verify_with_nothing_checked_fails(tmp_path):
    out = tmp_path / "r.json"
    code = run(["verify", "--suite", "superalgebra", "--n-list", "1", "--out", str(out)])
    assert code == 1
    report = json.loads(out.read_text())
    assert report["results"] == [] and report["passed"] is False
    assert [(s["suite"], s["n"]) for s in report["skipped"]] == [("superalgebra", 1)]
    assert all("n < 2" in s["reason"] for s in report["skipped"])


HARMONICS_ROWS = ["gram", "adjoint_j3", "laplacian_spectrum", "bifundamental_reconstruction"]


def test_verify_harmonics_checks_every_size(tmp_path):
    # sizes above 16 used to be skipped
    out = tmp_path / "r.json"
    assert run(["verify", "--suite", "harmonics", "--n-list", "3,32", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert [(r["name"], r["n"]) for r in report["results"]] == [
        (name, n) for n in (3, 32) for name in HARMONICS_ROWS
    ]
    assert report["skipped"] == [] and report["passed"] is True


def test_verify_harmonics_memory_is_bounded():
    # the basis holds the real diagonals m >= 0 (5.7 MiB at N=128), and the
    # mode fit forms its scaled columns one diagonal at a time instead of
    # holding two complex copies of every diagonal
    from fuzzball.cli import _suite_harmonics

    tracemalloc.start()
    try:
        rows = list(_suite_harmonics(128, 5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [name for name, _, _ in rows] == HARMONICS_ROWS
    assert peak <= 24 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize(
    "frame, failing",
    [
        # unitary but not the weight frame: U^dag J_3 U is not diagonal
        (lambda u, rng: u @ random_unitary(u.shape[0], rng), "adjoint_j3"),
        # the weight frame, 1e-8 away from unitary
        (lambda u, rng: u @ (np.eye(u.shape[0]) + 1e-8 * np.diag(rng.normal(size=u.shape[0]))),
         "gram"),
    ],
)
def test_verify_harmonics_checks_the_frame(tmp_path, monkeypatch, frame, failing):
    import dataclasses

    from fuzzball import harmonics

    def spoiled(rep):
        basis = build_basis(rep)
        return dataclasses.replace(basis, frame=frame(basis.frame, np.random.default_rng(5)))

    # the CLI imports both names from harmonics when the suite runs
    monkeypatch.setattr(harmonics, "build_basis", spoiled)
    # the mode fit on its own basis, so only the two frame rows see the
    # change (harmonics._default_basis, built with the unspoiled build_basis)
    fit = harmonics.decompose_bifundamental

    def own_fit(r1, r2, sol, basis):
        own = build_basis(su2_from_bilinears(bilinears(sol), partition=(sol.size,)))
        return fit(r1, r2, sol, own)

    monkeypatch.setattr(harmonics, "decompose_bifundamental", own_fit)
    out = tmp_path / "r.json"
    assert run(["verify", "--suite", "harmonics", "--n-list", "6", "--out", str(out)]) == 1
    results = {r["name"]: r for r in json.loads(out.read_text())["results"]}
    assert results[failing]["pass"] is False
    assert results["laplacian_spectrum"]["pass"]
    assert results["bifundamental_reconstruction"]["pass"]
    # against the dense elements of the spoiled basis: equal when U stays unitary
    basis = spoiled(irrep(6))
    j3 = irrep(6).j3
    dense = max(
        np.linalg.norm(j3 @ basis[(l, m)] - basis[(l, m)] @ j3 - 2 * m * basis[(l, m)])
        for l, m in basis.keys()
    )
    if failing == "adjoint_j3":
        assert results["adjoint_j3"]["residual"] == pytest.approx(dense, rel=1e-10)


def test_verify_lists_skipped_sizes_apart_from_results(tmp_path):
    out = tmp_path / "r.json"
    code = run(["verify", "--suite", "superalgebra", "--n-list", "1,3", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert [(r["name"], r["n"]) for r in report["results"]] == [("osp_closure", 3)]
    assert [(s["suite"], s["n"]) for s in report["skipped"]] == [("superalgebra", 1)]
    assert report["skipped"][0]["reason"]
    assert report["passed"] is True


@pytest.mark.parametrize("suite, names", [
    ("u2", ["u2_structure", "u2_structure_dressed"]),
    ("covariance", ["doublet_covariance", "doublet_covariance_dressed"]),
    ("intertwiner", ["intertwiner", "intertwiner_dressed"]),
    ("grvv", ["grvv_residual", "sphere_left", "sphere_right"]),
    ("equivalence", ["round_trip_rep", "round_trip_sol"]),
])
def test_verify_skips_the_zero_doublet(tmp_path, suite, names):
    # the n = 1 ground state is zero: its bilinear rows read 0.0 having
    # checked nothing, so the size is skipped as superalgebra skips it
    out = tmp_path / "r.json"
    assert run(["verify", "--suite", suite, "--n-list", "1,3", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert [(r["name"], r["n"]) for r in report["results"]] == [(name, 3) for name in names]
    assert report["skipped"] == [{
        "suite": suite, "n": 1,
        "reason": "n < 2: the ground-state doublet is zero, there is no bracket to close",
    }]
    assert report["passed"] is True
    assert run(["verify", "--suite", suite, "--n-list", "1", "--out", str(out)]) == 1


def test_verify_report_without_skips_has_empty_list(tmp_path):
    out = tmp_path / "r.json"
    assert run(["verify", "--suite", "grvv", "--n-list", "2", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["skipped"] == []


@pytest.mark.parametrize(
    "entry",
    [["1", 2], [None, 1], [3], [1, 2, 3], [True, 0]],
    ids=["string", "null", "short-pair", "long-pair", "boolean"],
)
def test_decompose_refuses_malformed_matrix_json(tmp_path, capsys, entry):
    gfile = tmp_path / "g.json"
    assert run(["gen", "grvv", "--n", "2", "--out", str(gfile)]) == 0
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"rows": 2, "cols": 2, "data": [[0, 0]] * 4}))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"rows": 2, "cols": 2, "data": [entry] + [[0, 0]] * 3}))
    capsys.readouterr()
    code = run(["decompose", "--solution", str(gfile), "--matrix", f"{bad},{good}"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "matrix" in err


@pytest.mark.parametrize("key, message", [
    ("g1", "missing key 'g1'"),
    ("g2", "missing key 'g2'"),
    (None, "not a JSON object"),
])
def test_decompose_names_the_solution_file_and_its_fault(tmp_path, capsys, key, message):
    gfile = tmp_path / "g.json"
    assert run(["gen", "grvv", "--n", "2", "--out", str(gfile)]) == 0
    obj = json.loads(gfile.read_text())
    if key is None:
        obj = [obj]
    else:
        del obj[key]
    gfile.write_text(json.dumps(obj))
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"rows": 2, "cols": 2, "data": [[0, 0]] * 4}))
    capsys.readouterr()
    assert run(["decompose", "--solution", str(gfile), "--matrix", f"{good},{good}"]) == 2
    # was the bare key (error: 'g1'), or a traceback and exit 1
    assert capsys.readouterr().err == f"error: {gfile}: malformed solution: {message}\n"


@pytest.mark.parametrize("key", ["g1", "g2"])
def test_decompose_names_the_faulty_solution_matrix(tmp_path, capsys, key):
    gfile = tmp_path / "g.json"
    assert run(["gen", "grvv", "--n", "2", "--out", str(gfile)]) == 0
    obj = json.loads(gfile.read_text())
    del obj[key]["cols"]
    gfile.write_text(json.dumps(obj))
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"rows": 2, "cols": 2, "data": [[0, 0]] * 4}))
    capsys.readouterr()
    assert run(["decompose", "--solution", str(gfile), "--matrix", f"{good},{good}"]) == 2
    # was error: FILE: malformed matrix: missing key 'cols', naming neither matrix
    expected = f"error: {gfile}: malformed solution: {key}: malformed matrix: missing key 'cols'\n"
    assert capsys.readouterr().err == expected


@pytest.mark.parametrize("key", ["rows", "cols", "data"])
def test_decompose_names_the_matrix_file_and_its_missing_key(tmp_path, capsys, key):
    gfile = tmp_path / "g.json"
    assert run(["gen", "grvv", "--n", "2", "--out", str(gfile)]) == 0
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"rows": 2, "cols": 2, "data": [[0, 0]] * 4}))
    bad = tmp_path / "bad.json"
    obj = json.loads(good.read_text())
    del obj[key]
    bad.write_text(json.dumps(obj))
    capsys.readouterr()
    assert run(["decompose", "--solution", str(gfile), "--matrix", f"{good},{bad}"]) == 2
    # was the bare key: error: 'rows'
    assert capsys.readouterr().err == f"error: {bad}: malformed matrix: missing key '{key}'\n"


@pytest.mark.parametrize("size", ["0", "-1"])
@pytest.mark.parametrize(
    "command", [["verify", "--suite", suite] for suite in SUITES] + [["converge", "commutator"]],
    ids=lambda command: command[-1],
)
def test_sizes_below_one_are_usage_errors(capsys, command, size):
    # geometry used to pass its rows labelled n = 0, u2 to fail them, and
    # harmonics to refuse an empty partition
    with pytest.raises(SystemExit) as exc:
        run([*command, "--n-list", f"4,{size}"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: argument --n-list: sizes must be 1 or more, got {size}\n")


@pytest.mark.parametrize("args, option", [
    (["verify", "--suite", "u2", "--n-list", "2", "--seed", "-1"], "--seed"),
    (["verify", "--suite", "u2", "--n-list", "2", "--seed", "-5"], "--seed"),
    (["verify", "--suite", "geometry", "--seed", "-1"], "--seed"),
    (["gen", "grvv", "--n", "3", "--dress", "-1"], "--dress"),
])
def test_negative_seeds_are_usage_errors(capsys, args, option):
    # -1 used to pass u2 at n = 2 (seed + n = 1), -5 to exit 2 naming no option
    with pytest.raises(SystemExit) as exc:
        run(args)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(
        f"error: argument {option}: seeds must be integers 0 or more, got '{args[-1]}'\n")


@pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf", "-inf"])
def test_verify_refuses_bad_tolerance(capsys, tol):
    # nan and -1 used to fail every row (exit 1), inf to pass every row (exit 0)
    assert run(["verify", "--suite", "grvv", "--n-list", "2", f"--tol={tol}"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --tol")
    assert captured.out == ""


def test_verify_equivalence_large_sizes_report(tmp_path):
    # canonicalize used to raise at n >= 128, which made the whole call exit 2
    out = tmp_path / "r.json"
    code = run(["verify", "--suite", "equivalence", "--n-list", "128", "--out", str(out)])
    rows = json.loads(out.read_text())["results"]
    assert code in (0, 1)
    names = [(r["name"], r["n"]) for r in rows]
    assert names == [("round_trip_rep", 128), ("round_trip_sol", 128)]


def _dressed_ground_state(n, seed):
    rng = np.random.default_rng(seed)
    return gauge_dress(ground_state(n), random_unitary(n, rng), random_unitary(n, rng))


@pytest.mark.parametrize(
    "args, expected",
    [
        # a row count that is not a multiple of the write block
        (["gen", "grvv", "--n", str(2 * JSON_BLOCK_ROWS + 6), "--dress", "1"],
         lambda: _dressed_ground_state(2 * JSON_BLOCK_ROWS + 6, 1).to_json()),
        (["gen", "su2", "--dims", f"2,{JSON_BLOCK_ROWS + 1}"],
         lambda: direct_sum([irrep(2), irrep(JSON_BLOCK_ROWS + 1)]).to_json()),
        (["gen", "gamma", "--group", "so9"],
         lambda: {"schema": 1, "group": "so9",
                  "matrices": [matrix_to_json(g) for g in geometry.gamma_so9()]}),
    ],
)
def test_gen_json_bytes_match_dumps(tmp_path, capsys, args, expected):
    want = json.dumps(expected(), separators=(",", ":")) + "\n"
    out = tmp_path / "out.json"
    assert run(args + ["--out", str(out)]) == 0
    assert out.read_text() == want
    capsys.readouterr()
    assert run(args) == 0
    assert capsys.readouterr().out == want


def test_gen_grvv_memory_is_bounded_by_a_block(tmp_path):
    # writing the whole text at once peaked at 35 MB here (per-entry float
    # lists and the payload string); streamed, about 9 MB: the matrices,
    # the dressing's temporaries and one block
    out = tmp_path / "g.json"
    tracemalloc.start()
    try:
        assert run(["gen", "grvv", "--n", "256", "--dress", "0", "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6, f"traced peak {peak / 1e6:.1f} MB"


class _SlowStream:
    """A text stream that stalls on the first block written to it, so the
    workers run as far ahead as the writer lets them."""

    def __init__(self, fh):
        self.fh = fh
        self.stalled = False

    def write(self, text):
        if len(text) > 10_000 and not self.stalled:
            self.stalled = True
            time.sleep(0.5)
        return self.fh.write(text)

    def flush(self):
        self.fh.flush()


def test_gen_grvv_pooled_write_memory_is_bounded_by_the_window(tmp_path, forks, monkeypatch):
    # however far the workers run ahead, their blocks wait in their own
    # memory and pipes: the parent holds the block being received (its
    # bytes and its text) and the block being written with its encoded copy.
    # A block is JSON_BLOCK_ROWS rows of n pairs of at most 2 * 24 + 4
    # characters (24 is the longest float repr).
    n = 512
    block = JSON_BLOCK_ROWS * n * (2 * 24 + 4)
    window = 4 * block
    start = {}
    write = matcore.write_json

    def write_json(fh, obj):
        # the CLI's call; write_json's own calls for the nested values of
        # the record (which read the patched name too) pass straight through
        if not start:
            start["held"] = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            fh = _SlowStream(fh)
        write(fh, obj)

    # the CLI imports write_json from matcore when it writes
    monkeypatch.setattr(matcore, "write_json", write_json)
    out = tmp_path / "g.json"
    tracemalloc.start()
    try:
        assert run(["gen", "grvv", "--n", str(n), "--dress", "0", "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(forks) == 4
    grown = peak - start["held"]
    assert grown < window, f"write grew the traced memory by {grown / 1e6:.1f} MB"
    assert matrix_from_json(json.loads(out.read_text())["g1"]).shape == (n, n)


@pytest.mark.parametrize(
    "args, message",
    [
        (["verify", "--suite", "u2", "--n-list", "2"], "--grid-csv needs --suite geometry"),
        (["gen", "grvv", "--n", "4", "--partition", "2,3"], "disagrees with --partition"),
        (["gen", "su2", "--dims", "2", "--dress", "3"], "gen su2 takes no --dress"),
    ],
)
def test_ignored_options_are_usage_errors(tmp_path, capsys, args, message):
    csv_path = tmp_path / "grid.csv"
    if args[0] == "verify":
        args = args + ["--grid-csv", str(csv_path)]
    assert run(args) == 2
    assert message in capsys.readouterr().err
    assert not csv_path.exists()


def test_verify_grid_needs_geometry(capsys):
    assert run(["verify", "--suite", "u2", "--n-list", "2", "--grid", "8x8"]) == 2
    captured = capsys.readouterr()
    assert "--grid needs --suite geometry" in captured.err and captured.out == ""
    # unset, the report still names the default grid
    assert run(["verify", "--suite", "u2", "--n-list", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["grid"] == "64x128"


def test_out_of_memory_is_a_usage_error(monkeypatch, capsys):
    # grid_report allocates its arrays before the first block: a grid too
    # large to hold them fails there, before any block runs
    def block(theta, phi):
        raise AssertionError("a grid block ran before the arrays were allocated")

    monkeypatch.setattr(geometry, "_grid_block", block)
    assert run(["verify", "--suite", "geometry", "--grid", "100000x100000"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: Unable to allocate")
    assert "Traceback" not in err


def test_gen_grvv_stdout_matches_out_file(tmp_path):
    # stdout block-buffered, as in a pipe: bytes written before the workers
    # fork must reach the output once
    src = os.path.dirname(os.path.dirname(fuzzball.__file__))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    args = [sys.executable, "-m", "fuzzball", "gen", "grvv", "--n", "300", "--dress", "1"]
    out = tmp_path / "g.json"
    subprocess.run(args + ["--out", str(out)], check=True, env=env)
    piped = subprocess.run(args, capture_output=True, check=True, env=env).stdout
    assert piped == out.read_bytes()


@pytest.fixture
def deadline():
    """Fail, instead of hanging the suite, a test still running after 60 s."""

    def expired(signum, frame):
        pytest.fail("still running after 60 s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def _out_of_memory(index):
    raise MemoryError(f"no room for block {index}")


def _killed(index):
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize(
    "failure, message",
    [(_out_of_memory, "error: out of memory: no room for block"),
     (_killed, "error: a block worker died")],
)
def test_worker_failure_is_a_usage_error(tmp_path, capsys, forks, monkeypatch, deadline,
                                         failure, message):
    # three workers, and only block 0 fails: workers 1 and 2 are blocked
    # writing blocks larger than a pipe holds until the parent closes its
    # read ends
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    parent = os.getpid()
    format_block = matcore._matrix_block

    def failing(a, index):
        if os.getpid() != parent and index == 0:
            failure(index)
        return format_block(a, index)

    monkeypatch.setattr(matcore, "_matrix_block", failing)
    assert run(["gen", "grvv", "--n", "256", "--out", str(tmp_path / "f.json")]) == 2
    assert capsys.readouterr().err.startswith(message)
    # no worker forked for the second matrix; the forks fixture checks that
    # the three were reaped
    assert len(forks) == 3


@pytest.mark.parametrize(
    "failure, message",
    [(_out_of_memory, "error: out of memory: no room for block"),
     (_killed, "error: a block worker died")],
)
def test_grid_worker_failure_is_a_usage_error(tmp_path, capsys, forks, monkeypatch, deadline,
                                              failure, message):
    # as for the writers: three workers, only the first block fails, and the
    # other workers are blocked writing 512 KiB blocks (more than a pipe
    # holds) until the parent closes its read ends
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    parent = os.getpid()
    first = geometry.SphereGrid.make(160, 512).theta[0]
    grid_block = geometry._grid_block

    def failing(theta, phi):
        if os.getpid() != parent and theta[0, 0] == first:
            failure(0)
        return grid_block(theta, phi)

    monkeypatch.setattr(geometry, "_grid_block", failing)
    out = tmp_path / "geo.json"
    args = ["verify", "--suite", "geometry", "--grid", "160x512", "--n-list", "2"]
    assert run(args + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(message)
    assert not out.exists()
    # the grid pass failed, so no other worker forked; the forks fixture
    # checks that the three were reaped
    assert len(forks) == 3


@pytest.mark.parametrize("csv_out, workers", [(True, 4), (False, 2)], ids=["csv", "no_csv"])
def test_verify_geometry_evaluates_the_grid_once(tmp_path, forks, csv_out, workers):
    # two workers for the one grid pass, two for the CSV writer; the grid
    # used to be evaluated in three pooled passes (8 and 6 workers)
    args = ["verify", "--suite", "geometry", "--n-list", "2", "--grid", "128x16",
            "--out", str(tmp_path / "geo.json")]
    if csv_out:
        args += ["--grid-csv", str(tmp_path / "grid.csv")]
    assert run(args) == 0
    assert len(forks) == workers


def test_identification_coordinate_is_the_spinor_coordinates_maximum(tmp_path, forks):
    # check (a) is read off the per-point spinor_coordinates rows, also when
    # the blocks come from forked workers
    out = tmp_path / "geo.json"
    args = ["verify", "--suite", "geometry", "--grid", "160x48", "--n-list", "3"]
    assert run(args + ["--out", str(out)]) == 0
    rows = {r["name"]: r["residual"] for r in json.loads(out.read_text())["results"]}
    residuals = geometry.grid_report(geometry.SphereGrid.make(160, 48)).residuals
    assert rows["identification_coordinate"] == float(np.max(residuals["spinor_coordinates"]))


def test_verify_geometry_rows_equal_full_grid_oracles(tmp_path):
    # the blocked passes (pooled on a multi-CPU host) reduce with max, which
    # is exact: every grid row equals the full-grid oracle's value
    out = tmp_path / "geo.json"
    args = ["verify", "--suite", "geometry", "--grid", "256x512", "--n-list", "2"]
    assert run(args + ["--out", str(out)]) == 0
    rows = {r["name"]: r["residual"] for r in json.loads(out.read_text())["results"]}
    grid = geometry.SphereGrid.make(256, 512)
    residuals = dense_oracles.grid_report(grid)
    for name in GRID_ROWS:
        assert rows[name] == float(np.max(residuals[name])), name
    assert rows["s_unitarity"] == dense_oracles.s_unitarity(grid)
    rep = dense_oracles.identification_check(grid)
    assert rows["identification_coordinate"] == rep.coordinate
    assert rows["identification_local_phase"] == rep.local_phase
    assert rows["identification_dx"] == rep.dx_agreement
    assert rows["identification_order_b"] == abs(rep.order_b - 2.0)
    assert rows["identification_order_c"] == abs(rep.order_c - 2.0)
