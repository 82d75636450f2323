import tracemalloc

import numpy as np
import pytest
from dense_oracles import (
    dense_block_solution,
    dense_canonical_sum,
    dense_canonical_traces,
    dense_ground_state,
    dense_irrep,
    hermitian_sqrt,
    pseudo_inverse,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from fuzzball import cli, equivalence, grvv, su2rep
from fuzzball.equivalence import (
    RoundTripReport,
    barred_generators,
    canonical_traces,
    canonicalize,
    compatibility_residual,
    grvv_to_su2,
    round_trip,
    su2_to_grvv,
)
from fuzzball.grvv import (
    GrvvSolution,
    block_solution,
    gauge_dress,
    ground_state,
    sphere_constraints,
)
from fuzzball.matcore import dagger, frobenius_norm, random_unitary
from fuzzball.su2rep import (
    EPS3,
    Su2Representation,
    bilinears,
    casimir,
    direct_sum,
    irrep,
    su2_closure_residual,
    weight_frame,
)


def dressed_rep(partition, seed):
    rep = direct_sum([irrep(n) for n in partition])
    rng = np.random.default_rng(seed)
    u = random_unitary(rep.dim, rng)
    return Su2Representation(*[u @ g @ u.conj().T for g in rep.generators])


def test_grvv_to_su2_ground_state():
    rep, rep_bar, res = grvv_to_su2(ground_state(4))
    assert res["closure_j"] < 1e-12
    assert res["closure_jbar"] < 1e-12
    assert res["trace_commutes"] < 1e-12


def test_grvv_to_su2_dressed_blocks():
    rng = np.random.default_rng(2)
    sol = gauge_dress(block_solution([2, 3]), random_unitary(5, rng), random_unitary(5, rng))
    _, _, res = grvv_to_su2(sol)
    assert res["closure_j"] < 1e-11 and res["closure_jbar"] < 1e-11


def quadratic_closure_residual(gens):
    """max_k || J_k + (i/2) eps_ijk J_i J_j ||_F, the form grvv_to_su2 used to
    report: half of the commutator defect."""
    return max(
        frobenius_norm(
            gens[k]
            + sum(0.5j * EPS3[i, j, k] * (gens[i] @ gens[j]) for i in range(3) for j in range(3))
        )
        for k in range(3)
    )


def test_grvv_to_su2_closure_is_the_commutator_defect():
    rng = np.random.default_rng(9)
    sol = gauge_dress(block_solution([3, 2]), random_unitary(5, rng), random_unitary(5, rng))
    _, _, res = grvv_to_su2(sol)
    b = bilinears(sol)
    assert res["closure_j"] == su2_closure_residual(b.j)
    assert res["closure_jbar"] == su2_closure_residual(b.jbar_i)
    assert res["closure_j"] > 0
    assert_allclose(res["closure_j"], 2 * quadratic_closure_residual(b.j), rtol=1e-6)
    assert_allclose(res["closure_jbar"], 2 * quadratic_closure_residual(b.jbar_i), rtol=1e-6)


def test_grvv_to_su2_zero_solution():
    zero = GrvvSolution(g1=np.zeros((2, 2)), g2=np.zeros((2, 2)))
    rep, _, res = grvv_to_su2(zero)
    assert frobenius_norm(rep.j1) == 0.0
    assert res["closure_j"] == 0.0


def test_grvv_to_su2_rejects_non_solution():
    bad = GrvvSolution(g1=np.eye(2), g2=np.eye(2))
    with pytest.raises(ValueError):
        grvv_to_su2(bad)


def test_canonicalize_recovers_blocks():
    rep = dressed_rep([2, 2, 4], seed=5)
    canon, v = canonicalize(rep)
    assert canon.partition == (2, 2, 4)
    ref = direct_sum([irrep(2), irrep(2), irrep(4)])
    for g, gr in zip(canon.generators, ref.generators):
        assert frobenius_norm(g - gr) < 1e-12
    assert frobenius_norm(v.conj().T @ v - np.eye(8)) < 1e-12


def test_su2_to_grvv_irreducible():
    result = su2_to_grvv(irrep(2))
    assert_allclose(result.solution.g1, ground_state(2).g1, atol=1e-13)
    assert_allclose(result.solution.g2, ground_state(2).g2, atol=1e-13)
    r3 = su2_to_grvv(irrep(3))
    assert_allclose(r3.solution.g1, ground_state(3).g1, atol=1e-13)
    assert_allclose(r3.solution.g2, ground_state(3).g2, atol=1e-13)


def test_su2_to_grvv_trivial():
    result = su2_to_grvv(irrep(1))
    assert frobenius_norm(result.solution.g1) == 0.0
    assert result.residuals["grvv"] == 0.0


def test_su2_to_grvv_blocks():
    rep = direct_sum([irrep(2), irrep(3)])
    result = su2_to_grvv(rep)
    assert result.residuals["grvv"] < 1e-11
    assert result.residuals["kernel_columns"] < 1e-12
    ref = block_solution([2, 3])
    assert frobenius_norm(result.solution.g1 - ref.g1) < 1e-12


def test_su2_to_grvv_sphere_constraints_all_sizes():
    worst = 0.0
    for n in range(1, 65):
        left, right = sphere_constraints(su2_to_grvv(irrep(n)).solution)
        worst = max(worst, left, right)
    assert worst < 1e-10


def test_su2_to_grvv_requires_canonical_form():
    rep = dressed_rep([3], seed=0)
    with pytest.raises(ValueError):
        su2_to_grvv(rep)
    canon, _ = canonicalize(rep)
    assert su2_to_grvv(canon).residuals["grvv"] < 1e-11


def test_hatted_doublet_from_barred_data():
    # the barred-side reconstruction reproduces g1 but loses the kernel
    # column of g2 (the pseudo-inverse annihilates it)
    result = su2_to_grvv(irrep(3))
    assert_allclose(result.ghat1, ground_state(3).g1, atol=1e-12)
    g2 = ground_state(3).g2.copy()
    g2[0, :] = 0.0
    assert_allclose(result.ghat2, g2, atol=1e-12)


def test_compatibility_identity():
    assert compatibility_residual(irrep(4), np.eye(4)) < 1e-11
    rep = direct_sum([irrep(2), irrep(2)])
    assert compatibility_residual(rep, np.eye(4)) < 1e-11


def test_compatibility_random_unitary_fails():
    rng = np.random.default_rng(3)
    u = random_unitary(3, rng)
    assert compatibility_residual(irrep(3), u) > 1e-3


def test_compatibility_rejects_non_unitary():
    with pytest.raises(ValueError):
        compatibility_residual(irrep(3), 2.0 * np.eye(3))


@pytest.mark.parametrize("factor", [0.5, 2.0])
def test_unitarity_guards_sit_at_1e_10_n(factor):
    # ||U^dag U - 1||_F of U = diag(sqrt(1 + d), 1, ...) is d; the guards of
    # gauge_dress and compatibility_residual accept d up to 1e-10 N
    n = 4
    u = np.eye(n, dtype=complex)
    u[0, 0] = np.sqrt(1.0 + factor * 1e-10 * n)
    assert frobenius_norm(dagger(u) @ u - np.eye(n)) == pytest.approx(factor * 1e-10 * n)
    calls = {
        "left factor": lambda: gauge_dress(ground_state(n), u, np.eye(n)),
        "right factor": lambda: gauge_dress(ground_state(n), np.eye(n), u),
        "unitary argument": lambda: compatibility_residual(irrep(n), u),
    }
    for message, call in calls.items():
        if factor < 1:
            call()
        else:
            with pytest.raises(ValueError, match=message):
                call()


def moved_band(rep, row, delta):
    """rep with the J_+ entry (row, row - 1) moved by delta, J_- = J_+^dag kept."""
    jp = rep.j1 + 1j * rep.j2
    jp[row, row - 1] += delta
    jm = dagger(jp)
    return Su2Representation((jp + jm) / 2, (jp - jm) / 2j, rep.j3, partition=rep.partition)


@pytest.mark.parametrize("convert", [
    su2_to_grvv,
    lambda rep: compatibility_residual(rep, np.eye(rep.dim)),
], ids=["su2_to_grvv", "compatibility_residual"])
def test_canonical_form_refusals(convert):
    gens = irrep(3).generators
    with pytest.raises(ValueError, match="no partition recorded"):
        convert(Su2Representation(*gens))
    for partition in [(2,), (4,), (1, 1)]:
        with pytest.raises(ValueError, match="partition does not match the dimension"):
            convert(Su2Representation(*gens, partition=partition))
    # the sizes sum to the dimension, so only the block size refuses them
    for partition in [(0, 3), (3, 0), (-1, 4)]:
        with pytest.raises(ValueError, match="each of size at least 1"):
            convert(Su2Representation(*gens, partition=partition))
    # the defect is delta / sqrt(2) against 1e-8 N
    with pytest.raises(ValueError, match="not in canonical block form; run canonicalize"):
        convert(moved_band(irrep(8), 5, 1e-6))
    convert(moved_band(irrep(8), 5, 1e-12))
    # at half and at twice the threshold
    convert(moved_band(irrep(8), 5, 0.5 * 8e-8 * np.sqrt(2)))
    with pytest.raises(ValueError, match="not in canonical block form; run canonicalize"):
        convert(moved_band(irrep(8), 5, 2.0 * 8e-8 * np.sqrt(2)))


@settings(max_examples=60, deadline=None)
@given(partition=st.lists(st.integers(1, 9), min_size=1, max_size=4))
def test_canonical_layout_is_byte_equal_to_the_dense_oracles(partition):
    # the bytes, so the signed zeros of each block join count too
    def same(ours, ref):
        assert len(ours) == len(ref)
        for a, b in zip(ours, ref):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()

    exact = dense_canonical_sum(partition)
    ours = su2rep._canonical_sum(partition)
    assert ours.partition == exact.partition
    same(ours.generators, exact.generators)
    barred = [m for n in partition for m in (1, n - 1) if m]
    same(barred_generators(partition), dense_canonical_sum(barred).generators)
    sol, ref = block_solution(partition), dense_block_solution(partition)
    assert sol.partition == ref.partition
    same(sol.matrices, ref.matrices)
    for n in partition:
        same(irrep(n).generators, dense_irrep(n).generators)
        same(ground_state(n).matrices, dense_ground_state(n).matrices)
    for ours, ref in zip(canonical_traces(partition), dense_canonical_traces(partition)):
        assert np.array_equal(ours, np.diagonal(ref))


@pytest.mark.parametrize("partition", [[2], [3], [5], [2, 3], [2, 2, 4]])
def test_round_trip_representations(partition, tol=1e-10):
    rep = direct_sum([irrep(n) for n in partition])
    report = round_trip(rep)
    assert report.tol == tol and report.passed, report.to_json()


def test_round_trip_trivial():
    assert round_trip(irrep(1)).passed


def test_round_trip_solutions():
    assert round_trip(ground_state(5)).passed
    rng = np.random.default_rng(6)
    sol = gauge_dress(block_solution([2, 4]), random_unitary(6, rng), random_unitary(6, rng))
    report = round_trip(sol)
    assert report.passed, report.to_json()


def test_round_trip_casimir_preserved():
    rep = dressed_rep([2, 3], seed=9)
    canon, _ = canonicalize(rep)
    back, _, _ = grvv_to_su2(su2_to_grvv(canon).solution)
    c1 = np.sort(np.linalg.eigvalsh(casimir(rep)))
    c2 = np.sort(np.linalg.eigvalsh(casimir(back)))
    assert np.max(np.abs(c1 - c2)) < 1e-10


def test_round_trip_report_json():
    obj = round_trip(ground_state(3)).to_json()
    assert obj["passed"] is True
    assert len(obj["steps"]) >= 5
    names = {s["name"] for s in obj["steps"]}
    assert "bilinear_spectra" in names


def test_round_trip_rejects_other_types():
    with pytest.raises(TypeError):
        round_trip(np.eye(3))


@pytest.mark.parametrize("partition,seed", [((2, 2, 2, 3, 3), 0), ((1, 1, 2), 1), ((1, 4, 4, 1), 2)])
def test_canonicalize_degenerate_and_singleton_blocks(partition, seed):
    rep = dressed_rep(list(partition), seed=seed)
    canon, _ = canonicalize(rep)
    assert canon.partition == tuple(sorted(partition))
    result = su2_to_grvv(canon)
    assert result.residuals["grvv"] < 1e-11
    assert round_trip(canon).passed


# ---------------------------------------------------------------------------
# the block-aware weight frame behind canonicalize


def relative_defect(rep, canon, v):
    """max_i ||V^dag J_i V - exact||_F / max_i ||J_i||_F, recomputed from V
    (the absolute defect when every block is a singlet and J vanishes)."""
    exact = direct_sum([irrep(n) for n in canon.partition])
    defect = max(
        frobenius_norm(dagger(v) @ g @ v - e) for g, e in zip(rep.generators, exact.generators)
    )
    return defect / (max(frobenius_norm(g) for g in rep.generators) or 1.0)


@pytest.mark.parametrize(
    "partition",
    [(32,), (64,), (128,), (256,), (3, 5, 5, 8), (20, 40, 60), (64, 64, 128),
     (2, 2, 2, 3, 3), (1, 1, 2), (1, 4, 4, 1)],
)
def test_canonicalize_relative_defect(partition):
    exact = direct_sum([irrep(n) for n in partition])
    for rep in (exact, dressed_rep(list(partition), seed=11)):
        canon, v = canonicalize(rep)
        assert canon.partition == tuple(sorted(partition))
        assert relative_defect(rep, canon, v) <= 1e-13


@settings(max_examples=30, deadline=None)
@given(
    partition=st.lists(st.integers(min_value=1, max_value=16), min_size=1, max_size=5),
    seed=st.integers(0, 2**32 - 1),
)
def test_weight_frame_property(partition, seed):
    rep = dressed_rep(partition, seed)
    v, canon, defect = weight_frame(rep)
    assert canon.partition == tuple(sorted(partition))
    assert frobenius_norm(dagger(v) @ v - np.eye(rep.dim)) <= 1e-12
    assert defect <= 1e-13
    assert relative_defect(rep, canon, v) <= 1e-13
    report = round_trip(rep)
    assert report.passed, report.to_json()
    assert dict(report.steps)["canonical_frame"] == defect


def noisy(rep, seed, size=1e-6):
    """rep with independent Hermitian noise of entry size ``size`` on each J_i."""
    rng = np.random.default_rng(seed)
    gens = []
    for g in rep.generators:
        z = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
        gens.append(g + size * (z + dagger(z)) / 2)
    return Su2Representation(*gens)


@pytest.mark.parametrize(
    "rep",
    [
        Su2Representation(*[1.5 * g for g in irrep(4).generators]),  # weights +-1.5, +-4.5
        Su2Representation(*[1.5 * g for g in irrep(3).generators]),  # integer weights 0, +-3
        Su2Representation(*[1.5 * g for g in dressed_rep([2, 3], seed=4).generators]),
        noisy(irrep(6), seed=0),
        noisy(dressed_rep([3, 4], 5), seed=1),
    ],
    ids=["scaled-4", "scaled-3", "scaled-dressed", "noisy-6", "noisy-dressed"],
)
def test_canonicalize_refuses_non_representations(rep):
    with pytest.raises(ValueError, match="not an su\\(2\\) representation"):
        canonicalize(rep)
    with pytest.raises(ValueError):
        round_trip(rep)


def dense_su2_to_grvv(rep):
    """The dense form su2_to_grvv used to take: eigensolver square roots and
    SVD pseudo-inverses of the full matrices (J + J3)/2 and its barred
    counterpart."""
    jtr, jbtr = map(np.diag, canonical_traces(rep.partition))
    jb = barred_generators(rep.partition)
    tp = pseudo_inverse(hermitian_sqrt((jtr + rep.j3) / 2))
    ttp = pseudo_inverse(hermitian_sqrt((jbtr + jb[2]) / 2))
    return (
        (jtr + rep.j3) @ tp / 2,
        (rep.j1 - 1j * rep.j2) @ tp / 2,
        ttp @ (jbtr + jb[2]) / 2,
        ttp @ (jb[0] - 1j * jb[1]) / 2,
    )


def dense_compatibility_residual(rep, u):
    jtr, jbtr = map(np.diag, canonical_traces(rep.partition))
    jb = barred_generators(rep.partition)
    t = hermitian_sqrt((jtr + rep.j3) / 2)
    ttil = hermitian_sqrt((jbtr + jb[2]) / 2)
    tp, ttp = pseudo_inverse(t), pseudo_inverse(ttil)
    uhat = t @ u @ ttp
    support = ttil @ ttp
    r1 = frobenius_norm(support @ dagger(uhat) @ uhat @ support - support)
    jm = rep.j1 - 1j * rep.j2
    jbm = jb[0] - 1j * jb[1]
    return max(r1, frobenius_norm(jbm - ttil @ ttil @ dagger(u) @ tp @ jm @ tp @ u))


@pytest.mark.parametrize(
    "partition", [(1,), (2,), (7,), (2, 3, 3), (1, 4, 4, 1)],
)
def test_entrywise_half_step_matches_dense_oracle(partition):
    for rep in (
        direct_sum([irrep(n) for n in partition]),
        canonicalize(dressed_rep(list(partition), seed=3))[0],
    ):
        result = su2_to_grvv(rep)
        ours = (result.solution.g1, result.solution.g2, result.ghat1, result.ghat2)
        for a, b in zip(ours, dense_su2_to_grvv(rep)):
            assert np.max(np.abs(a - b), initial=0.0) <= 1e-13
        u = np.eye(rep.dim)
        ours = compatibility_residual(rep, u)
        assert abs(ours - dense_compatibility_residual(rep, u)) <= 1e-13
        u = random_unitary(rep.dim, np.random.default_rng(1))
        assert_allclose(
            compatibility_residual(rep, u), dense_compatibility_residual(rep, u), rtol=1e-12
        )


@pytest.mark.parametrize("n", [48, 64])
@pytest.mark.parametrize("make", [irrep, ground_state], ids=["rep", "sol"])
def test_round_trip_regression_sizes(n, make):
    report = round_trip(make(n))
    assert report.passed, report.to_json()
    assert dict(report.steps)["canonical_frame"] <= 1e-13


def test_round_trip_worst_keeps_nan():
    # the verify rows report worst(): a NaN step must not read as the
    # largest finite one
    report = RoundTripReport(steps=(("a", 1e-12), ("b", float("nan"))), tol=1e-10)
    assert not report.passed
    assert np.isnan(report.worst())


@pytest.mark.parametrize("make, tables, svds", [
    # the input's jmat and jbar, then the rebuilt doublet's jmat; one SVD
    # per jmat, of its (0, 1) entry (10 tables and 8 SVDs with every
    # BilinearSet formed again)
    (ground_state, 3, 2),
    # the rebuilt doublet's jmat, whose triple the re-extraction closes
    # (4 tables with every BilinearSet formed, 2 with its unread jbar)
    (irrep, 1, 0),
], ids=["sol", "rep"])
def test_round_trip_forms_each_table_once(monkeypatch, make, tables, svds):
    counts = {"tables": 0, "svds": 0}
    table, svd = su2rep._table, np.linalg.svd

    def counted(fn, key):
        def call(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(su2rep, "_table", counted(table, "tables"))
    monkeypatch.setattr(np.linalg, "svd", counted(svd, "svds"))
    assert round_trip(make(12)).passed
    assert counts == {"tables": tables, "svds": svds}


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(2, 24),
    kind=st.sampled_from(["plain", "dressed", "blocks"]),
    cuts=st.sets(st.integers(1, 23), max_size=3),
    seed=st.integers(0, 2**16),
)
def test_round_trip_steps_are_the_converters_residuals(n, kind, cuts, seed):
    # round_trip forms its steps from the primitives; each keeps the meaning
    # of the converter residual it stands for, bit for bit
    if kind == "plain":
        sol = ground_state(n)
    elif kind == "dressed":
        sol = cli._dressed(n, seed)
    else:
        ends = sorted(c for c in cuts if c < n) + [n]
        sol = block_solution([b - a for a, b in zip([0] + ends, ends)])
    rep, _, res = grvv_to_su2(sol)
    canon, _ = canonicalize(rep)
    rebuilt = su2_to_grvv(canon).residuals
    steps = dict(round_trip(sol).steps)
    assert steps["input_grvv"] == res["input"]
    assert steps["closure_j"] == res["closure_j"]
    assert steps["closure_jbar"] == res["closure_jbar"]
    assert steps["rebuilt_grvv"] == rebuilt["grvv"]
    steps = dict(round_trip(rep).steps)
    assert steps["grvv_algebra"] == rebuilt["grvv"]
    assert steps["kernel_columns"] == rebuilt["kernel_columns"]


@pytest.mark.parametrize("make, cubic", [
    # the input's residual, then the rebuilt doublet's
    (ground_state, 2),
    # the rebuilt doublet's, reported as grvv_algebra and judged again by
    # the re-extraction: it was formed twice
    (irrep, 1),
], ids=["sol", "rep"])
def test_round_trip_forms_each_cubic_residual_once(monkeypatch, make, cubic):
    residual, calls = grvv.grvv_residual, []

    def counted(sol):
        calls.append(sol.size)
        return residual(sol)

    monkeypatch.setattr(grvv, "grvv_residual", counted)
    monkeypatch.setattr(equivalence, "grvv_residual", counted)
    assert round_trip(make(12)).passed
    assert calls == [12] * cubic


@pytest.mark.parametrize("make, bound", [
    # the input's triple beside the weight frame peaks at 14.2 N x N
    # matrices; 16.3 with the exact triple built from dense irreps, 19.3 with
    # its barred triple held too, 64 with both BilinearSets held
    (ground_state, 15),
    # the compatibility check's barred J_- formed after its unitarity check,
    # 14.04; 14.56 with the barred triple held through that check, 14.9 with
    # it formed beside the canonical triple and traces, 20.0 with the
    # rebuild's hatted doublet and jbar, 40 with the canonical traces and
    # barred triple held throughout and jmat formed twice
    (irrep, 14.1),
], ids=["sol", "rep"])
def test_round_trip_memory_is_bounded(make, bound):
    n = 128
    obj = make(n)
    tracemalloc.start()
    try:
        round_trip(obj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * 16 * n**2, peak / (16 * n**2)
