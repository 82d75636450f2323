import math
import tracemalloc

import numpy as np
import pytest
from dense_oracles import (
    SuperMatrixSet,
    anticommutator,
    build,
    held_calibrate,
    sliced_calibrate,
    sliced_closure_residual,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from fuzzball.cli import _dressed
from fuzzball.grvv import GrvvSolution, ground_state
from fuzzball.matcore import commutator, dagger, frobenius_norm
from fuzzball.su2rep import EPS3, PAULI, _pairs
from fuzzball.superalg import (
    CONVENTIONS,
    EPS_LOWER,
    CalibrationResult,
    _Brackets,
    _sigma_lowered,
    calibrate,
)


def superadjoint(m, n):
    a = m[:n, :n]
    b = m[:n, n:]
    c = m[n:, :n]
    d = m[n:, n:]
    return np.block([[dagger(a), dagger(c)], [-dagger(b), dagger(d)]])


def test_build_structure_n2():
    sol = ground_state(2)
    sms = build(sol, scale=1.0)
    n = 2
    for e in sms.even:
        # even generators block-diagonal and Hermitian; barred block trivial
        assert frobenius_norm(e[:n, n:]) == 0.0
        assert frobenius_norm(e - dagger(e)) < 1e-14
        assert frobenius_norm(e[n:, n:]) == 0.0
    g = sol.matrices
    assert_allclose(sms.odd[0][:n, n:], -g[1])  # lowered index flips the doublet
    assert_allclose(sms.odd[1][:n, n:], g[0])
    assert_allclose(sms.odd[0][n:, :n], -dagger(g[0]))
    assert_allclose(sms.odd[1][n:, :n], -dagger(g[1]))


def test_build_zero_solution():
    zero = GrvvSolution(g1=np.zeros((2, 2)), g2=np.zeros((2, 2)))
    sms = build(zero)
    assert all(frobenius_norm(m) == 0.0 for m in sms.even + sms.odd)
    assert sliced_closure_residual(sms, "eps_left") == (0.0, 0.0, 0.0)


def test_odd_generators_superadjoint_pairing():
    # the superadjoint sends the lowered odd doublet to minus its raised
    # partner: (Q_a)^ddag = -sum_b eps^{ab} Q_b with eps^{..} = -eps_lower
    sol = ground_state(3)
    sms = build(sol, scale=1.0)
    eps_upper = -EPS_LOWER
    for a in range(2):
        lhs = superadjoint(sms.odd[a], 3)
        rhs = -sum(eps_upper[a, b] * sms.odd[b] for b in range(2))
        assert frobenius_norm(lhs - rhs) < 1e-13


@pytest.mark.parametrize("n", [2, 3, 4])
def test_closure_at_calibrated_pair(n):
    # the supermatrices at the calibrated pair close as well
    sol = ground_state(n)
    cal = calibrate(sol)
    sms = build(sol, scale=cal.scale)
    ee, eo, oo = sliced_closure_residual(sms, cal.convention)
    assert max(ee, eo, oo) < 1e-12


def test_even_even_closure_is_scale_free():
    scales = (0.5, 1.0, 3.0)
    scores = calibrate(ground_state(5), scales, tol=np.inf).scores
    assert all(scores[c, "eps_left"][0] < 1e-12 for c in scales)


def test_calibration_unique_and_stable():
    pairs = set()
    for n in (2, 3, 4, 8, 16):
        cal = calibrate(ground_state(n))
        assert cal.total < 1e-10
        pairs.add((round(cal.scale, 12), cal.convention))
    assert pairs == {(1.0, "eps_left")}


def test_wrong_convention_fails():
    cal = calibrate(ground_state(3))
    assert cal.scores[1.0, "eps_right"][2] > 1.0


def test_printed_normalization_fails():
    # scaling the odd generators by sqrt(n) breaks the graded bracket
    cal = calibrate(ground_state(4))
    assert cal.scores[2.0, "eps_left"][2] > 1.0


def test_calibrate_requires_block():
    from fuzzball.grvv import block_solution

    with pytest.raises(ValueError):
        calibrate(block_solution([2, 2]))


def test_calibrate_empty_scale_grid():
    with pytest.raises(ValueError, match="empty scale grid"):
        calibrate(ground_state(2), scales=[])


def test_calibration_report_json():
    cal = calibrate(ground_state(2))
    obj = cal.to_json()
    assert obj["scale"] == 1.0
    assert obj["convention"] == "eps_left"
    assert len(obj["residuals"]) == 3
    # the scored grid stays out of the report
    assert set(obj) == {"schema", "scale", "convention", "residuals"}


# ---------------------------------------------------------------------------
# dense reference: every bracket as a 2N x 2N product, every index pair, and
# the supermatrices rebuilt for each (scale, convention) candidate


def dense_residuals(sms, convention):
    e = sms.even
    q = sms.odd
    ee = 0.0
    for i in range(3):
        for j in range(3):
            rhs = sum(2j * EPS3[i, j, k] * e[k] for k in range(3))
            ee = max(ee, frobenius_norm(commutator(e[i], e[j]) - rhs))
    eo = 0.0
    for i in range(3):
        for a in range(2):
            rhs = -sum(PAULI[i][a, d] * q[d] for d in range(2))
            eo = max(eo, frobenius_norm(commutator(e[i], q[a]) - rhs))
    if convention == "eps_left":
        low = [EPS_LOWER @ p.T for p in PAULI]
    else:
        low = [p.T @ EPS_LOWER for p in PAULI]
    oo = 0.0
    for a in range(2):
        for b in range(2):
            rhs = -sum(low[i][a, b] * e[i] for i in range(3))
            oo = max(oo, frobenius_norm(anticommutator(q[a], q[b]) - rhs))
    return ee, eo, oo


def dense_calibrate(sol, scales=None, tol=1e-10):
    n = sol.size
    if scales is None:
        scales = sorted(
            {0.25, 0.5, 1 / np.sqrt(2), 1.0, np.sqrt(2), 2.0, np.sqrt(n), 1 / np.sqrt(n)}
        )
    best = None
    for convention in ("eps_left", "eps_right"):
        for c in scales:
            res = dense_residuals(build(sol, scale=c), convention)
            if best is None or max(res) < best.total:
                best = CalibrationResult(float(c), convention, tuple(res))
    if best.total > tol:
        raise ArithmeticError(f"best {best.total:.3e}")
    return best


def rounding_floor(n):
    # where c * Q is not exact in floating point the two searches round it
    # differently, so rounding-level residuals agree only to about eps times
    # the size of the products (ee reaches 1.05e-10 at n=256)
    return 1e-14 * n**2.5


def assert_close_residuals(got, ref, floor=1e-15):
    for x, y in zip(got, ref):
        assert abs(x - y) <= 1e-12 * max(x, y) + floor, (got, ref)


def assert_same_calibration(sol, got, ref, floor=1e-15):
    assert_close_residuals(got.residuals, ref.residuals, floor)
    if (got.scale, got.convention) != (ref.scale, ref.convention):
        # only a tie up to rounding may pick another pair: the dense search
        # must score that pair as well as its own pick
        tied = dense_residuals(build(sol, got.scale), got.convention)
        assert abs(max(tied) - ref.total) <= 1e-12 * ref.total + floor, (got, ref)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 16, 32])
def test_calibrate_matches_dense_search(n):
    sol = ground_state(n)
    got, ref = calibrate(sol), dense_calibrate(sol)
    assert (got.scale, got.convention) == (ref.scale, ref.convention) == (1.0, "eps_left")
    assert_same_calibration(sol, got, ref)
    # dyadic scales multiply exactly, so the residuals agree as strictly as
    # at c = 1 although no candidate closes
    grid = [0.25, 0.5, 2.0, 4.0]
    got = calibrate(sol, scales=grid, tol=np.inf)
    ref = dense_calibrate(sol, scales=grid, tol=np.inf)
    assert (got.scale, got.convention) == (ref.scale, ref.convention)
    assert_same_calibration(sol, got, ref)
    grid = [0.3, 0.9, 1.7, -1.1, 2.5]
    got = calibrate(sol, scales=grid, tol=np.inf)
    ref = dense_calibrate(sol, scales=grid, tol=np.inf)
    assert (got.scale, got.convention) == (ref.scale, ref.convention)
    assert_same_calibration(sol, got, ref, rounding_floor(n))


@pytest.mark.parametrize("n", [3, 8])
@pytest.mark.parametrize("scale", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("convention", ["eps_left", "eps_right"])
def test_closure_residual_matches_dense(n, scale, convention):
    # a candidate is scored from the brackets at c = 1, the dense residuals
    # from Q scaled by c: they round alike only where c multiplies exactly
    sol = ground_state(n)
    scores = calibrate(sol, [scale], tol=np.inf).scores
    floor = 1e-15 if scale in (0.5, 1.0) else rounding_floor(n)
    assert_close_residuals(
        scores[scale, convention], dense_residuals(build(sol, scale), convention), floor
    )


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=12),
    scales=st.lists(st.floats(min_value=0.05, max_value=4.0), min_size=1, max_size=5),
    with_one=st.booleans(),
)
def test_calibrate_matches_dense_on_random_grids(n, scales, with_one):
    if with_one:
        scales = scales + [1.0]
    sol = ground_state(n)
    try:
        ref = dense_calibrate(sol, scales)
    except ArithmeticError:
        with pytest.raises(ArithmeticError):
            calibrate(sol, scales)
        return
    assert_same_calibration(sol, calibrate(sol, scales), ref, rounding_floor(n))


def test_calibration_failure_names_the_bracket():
    with pytest.raises(ArithmeticError, match=r"\boo\b.*tol 1\.0e-10"):
        calibrate(ground_state(4), scales=[0.5, 2.0])


@pytest.mark.parametrize("part, row, col", [("even", 0, 3), ("even", 4, 1), ("odd", 0, 0), ("odd", 5, 5)])
def test_closure_refuses_broken_block_structure(part, row, col):
    # the sliced oracle refuses a block it would drop
    sms = build(ground_state(3))
    mats = [m.copy() for m in getattr(sms, part)]
    mats[1][row, col] = 1e-300
    broken = SuperMatrixSet(
        even=tuple(mats) if part == "even" else sms.even,
        odd=tuple(mats) if part == "odd" else sms.odd,
        scale=1.0,
    )
    with pytest.raises(ValueError, match="block"):
        sliced_closure_residual(broken)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=24),
    dressed=st.booleans(),
    scales=st.one_of(
        st.none(), st.lists(st.floats(min_value=-4.0, max_value=4.0), min_size=1, max_size=5)
    ),
)
def test_block_brackets_equal_the_sliced_supermatrices(n, dressed, scales):
    # the blocks taken from bilinears and the doublet enter the same products
    # in the same order as the blocks sliced out of build(sol, 1.0), and as
    # T_a, B_a held as matrices: each product formed from g and gd takes its
    # sign exactly, and the three odd-odd keys score what all four did; so
    # every candidate's (ee, eo, oo), not only the winner's, is the held
    # search's to the last bit
    sol = _dressed(n, 0) if dressed else ground_state(n)
    got = calibrate(sol, scales=scales, tol=np.inf)
    held = held_calibrate(sol, scales)
    assert got == sliced_calibrate(sol, scales) == held
    assert list(got.scores) == list(held.scores)
    assert all(got.scores[key] == held.scores[key] for key in held.scores)


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_overflowing_doublet_reads_nan():
    sol = ground_state(4)
    big = GrvvSolution(g1=1e155 * sol.g1, g2=1e155 * sol.g2, partition=(4,))
    # every bracket family reads NaN
    br = _Brackets(*zip(*_pairs(big.matrices, big.daggers)), big.matrices, big.daggers)
    assert math.isnan(br.ee) and math.isnan(br.eo)
    oo = br.odd_odd()
    assert all(map(math.isnan, oo["eps_left"] + oo["eps_right"]))
    # a NaN residual is within no tolerance, not even an infinite one
    for tol in (1e-10, np.inf):
        with pytest.raises(ArithmeticError, match=r"\bee\b bracket at nan"):
            calibrate(big, tol=tol)
    assert math.isnan(CalibrationResult(1.0, "eps_left", (0.0, math.nan, 1.0)).total)


def test_calibrate_memory_is_bounded():
    # J_i, Jbar_i and the adjoints gd_a are 8 N x N matrices; beside them
    # one anticommutator block, one right-hand-side block with its partial
    # sums and the defect buffer, 12 in all; with the anticommutator blocks
    # of three keys held it peaked at 16, with T_a, B_a and a convention's
    # eight right-hand-side blocks at 22, and forming the five supermatrices
    # and slicing them at 46
    n = 128
    sol = ground_state(n)
    tracemalloc.start()
    try:
        calibrate(sol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 13 * 16 * n**2, peak / (16 * n**2)


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_lowered_symbols_are_symmetric(convention):
    # so the odd-odd key (1, 0) repeats (0, 1) bit for bit and is not scored
    for i in range(3):
        low = _sigma_lowered(i, convention)
        assert np.array_equal(low, low.T)
