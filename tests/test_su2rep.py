import tracemalloc

import numpy as np
import pytest
from dense_oracles import held_covariance, held_intertwiner, held_u2_structure
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from fuzzball import su2rep
from fuzzball.cli import _dressed
from fuzzball.grvv import GrvvSolution, block_solution, gauge_dress, ground_state
from fuzzball.matcore import dagger, frobenius_norm, random_unitary
from fuzzball.su2rep import (
    BilinearSet,
    _pairs,
    _u2_residual,
    Su2Representation,
    bilinears,
    casimir,
    direct_sum,
    doublet_covariance_residual,
    intertwiner_residual,
    irrep,
    su2_closure_residual,
    u2_structure_residual,
    weight_frame,
)


def test_irrep_small():
    r = irrep(2)
    assert_allclose(r.j3, np.diag([-1.0, 1.0]))
    assert_allclose(casimir(r), 3.0 * np.eye(2), atol=1e-14)
    r1 = irrep(1)
    assert frobenius_norm(r1.j1) == 0.0
    with pytest.raises(ValueError):
        irrep(0)


@pytest.mark.parametrize("n", [2, 3, 8, 32, 64, 256])
def test_irrep_closure(n):
    assert su2_closure_residual(irrep(n).generators) < 1e-12 * n


def test_irrep_hermitian():
    r = irrep(5)
    for g in r.generators:
        assert frobenius_norm(g - g.conj().T) == 0.0


def test_direct_sum():
    assert_allclose(direct_sum([irrep(2)]).j3, irrep(2).j3)
    r = direct_sum([irrep(2), irrep(3)])
    assert r.partition == (2, 3)
    assert_allclose(np.diag(casimir(r)).real, [3, 3, 8, 8, 8], atol=1e-13)
    assert su2_closure_residual(r.generators) < 1e-12
    z = direct_sum([irrep(1), irrep(1)])
    assert frobenius_norm(z.j1) == 0.0
    with pytest.raises(ValueError):
        direct_sum([])


def test_bilinears_n2():
    b = bilinears(ground_state(2))
    assert_allclose(b.j[0], np.array([[0, 1], [1, 0]]), atol=1e-15)
    assert_allclose(b.j[1], np.array([[0, 1j], [-1j, 0]]), atol=1e-15)
    assert_allclose(b.j[2], np.diag([-1.0, 1.0]), atol=1e-15)
    # the barred block is one dimension lower: trivial at n = 2
    for g in b.jbar_i:
        assert frobenius_norm(g) == 0.0


def test_bilinear_traces():
    b = bilinears(ground_state(5))
    assert_allclose(b.trace_j, 4.0 * np.eye(5), atol=1e-13)
    target = 5.0 * np.eye(5)
    target[0, 0] = 0.0
    assert_allclose(b.trace_jbar, target, atol=1e-13)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_bilinear_casimir(n):
    b = bilinears(ground_state(n))
    rep = Su2Representation(*b.j, partition=(n,))
    assert_allclose(casimir(rep), (n**2 - 1.0) * np.eye(n), atol=1e-10 * n**2)


@pytest.mark.parametrize("n", [3, 4, 7])
def test_jbar_annihilates_first_vector(n):
    b = bilinears(ground_state(n))
    e1 = np.zeros(n)
    e1[0] = 1.0
    for g in b.jbar_i:
        assert np.linalg.norm(g @ e1) < 1e-12


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_u2_structure(n):
    assert u2_structure_residual(bilinears(ground_state(n))) < 1e-12


def test_u2_structure_zero():
    zero = block_solution([1, 1])
    assert u2_structure_residual(bilinears(zero)) == 0.0


def test_u2_structure_dressed():
    rng = np.random.default_rng(4)
    d = gauge_dress(ground_state(4), random_unitary(4, rng), random_unitary(4, rng))
    assert u2_structure_residual(bilinears(d)) < 1e-12


@pytest.mark.parametrize("side, a", [("jmat", 0), ("jmat", 1), ("jbar", 0), ("jbar", 1)])
def test_u2_refuses_non_hermitian_diagonal(side, a):
    # the skipped pairs are the adjoint images of kept ones only if the
    # diagonal entries are Hermitian: Gaussian noise there must be refused,
    # not hidden behind a finite residual
    b = bilinears(ground_state(8))
    rng = np.random.default_rng(5)
    table = [list(row) for row in getattr(b, side)]
    table[a][a] = table[a][a] + rng.normal(size=(8, 8))
    tables = {"jmat": b.jmat, "jbar": b.jbar, side: tuple(map(tuple, table))}
    noisy = BilinearSet(jmat=tables["jmat"], jbar=tables["jbar"], j=b.j, jbar_i=b.jbar_i,
                        trace_j=b.trace_j, trace_jbar=b.trace_jbar)
    with pytest.raises(ValueError, match="not Hermitian"):
        u2_structure_residual(noisy)


def test_weight_frame_accepts_a_rounding_level_zero_triple():
    # the barred triple of a dressed n = 2 doublet is spin 0 plus a zero
    # block, zero up to rounding (about 1e-16)
    rng = np.random.default_rng(1)
    sol = gauge_dress(ground_state(2), random_unitary(2, rng), random_unitary(2, rng))
    rep = Su2Representation(*bilinears(sol).jbar_i)
    assert max(frobenius_norm(g) for g in rep.generators) < 1e-15
    _, canon, defect = weight_frame(rep)
    assert canon.partition == (1, 1) and defect < 1e-15
    # a small triple that is no representation is still refused
    half = Su2Representation(*(0.5 * g for g in irrep(2).generators))
    with pytest.raises(ValueError, match="not integers"):
        weight_frame(half)


@pytest.mark.parametrize("n", [2, 5, 7])
def test_doublet_covariance(n):
    sol = ground_state(n)
    assert doublet_covariance_residual(sol) < 1e-12


def test_doublet_covariance_blocks_and_zero():
    assert doublet_covariance_residual(block_solution([2, 3])) < 1e-12
    assert doublet_covariance_residual(block_solution([1, 1])) == 0.0


def test_intertwiners():
    assert intertwiner_residual(ground_state(4)) < 1e-12
    # degenerate at n = 2: both sides of the second relation vanish
    assert intertwiner_residual(ground_state(2)) < 1e-12
    assert intertwiner_residual(ground_state(64)) < 1e-10
    with pytest.raises(ValueError):
        intertwiner_residual(block_solution([2, 3]))


def test_gauge_covariance_of_bilinears():
    rng = np.random.default_rng(8)
    n = 5
    sol = ground_state(n)
    b0 = bilinears(sol)
    worst = 0.0
    for _ in range(10):
        u = random_unitary(n, rng)
        uhat = random_unitary(n, rng)
        b1 = bilinears(gauge_dress(sol, u, uhat))
        for i in range(3):
            worst = max(
                worst,
                frobenius_norm(b1.j[i] - u @ b0.j[i] @ u.conj().T),
                frobenius_norm(b1.jbar_i[i] - uhat @ b0.jbar_i[i] @ uhat.conj().T),
            )
    assert worst < 1e-11


def test_representation_json_roundtrip():
    r = direct_sum([irrep(2), irrep(3)])
    back = Su2Representation.from_json(r.to_json())
    assert back.partition == (2, 3)
    assert_allclose(back.j2, r.j2)


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_overflowing_doublet_reads_nan():
    sol = ground_state(4)
    big = GrvvSolution(g1=1e200 * sol.g1, g2=1e200 * sol.g2, partition=(4,))
    b = bilinears(big)
    assert np.isnan(u2_structure_residual(b))
    assert np.isnan(doublet_covariance_residual(big, b))
    assert np.isnan(intertwiner_residual(big, b))
    assert np.isnan(su2_closure_residual(b.j))
    assert np.isnan(doublet_covariance_residual(big))
    assert np.isnan(intertwiner_residual(big))
    assert np.isnan(_u2_residual(big))


@pytest.mark.parametrize("n", [2, 3, 8, 17])
@pytest.mark.parametrize("dressed", [False, True])
def test_spin_maps_without_bilinears_equal_the_full_set(n, dressed):
    # without b, covariance forms only the jmat table and intertwiner keeps
    # only the triples: the same products, so the same bits
    sol = gauge_dress(ground_state(n), random_unitary(n, np.random.default_rng(n)),
                      random_unitary(n, np.random.default_rng(n + 1))) if dressed else ground_state(n)
    b = bilinears(sol)
    assert doublet_covariance_residual(sol) == doublet_covariance_residual(sol, b)
    assert intertwiner_residual(sol) == intertwiner_residual(sol, b)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 24), dressed=st.booleans(), seed=st.integers(0, 2**16))
def test_streamed_spin_maps_equal_the_held_tables(n, dressed, seed):
    # one table at a time, the same products in the same order: the same bits
    sol = _dressed(n, seed) if dressed else ground_state(n)
    b = bilinears(sol)
    j, jb = zip(*_pairs(sol.matrices, sol.daggers))
    for new, old in zip(j + jb, b.j + b.jbar_i):
        assert np.array_equal(new, old)
    assert _u2_residual(sol) == u2_structure_residual(b) == held_u2_structure(sol)
    assert doublet_covariance_residual(sol) == held_covariance(sol)
    assert intertwiner_residual(sol) == held_intertwiner(sol)


def _traced_blocks(fn, n):
    """tracemalloc peak of fn() in N x N complex matrices."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / (16 * n * n)
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("evaluator, bound", [
    # one table (4) and a defect with its right-hand side and the commutator's
    # second product; out-of-place commutators peaked at 8, and the whole
    # BilinearSet at 21
    (_u2_residual, 7.5),
    # the daggers (2) and one pair (J_i, Jbar_i) plus one side's temporaries
    # (3); with both triples held, 11, and with the BilinearSet, 18
    (intertwiner_residual, 7.5),
    # jmat (4) and one defect with its two products; both defects held, 8.01
    (doublet_covariance_residual, 8),
])
def test_spin_map_memory_is_bounded(evaluator, bound):
    n = 128
    sol = ground_state(n)
    assert _traced_blocks(lambda: evaluator(sol), n) <= bound


def test_weight_frame_memory_is_bounded():
    # the rotated triple, the exact triple it is held against and the frame
    # peak at 11.2 N x N matrices; 13.3 with the exact triple built from dense
    # irreps and copied into a direct sum
    n = 128
    rep = irrep(n)
    assert _traced_blocks(lambda: weight_frame(rep), n) <= 12


def _perturbed_tables(monkeypatch, which, perturb):
    """Make su2rep._table perturb the table of its call number ``which``."""
    table = su2rep._table
    calls = []

    def _table(x, y):
        t = table(x, y)
        calls.append(t)
        return perturb(t) if len(calls) == which else t

    monkeypatch.setattr(su2rep, "_table", _table)


@pytest.mark.parametrize("which", [1, 2])
def test_streamed_u2_refuses_unpaired_tables(monkeypatch, which):
    _perturbed_tables(monkeypatch, which,
                      lambda t: (t[0], (t[1][0] * (1 + 1e-15), t[1][1])))
    with pytest.raises(ValueError, match="adjoint-paired"):
        _u2_residual(ground_state(5))


@pytest.mark.parametrize("which", [1, 2])
def test_streamed_u2_refuses_non_hermitian_diagonals(monkeypatch, which):
    def skew(t):
        d = t[1][1] + 1e-6j * np.eye(len(t[1][1]))
        assert frobenius_norm(d - dagger(d)) > 0
        return (t[0], (t[1][0], d))

    _perturbed_tables(monkeypatch, which, skew)
    with pytest.raises(ValueError, match="not Hermitian"):
        _u2_residual(ground_state(5))
