import numpy as np
import pytest
from numpy.testing import assert_allclose

from fuzzball.grvv import GrvvSolution, block_solution, gauge_dress, ground_state
from fuzzball.matcore import frobenius_norm, random_unitary
from fuzzball.su2rep import (
    BilinearSet,
    Su2Representation,
    bilinears,
    casimir,
    direct_sum,
    doublet_covariance_residual,
    intertwiner_residual,
    irrep,
    su2_closure_residual,
    su2_from_bilinears,
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
    rep = su2_from_bilinears(bilinears(sol), barred=True)
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
