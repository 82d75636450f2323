import tracemalloc

import numpy as np
import pytest
from dense_oracles import held_dress, held_dressed, held_is_unitary
from numpy.testing import assert_allclose

from fuzzball.cli import _dress, _dressed
from fuzzball.grvv import (
    GrvvSolution,
    block_solution,
    gauge_dress,
    ground_state,
    grvv_residual,
    real_coordinates,
    require_solution,
    sphere_constraints,
)
from fuzzball.matcore import dagger, frobenius_norm, is_unitary, random_unitary


def test_ground_state_small_cases():
    s2 = ground_state(2)
    assert_allclose(s2.g1, np.diag([0.0, 1.0]))
    assert_allclose(s2.g2, np.array([[0.0, 1.0], [0.0, 0.0]]))
    s3 = ground_state(3)
    assert_allclose(s3.g1, np.diag([0.0, 1.0, np.sqrt(2)]))
    expected = np.zeros((3, 3))
    expected[0, 1] = np.sqrt(2)
    expected[1, 2] = 1.0
    assert_allclose(s3.g2, expected)


def test_ground_state_one_dimensional():
    s = ground_state(1)
    assert_allclose(s.g1, np.zeros((1, 1)))
    assert_allclose(s.g2, np.zeros((1, 1)))
    # g^a gd_a = 0 = N - 1 in this degenerate case
    assert sphere_constraints(s) == (0.0, 0.0)


def test_ground_state_rejects_zero():
    with pytest.raises(ValueError):
        ground_state(0)


@pytest.mark.parametrize("n", [2, 5, 9])
def test_ground_state_closed_form_entries(n):
    s = ground_state(n)
    for m in range(1, n + 1):
        assert s.g1[m - 1, m - 1] == pytest.approx(np.sqrt(m - 1))
        if m < n:
            assert s.g2[m - 1, m] == pytest.approx(np.sqrt(n - m))
    assert np.count_nonzero(s.g1) == n - 1
    assert np.count_nonzero(s.g2) == n - 1


@pytest.mark.parametrize("n", [1, 2, 3, 8, 64])
def test_ground_state_solves_cubic(n):
    assert grvv_residual(ground_state(n)) < 1e-12 * n


def test_zero_and_identity_doublets():
    zero = GrvvSolution(g1=np.zeros((3, 3)), g2=np.zeros((3, 3)))
    assert grvv_residual(zero) == 0.0
    # for g1 = g2 = 1 both cubic brackets vanish, so the defect per row is
    # the matrix itself and the worst Frobenius norm is sqrt(2)
    ident = GrvvSolution(g1=np.eye(2), g2=np.eye(2))
    assert grvv_residual(ident) == pytest.approx(np.sqrt(2))


def test_block_solution():
    assert_allclose(block_solution([2]).g1, ground_state(2).g1)
    s = block_solution([2, 3])
    assert s.partition == (2, 3)
    assert grvv_residual(s) < 1e-12
    z = block_solution([1, 1])
    assert frobenius_norm(z.g1) == 0.0 and frobenius_norm(z.g2) == 0.0
    assert grvv_residual(z) == 0.0
    with pytest.raises(ValueError):
        block_solution([])
    with pytest.raises(ValueError):
        block_solution([2, 0])


@pytest.mark.parametrize("partition", [[3], [2, 3], [1, 4, 2], [8, 8]])
def test_block_residual_scales(partition):
    s = block_solution(partition)
    assert grvv_residual(s) < 1e-12 * sum(partition)


def test_gauge_dress_identity():
    s = ground_state(3)
    d = gauge_dress(s, np.eye(3), np.eye(3))
    assert_allclose(d.g1, s.g1)
    assert d.dressed and d.partition == (3,)


def test_gauge_dress_preserves_residual():
    rng = np.random.default_rng(7)
    s = ground_state(4)
    worst = 0.0
    for _ in range(50):
        d = gauge_dress(s, random_unitary(4, rng), random_unitary(4, rng))
        worst = max(worst, grvv_residual(d))
    assert worst < 1e-11


def test_gauge_dress_phase_breaks_hermiticity():
    s = ground_state(3)
    d = gauge_dress(s, np.exp(0.3j) * np.eye(3), np.eye(3))
    assert grvv_residual(d) < 1e-12
    assert frobenius_norm(d.g1 - dagger(d.g1)) > 0.1


def test_gauge_dress_rejects_non_unitary():
    s = ground_state(2)
    with pytest.raises(ValueError):
        gauge_dress(s, 2.0 * np.eye(2), np.eye(2))


def test_sphere_constraints():
    left, right = sphere_constraints(ground_state(5))
    assert left < 1e-12 and right < 1e-12
    s = ground_state(2)
    gd = s.daggers
    total = gd[0] @ s.g1 + gd[1] @ s.g2
    assert_allclose(total, np.diag([0.0, 2.0]), atol=1e-14)
    with pytest.raises(ValueError):
        sphere_constraints(block_solution([2, 2]))


def test_doublet_internal_relations():
    # g1 gd2 g2 - g2 gd2 g1 = g1 and g2 gd1 g1 - g1 gd1 g2 = g2
    for n in (2, 3, 6):
        g1, g2 = ground_state(n).matrices
        d1, d2 = ground_state(n).daggers
        assert frobenius_norm(g1 @ d2 @ g2 - g2 @ d2 @ g1 - g1) < 1e-12
        assert frobenius_norm(g2 @ d1 @ g1 - g1 @ d1 @ g2 - g2) < 1e-12


def test_real_coordinates():
    s = ground_state(4)
    x1, x2, x3, x4 = real_coordinates(s)
    assert frobenius_norm(x2) == 0.0
    for x in (x1, x2, x3, x4):
        assert frobenius_norm(x - dagger(x)) < 1e-14
    # rebuild the doublet and check the quadratic constraint at n = 4
    g1 = x1 + 1j * x2
    g2 = x3 + 1j * x4
    total = g1 @ dagger(g1) + g2 @ dagger(g2)
    assert_allclose(total, 3.0 * np.eye(4), atol=1e-13)


def test_real_coordinates_pure_imaginary():
    s = GrvvSolution(g1=1j * np.eye(2), g2=np.zeros((2, 2)))
    x1, x2, _, _ = real_coordinates(s)
    assert frobenius_norm(x1) == 0.0
    assert_allclose(x2, np.eye(2))


def test_json_roundtrip():
    s = ground_state(3)
    back = GrvvSolution.from_json(s.to_json())
    assert_allclose(back.g1, s.g1)
    assert back.partition == (3,) and back.dressed is False


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        GrvvSolution(g1=np.zeros((2, 2)), g2=np.zeros((3, 3)))


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_overflowing_doublet_is_not_a_solution():
    # every product overflows, so the defects are NaN: the residual must say
    # so, not read 0.0, and the doublet must be refused
    sol = ground_state(4)
    big = GrvvSolution(g1=1e200 * sol.g1, g2=1e200 * sol.g2, partition=(4,))
    assert np.isnan(grvv_residual(big))
    with pytest.raises(ValueError, match="does not solve"):
        require_solution(big)


@pytest.mark.parametrize("n", [1, 2, 3, 17, 64, 130])
@pytest.mark.parametrize("seed", [0, 5, 2**31 + 7])
def test_dressing_is_byte_equal_to_the_held_dressing(n, seed):
    # the Gaussians drawn into their parts, q scaled in place, the Gram
    # defect formed in place and uhat dropped early change no bit
    got, want = _dressed(n, seed), held_dressed(n, seed)
    assert got.g1.tobytes() == want.g1.tobytes()
    assert got.g2.tobytes() == want.g2.tobytes()
    assert got.partition == want.partition and got.dressed


@pytest.mark.parametrize("seed", [1, 9])
def test_partition_dressing_is_byte_equal_to_the_held_dressing(seed):
    sol = block_solution((3, 7, 12))
    got, want = _dress(sol, seed), held_dress(sol, seed)
    assert got.g1.tobytes() == want.g1.tobytes()
    assert got.g2.tobytes() == want.g2.tobytes()


@pytest.mark.parametrize("eps", [0.0, 1e-12, 1e-9, 1e-6])
def test_is_unitary_agrees_with_the_held_check(eps):
    u = random_unitary(20, np.random.default_rng(8))
    a = u + eps * np.random.default_rng(9).normal(size=(20, 20))
    for tol in (1e-12, 1e-10, 1e-8):
        assert is_unitary(a, tol) == held_is_unitary(a, tol)
    assert not is_unitary(np.ones((2, 3))) and not held_is_unitary(np.ones((2, 3)))


def test_dressing_memory_is_bounded():
    # the ground state (2), the first unitary (1) and the second one's QR
    # (the Gaussian matrix, numpy's copy of it and both factors, 4); with
    # the Gaussians and the Gram defect held whole, and uhat kept beside its
    # adjoint through the products, it peaked at 8
    n = 128
    _dressed(4, 0)  # the lazy imports, made apart
    tracemalloc.start()
    try:
        _dressed(n, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7.5 * 16 * n**2, peak / (16 * n**2)
