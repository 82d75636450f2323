import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fuzzball.grvv import ground_state
from fuzzball.harmonics import (
    build_basis,
    classical_ylm,
    classical_ylm_dtheta,
    decompose_adjoint,
    decompose_bifundamental,
    decompose_ubar,
    reconstruct_adjoint,
    reconstruct_bifundamental,
    reconstruct_ubar,
)
from fuzzball.matcore import commutator, dagger, frobenius_norm, random_unitary
from fuzzball.spectra import coherent_state, fuzzy_laplacian_spectrum, scalar_kinetic_spectrum
from fuzzball.su2rep import Su2Representation, direct_sum, irrep


def gram_matrix(basis):
    keys = basis.keys()
    # indexing builds the element on every call: build each one once
    ys = {k: basis[k] for k in keys}
    return np.array(
        [[np.trace(dagger(ys[a]) @ ys[b]) for b in keys] for a in keys]
    )


def test_basis_n1():
    basis = build_basis(irrep(1))
    assert basis.keys() == [(0, 0)]
    assert_allclose(basis[(0, 0)], np.eye(1))


def test_basis_n2():
    basis = build_basis(irrep(2))
    assert len(basis.keys()) == 4
    assert_allclose(basis[(0, 0)], np.eye(2), atol=1e-14)
    rep = irrep(2)
    jp = rep.j1 + 1j * rep.j2
    # l = 1 elements are proportional to the ladder triple
    assert frobenius_norm(basis[(1, 1)] + jp / np.sqrt(2)) < 1e-13
    assert frobenius_norm(basis[(1, 0)] - rep.j3) < 1e-13


@pytest.mark.parametrize("n", [2, 4, 8])
def test_basis_counts_and_gram(n):
    basis = build_basis(irrep(n))
    assert len(basis.keys()) == n * n
    gram = gram_matrix(basis)
    assert np.max(np.abs(gram - n * np.eye(n * n))) < 1e-12 * n


def test_basis_rejects_reducible():
    with pytest.raises(ValueError):
        build_basis(direct_sum([irrep(2), irrep(2)]))


def planted_phase(n, phase, seed=7):
    """A rotated irrep(n) whose J_+ takes the phase e^{i phase} on one band
    entry while J_- keeps its own: no longer a representation."""
    j1, j2, j3 = irrep(n).generators
    jp, jm = j1 + 1j * j2, j1 - 1j * j2
    jp[n // 2, n // 2 - 1] *= np.exp(1j * phase)
    u = random_unitary(n, np.random.default_rng(seed))
    gens = ((jp + jm) / 2, (jp - jm) / 2j, j3)
    return Su2Representation(*(u @ g @ dagger(u) for g in gens), partition=(n,))


@pytest.mark.parametrize("phase", [1e-3, 1e-6, 1e-9])
@pytest.mark.parametrize(
    "kernel",
    [build_basis, fuzzy_laplacian_spectrum, scalar_kinetic_spectrum,
     lambda rep: coherent_state(rep, 0.3, 0.4)],
    ids=["build_basis", "laplacian", "kinetic", "coherent_state"],
)
def test_planted_band_phase_is_refused(kernel, phase):
    # the kernels read the weight frame's bands as real: that is checked by
    # weight_frame's defect against the real exact irrep, never assumed
    with pytest.raises(ValueError, match="not an su\\(2\\) representation"):
        kernel(planted_phase(32, phase))


def test_basis_holds_real_nonnegative_m_only():
    n = 128
    rep = irrep(n)
    tracemalloc.start()
    try:
        basis = build_basis(rep)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert [(ys.dtype, ys.shape) for ys in basis.diagonals] == [
        (np.float64, (n - m, n - m)) for m in range(n)
    ]
    # the real diagonals m = 0..N-1 and the complex frame U, nothing more
    assert held <= 1.05 * (8 * sum((n - m) ** 2 for m in range(n)) + 16 * n * n)


@pytest.mark.parametrize("n", [3, 8, 16])
def test_adjoint_action_eigenvalues(n):
    rep = irrep(n)
    basis = build_basis(rep)
    for (l, m) in basis.keys():
        y = basis[(l, m)]
        assert frobenius_norm(commutator(rep.j3, y) - 2 * m * y) < 1e-12 * n
    # adjoint Laplacian eigenvalue 4 l (l + 1)
    worst = 0.0
    for (l, m) in basis.keys():
        y = basis[(l, m)]
        lap = sum(commutator(g, commutator(g, y)) for g in rep.generators)
        ref = 4.0 * l * (l + 1)
        worst = max(worst, frobenius_norm(lap - ref * y) / max(ref, 1.0))
    assert worst < 1e-10


def test_decompose_adjoint():
    rep = irrep(4)
    basis = build_basis(rep)
    coeffs = decompose_adjoint(np.eye(4), basis)
    assert coeffs[(0, 0)] == pytest.approx(1.0)
    assert max(abs(c) for k, c in coeffs.items() if k != (0, 0)) < 1e-14
    coeffs = decompose_adjoint(rep.j3, basis)
    big = {k for k, c in coeffs.items() if abs(c) > 1e-12}
    assert big == {(1, 0)}
    rng = np.random.default_rng(0)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    a = (a + dagger(a)) / 2
    back = reconstruct_adjoint(decompose_adjoint(a, basis), basis)
    assert frobenius_norm(back - a) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 5, 33])
def test_reconstruct_adjoint_takes_array_coefficients(n):
    basis = build_basis(irrep(n))
    rng = np.random.default_rng(n)
    coeffs = {k: rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for k in basis.keys()}
    mats = reconstruct_adjoint(coeffs, basis)
    assert mats.shape == (2, 2, n, n)
    for a in range(2):
        for b in range(2):
            scalar = reconstruct_adjoint({k: c[a, b] for k, c in coeffs.items()}, basis)
            assert np.array_equal(mats[a, b], scalar)
    assert np.array_equal(reconstruct_adjoint({}, basis), np.zeros((n, n)))


def test_decompose_adjoint_shape_check():
    basis = build_basis(irrep(3))
    with pytest.raises(ValueError):
        decompose_adjoint(np.eye(4), basis)


def test_hom_spanning_rank():
    # the products Y_lm g^b with l <= n - 2 span an n(n-1)-dimensional space
    for n in (3, 4, 5):
        sol = ground_state(n)
        basis = build_basis(irrep(n))
        cols = []
        for l in range(n - 1):
            for m in range(-l, l + 1):
                for g in sol.matrices:
                    cols.append((basis[(l, m)] @ g).reshape(-1))
        rank = np.linalg.matrix_rank(np.array(cols).T, tol=1e-10)
        assert rank == n * (n - 1)


def test_decompose_ubar():
    n = 4
    sol = ground_state(n)
    e11 = np.zeros((n, n))
    e11[0, 0] = 1.0
    modes = decompose_ubar(e11, sol)
    assert modes.a0 == pytest.approx(1.0)
    assert all(abs(c) < 1e-14 for c in modes.a_lm.values())
    assert np.all(np.abs(modes.b) < 1e-14) and np.all(np.abs(modes.bbar) < 1e-14)

    from fuzzball.su2rep import bilinears

    jb3 = bilinears(sol).jbar_i[2]
    modes = decompose_ubar(jb3, sol)
    big = {k for k, c in modes.a_lm.items() if abs(c) > 1e-12}
    assert big == {(1, 0)}
    assert abs(modes.a0) < 1e-13


def test_decompose_ubar_random_roundtrip():
    n = 5
    sol = ground_state(n)
    rng = np.random.default_rng(1)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    modes = decompose_ubar(a, sol)
    # 1 + (n-1)^2 + 2(n-1) coefficients resolve all n^2 entries
    count = 1 + len(modes.a_lm) + modes.b.size + modes.bbar.size
    assert count == n * n
    assert frobenius_norm(reconstruct_ubar(modes, n) - a) < 1e-12


def test_bifundamental_identity_fluctuation():
    sol = ground_state(4)
    modes = decompose_bifundamental(sol.g1, sol.g2, sol)
    assert modes.r_coeffs[(0, 0)] == pytest.approx(1.0)
    others = [abs(c) for k, c in modes.r_coeffs.items() if k != (0, 0)]
    assert max(others) < 1e-12
    assert max(np.max(np.abs(s)) for s in modes.s_coeffs.values()) < 1e-12
    assert np.max(np.abs(modes.t_coeffs)) < 1e-12
    assert modes.residual < 1e-12


def test_bifundamental_edge_mode():
    n = 4
    sol = ground_state(n)
    r1 = np.zeros((n, n), dtype=complex)
    r1[0, 0] = 1.0  # the (1,1) elementary matrix
    modes = decompose_bifundamental(r1, np.zeros((n, n)), sol)
    assert modes.t_coeffs[0, 0] == pytest.approx(1.0)
    assert np.sum(np.abs(modes.t_coeffs) > 1e-12) == 1
    assert max(abs(c) for c in modes.r_coeffs.values()) < 1e-12
    assert max(np.max(np.abs(s)) for s in modes.s_coeffs.values()) < 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_bifundamental_random_roundtrip(seed):
    n = 4
    sol = ground_state(n)
    rng = np.random.default_rng(seed)
    r1 = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    r2 = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    modes = decompose_bifundamental(r1, r2, sol)
    assert modes.residual < 1e-11
    # edge modes carry exactly the first column
    rec = reconstruct_bifundamental(modes, sol)
    assert frobenius_norm(rec[0] - r1) < 1e-11
    assert frobenius_norm(rec[1] - r2) < 1e-11
    trimmed = modes.t_coeffs.copy()
    import dataclasses

    no_edge = dataclasses.replace(modes, t_coeffs=np.zeros_like(trimmed))
    rec0 = reconstruct_bifundamental(no_edge, sol)
    assert np.max(np.abs(rec0[0][:, 0])) < 1e-13
    assert np.max(np.abs(rec0[1][:, 0])) < 1e-13


def test_bifundamental_idempotent():
    n = 3
    sol = ground_state(n)
    rng = np.random.default_rng(9)
    r1 = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    r2 = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m1 = decompose_bifundamental(r1, r2, sol)
    rec = reconstruct_bifundamental(m1, sol)
    m2 = decompose_bifundamental(rec[0], rec[1], sol)
    for k in m1.r_coeffs:
        assert m1.r_coeffs[k] == pytest.approx(m2.r_coeffs[k], abs=1e-10)
        assert_allclose(m1.s_coeffs[k], m2.s_coeffs[k], atol=1e-10)


def gl_grid(nt=200, npq=400):
    nodes, weights = np.polynomial.legendre.leggauss(nt)
    theta = np.arccos(nodes)
    phi = np.arange(npq) * 2 * np.pi / npq
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    w = np.broadcast_to(weights[:, None], tt.shape) * (2 * np.pi / npq) / (4 * np.pi)
    return tt, pp, w


def test_classical_ylm_values_and_orthonormality():
    tt, pp, w = gl_grid(60, 120)
    assert_allclose(classical_ylm(0, 0, tt, pp), np.ones_like(tt))
    assert_allclose(classical_ylm(1, 0, tt, pp), np.sqrt(3) * np.cos(tt), atol=1e-13)
    # Condon-Shortley sign on m = 1
    assert_allclose(
        classical_ylm(1, 1, tt, pp),
        -np.sqrt(1.5) * np.sin(tt) * np.exp(1j * pp),
        atol=1e-13,
    )
    for (l1, m1), (l2, m2) in (((1, 0), (1, 0)), ((2, 1), (2, 1)), ((2, 1), (1, 1))):
        ip = np.sum(w * np.conj(classical_ylm(l1, m1, tt, pp)) * classical_ylm(l2, m2, tt, pp))
        want = 1.0 if (l1, m1) == (l2, m2) else 0.0
        assert abs(ip - want) < 1e-12


def test_classical_ylm_derivative():
    h = 1e-6
    for l, m in ((1, 0), (2, 1), (3, -2)):
        fd = (classical_ylm(l, m, 1.1 + h, 0.7) - classical_ylm(l, m, 1.1 - h, 0.7)) / (2 * h)
        assert abs(fd - classical_ylm_dtheta(l, m, 1.1, 0.7)) < 1e-8


def test_classical_ylm_validates():
    with pytest.raises(ValueError):
        classical_ylm(1, 2, 0.3, 0.0)


def test_bifundamental_refuses_non_finite_fluctuation():
    n = 4
    r1 = np.zeros((n, n), dtype=complex)
    r1[1, 2] = np.nan
    with pytest.raises(ValueError, match="finite"):
        decompose_bifundamental(r1, np.zeros((n, n)), ground_state(n))
