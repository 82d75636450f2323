import tracemalloc

import numpy as np
import pytest
from dense_oracles import kinetic_levels, scalar_kinetic_matrix
from numpy.testing import assert_allclose

from fuzzball import spectra
from fuzzball.geometry import SphereGrid
from fuzzball.matcore import commutator
from fuzzball.spectra import (
    _kinetic_apply,
    commutator_decay,
    dirac_square_check,
    fuzzy_laplacian_spectrum,
    mode_convergence,
    scalar_kinetic_spectrum,
    spherical_spinor,
    symbol_map,
    vector_harmonics,
)
from fuzzball.harmonics import _diagonals, build_basis
from fuzzball.su2rep import direct_sum, irrep

# brute-force fixture: sorted kinetic spectrum at size 2, frozen from the
# dense diagonalization oracle
KINETIC_N2 = np.array([1.0, 1.0, 1.0, 5.0, 7.0, 7.0, 7.0, 11.0, 11.0, 11.0, 11.0, 11.0])


def laplacian_reference(n):
    return np.sort(np.concatenate([[4.0 * l * (l + 1)] * (2 * l + 1) for l in range(n)]))


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_laplacian_spectrum(n):
    ev = fuzzy_laplacian_spectrum(irrep(n))
    assert ev.size == n * n
    assert np.max(np.abs(ev - laplacian_reference(n))) < 1e-9 * max(1, 4 * n * n)


def test_laplacian_bounds():
    # no size cap: 65 was refused while the spectrum was capped at 64
    ev = fuzzy_laplacian_spectrum(irrep(65))
    assert np.max(np.abs(ev - laplacian_reference(65))) < 1e-12 * 4 * 65 * 66
    with pytest.raises(ValueError):
        fuzzy_laplacian_spectrum(direct_sum([irrep(2), irrep(2)]))


def test_commutator_decay_values():
    table = dict(commutator_decay([1, 3, 99]))
    assert table[1] == 0.0
    assert table[3] == pytest.approx(0.5, abs=1e-13)
    assert table[99] == pytest.approx(0.02, abs=1e-13)


@pytest.mark.parametrize("n", [2, 7, 33, 256])
def test_commutator_decay_closed_form(n):
    (_, value), = commutator_decay([n])
    assert abs(value - 2.0 / (n + 1)) < 1e-13


def test_kinetic_trivial_size():
    ks = scalar_kinetic_spectrum(irrep(1))
    assert_allclose(ks.eigenvalues, [1.0, 1.0, 1.0])


def test_kinetic_fixture_n2():
    ks = scalar_kinetic_spectrum(irrep(2))
    assert np.max(np.abs(ks.eigenvalues - KINETIC_N2)) < 1e-10
    # generator triple is an exact eigenvector
    assert ks.ji_triple_eigenvalue == pytest.approx(5.0, abs=1e-12)
    assert ks.ji_triple_residual < 1e-12
    # the top level is l = 1 coupled to spin 1 into j = 2
    top = ks.groups[-1]
    assert top[:4] == (11.0, 5, 1, 2) and top[4] < 1e-15


def test_kinetic_hermitian():
    k = scalar_kinetic_matrix(irrep(3))
    assert np.max(np.abs(k - k.conj().T)) < 1e-13


@pytest.mark.parametrize("n", [2, 3, 5])
def test_ji_triple_membership(n):
    ks = scalar_kinetic_spectrum(irrep(n))
    assert ks.ji_triple_eigenvalue == pytest.approx(5.0, abs=1e-10)
    assert ks.ji_triple_residual < 1e-11


@pytest.mark.parametrize("n", [1, 2, 3, 5, 12, 16, 17, 32, 64, 128])
def test_kinetic_levels_are_exact(n):
    # 17 and 32 were refused while the spectrum was capped at 16
    ks = scalar_kinetic_spectrum(irrep(n))
    assert [g[:4] for g in ks.groups] == kinetic_levels(n)
    assert max(g[4] for g in ks.groups) <= 1e-13
    ref = np.sort(np.concatenate([[eig] * mult for eig, mult, _, _ in kinetic_levels(n)]))
    assert ks.eigenvalues.size == 3 * n * n
    assert np.max(np.abs(ks.eigenvalues - ref)) <= 1e-13 * ref[-1]


@pytest.mark.parametrize("n", [128, 256])
def test_kinetic_pass_holds_o_n2_memory(n):
    # the pass holds a few diagonals' images, never the basis of N^3 / 3
    # doubles: holding it, the peak was 36.9 and 57.8 N^2 complex
    rep = irrep(n)
    tracemalloc.start()
    try:
        scalar_kinetic_spectrum(rep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (16 * n * n) <= 30


@pytest.mark.parametrize("n", [8, 16])
def test_planted_basis_defect_shows_in_the_residual(monkeypatch, n):
    # Y_{3,2} scaled by 1 + 1e-8 is still a Laplacian eigenvector, but its
    # coupled vectors are no longer kinetic ones: K must be applied to the
    # stored vectors, not read off their Laplacian levels
    def planted(bands):
        for ys in _diagonals(bands):
            if len(ys) == n - 2:
                ys = ys.copy()
                ys[3 - 2] *= 1 + 1e-8
            yield ys

    monkeypatch.setattr(spectra, "_diagonals", planted)
    groups = scalar_kinetic_spectrum(irrep(n)).groups
    assert sorted(g[3] for g in groups if g[2] == 3) == [2, 3, 4]
    for _, _, l, _, res in groups:
        assert res > 1e-12 if l == 3 else res <= 1e-13


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("where", [None, "first", "middle", "last"])
def test_planted_band_defect_shows_in_both_spectra(monkeypatch, n, where):
    # bands with one J_+ entry s_k scaled by 1 + 1e-8 are no longer an su(2)
    # triple: both spectra are computed from the bands, so both must move off
    # their exact levels, by about 1e-9 of the top level; unplanted, neither
    frame = spectra._weight_frame

    def planted(rep):
        u, (w, s) = frame(rep)
        s = s.copy()
        if where:
            s[{"first": 0, "middle": n // 2, "last": n - 2}[where]] *= 1 + 1e-8
        return u, (w, s)

    monkeypatch.setattr(spectra, "_weight_frame", planted)
    rep = irrep(n)
    kinetic = max(g[4] for g in scalar_kinetic_spectrum(rep).groups)
    lap = np.max(np.abs(fuzzy_laplacian_spectrum(rep) - laplacian_reference(n)))
    lap /= 4 * n * (n - 1)
    for err in (kinetic, lap):
        assert err > 1e-10 if where else err <= 1e-13


@pytest.mark.parametrize("n", [3, 6, 12])
def test_adjoint_triples_are_the_j_equals_l_family(n):
    rep = irrep(n)
    basis = build_basis(rep)
    scale = 4 * n * n - 2 * n - 1  # ||K||, the top level
    for l, m in basis.keys():
        if l == 0:
            continue
        t = np.stack([commutator(g, basis[(l, m)]) for g in rep.generators])
        kt = np.stack(_kinetic_apply(rep, t))
        lam = 4 * l * (l + 1) - 1
        assert np.linalg.norm(kt - lam * t) <= 1e-14 * scale * np.linalg.norm(t)


def test_left_product_span_is_not_invariant():
    # K moves 0.09 (l = 5) to 0.57 (l = 1) of each J_i Y_lm triple out of the
    # span of all such triples at n = 6; only the l = 0 triple (J_1, J_2, J_3)
    # stays inside
    n = 6
    rep = irrep(n)
    basis = build_basis(rep)
    triples = {key: np.stack([g @ basis[key] for g in rep.generators]) for key in basis.keys()}
    q, r = np.linalg.qr(np.array([t.reshape(-1) for t in triples.values()]).T)
    q = q[:, np.abs(np.diag(r)) > 1e-10 * np.abs(r).max()]
    for (l, m), t in triples.items():
        kt = np.stack(_kinetic_apply(rep, t)).reshape(-1)
        leak = np.linalg.norm(kt - q @ (q.conj().T @ kt)) / np.linalg.norm(kt)
        assert leak < 1e-12 if l == 0 else leak > 0.05, (l, m, leak)


def gl_grid(nt=200, npq=400):
    nodes, weights = np.polynomial.legendre.leggauss(nt)
    theta = np.arccos(nodes)
    phi = np.arange(npq) * 2 * np.pi / npq
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    w = np.broadcast_to(weights[:, None], tt.shape) * (2 * np.pi / npq) / (4 * np.pi)
    return tt, pp, w


def test_vector_harmonics_orthonormality():
    tt, pp, w = gl_grid()

    def ip(a, b):
        return complex(np.sum(w[..., None] * np.conj(a) * b))

    for m in (-1, 0, 1):
        t, s = vector_harmonics(1, m, tt, pp)
        assert abs(ip(t, t) - 1.0) < 1e-6
        assert abs(ip(s, s) - 1.0) < 1e-6
        for mp in (-1, 0, 1):
            t2, s2 = vector_harmonics(1, mp, tt, pp)
            assert abs(ip(t, s2)) < 1e-6
    with pytest.raises(ValueError):
        vector_harmonics(0, 0, 0.3, 0.0)


def test_spherical_spinor_basics():
    tt, pp, w = gl_grid(100, 200)
    # minimal case reduces to a constant spinor
    om = spherical_spinor(0.5, 0, 0.5, tt, pp)
    assert np.max(np.abs(om[..., 0] - 1.0)) < 1e-13
    assert np.max(np.abs(om[..., 1])) == 0.0

    def norm2(a):
        return float(np.sum(w * np.einsum("...a,...a->...", np.conj(a), a)).real)

    for j, l in ((1.5, 1), (0.5, 1), (2.5, 2)):
        om = spherical_spinor(j, l, 0.5, tt, pp)
        assert abs(norm2(om) - 1.0) < 1e-6
    o1 = spherical_spinor(1.5, 1, 0.5, tt, pp)
    o2 = spherical_spinor(0.5, 1, 0.5, tt, pp)
    cross = np.sum(w * np.einsum("...a,...a->...", np.conj(o1), o2))
    assert abs(cross) < 1e-6
    with pytest.raises(ValueError):
        spherical_spinor(2.0, 1, 0.5, 0.3, 0.0)
    with pytest.raises(ValueError):
        spherical_spinor(0.5, 0, 1.5, 0.3, 0.0)


def test_dirac_square_eigenvalues():
    grid = SphereGrid.make(40, 80)
    r0 = dirac_square_check(0, +1, grid)
    assert abs(r0.eigenvalue - 1.0) < 1e-8
    r1 = dirac_square_check(1, +1, grid)
    assert abs(r1.eigenvalue - 4.0) < 1e-6
    r1m = dirac_square_check(1, -1, grid)
    assert abs(r1m.eigenvalue - 4.0) < 1e-6
    r2 = dirac_square_check(2, +1, grid)
    assert abs(r2.eigenvalue - 9.0) < 1e-6


def test_dirac_square_refinement_order():
    grid = SphereGrid.make(24, 48)
    coarse = dirac_square_check(1, +1, grid, fd_step=4e-3)
    fine = dirac_square_check(1, +1, grid, fd_step=2e-3)
    order = np.log2(coarse.residual / fine.residual)
    assert abs(order - 2.0) < 0.1


def test_symbol_map_l1():
    n = 8
    rep = irrep(n)
    basis = build_basis(rep)
    theta = np.linspace(0.2, np.pi - 0.2, 25)
    phi = np.linspace(0.0, 2 * np.pi, 25, endpoint=False)
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    sym = symbol_map(basis[(1, 0)], rep, tt, pp)
    scale = np.sqrt((n - 1.0) / (n + 1.0))
    assert np.max(np.abs(sym - scale * np.sqrt(3) * np.cos(tt))) < 1e-10


def test_mode_convergence_trivial():
    table = mode_convergence([2, 4, 8], 0, 0)
    assert max(err for _, err in table) < 1e-12


def test_mode_convergence_l1_rate():
    table = mode_convergence([4, 8, 16, 32], 1, 0)
    errs = [err for _, err in table]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    # O(1/N): halving is roughly a factor two
    ratios = [a / b for a, b in zip(errs, errs[1:])]
    assert min(ratios) > 1.5


@pytest.mark.parametrize("l,m", [(2, 1), (3, -2), (3, 0)])
def test_mode_convergence_monotone(l, m):
    table = mode_convergence([4, 8, 16, 32], l, m)
    errs = [err for _, err in table]
    assert all(b < a for a, b in zip(errs, errs[1:]))


def test_mode_convergence_requires_resolved_l():
    with pytest.raises(ValueError):
        mode_convergence([2], 3, 0)


def test_spinorial_harmonic_family_orthogonality():
    from fuzzball.spectra import spinorial_harmonic

    tt, pp, w = gl_grid(80, 160)

    def ip(a, b):
        return complex(np.sum(w * np.einsum("...a,...a->...", np.conj(a), b)))

    # different degrees within one family are orthogonal under quadrature
    x0 = spinorial_harmonic(0, 0, +1, tt, pp)
    x1 = spinorial_harmonic(1, 0, +1, tt, pp)
    x2 = spinorial_harmonic(2, 0, +1, tt, pp)
    assert abs(ip(x0, x1)) < 1e-10 * np.sqrt(abs(ip(x0, x0)) * abs(ip(x1, x1)))
    assert abs(ip(x1, x2)) < 1e-10 * np.sqrt(abs(ip(x1, x1)) * abs(ip(x2, x2)))
    # the chirality-flipped writing at the same degree is the same field up
    # to a constant factor (the family's rewrite identity)
    y1 = spinorial_harmonic(1, 0, -1, tt, pp)
    overlap = abs(ip(x1, y1)) / np.sqrt(abs(ip(x1, x1)) * abs(ip(y1, y1)))
    assert abs(overlap - 1.0) < 1e-12
    with pytest.raises(ValueError):
        spinorial_harmonic(1, 3, +1, 0.3, 0.0)
