import dataclasses

import dense_oracles
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from fuzzball import geometry, matcore
from fuzzball.geometry import (
    GRID_BLOCK_ROWS,
    SphereGrid,
    gamma_so5,
    gamma_so9,
    grid_report,
    hopf_s2,
    hopf_s4,
    hopf_s8,
    identification_check,
    killing_equation_residual,
    killing_spinor,
    octonion_lambdas,
    s8_inversion,
    s_matrix,
    section,
    unit_vector,
    weyl_plus,
)
from fuzzball.su2rep import EPS_LOWER, PAULI

SIGT = np.stack([s.T for s in PAULI])
C_MINUS = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)  # i sigma_2


def killing_vectors(theta, phi):
    """Components K_i^a (a = theta, phi) of the three rotation fields: the
    reference the frame rotation is checked against."""
    cot = np.cos(theta) / np.sin(theta)
    out = np.empty(np.broadcast(theta, phi).shape + (3, 2))
    out[..., 0, 0] = -np.sin(phi)
    out[..., 0, 1] = -cot * np.cos(phi)
    out[..., 1, 0] = np.cos(phi)
    out[..., 1, 1] = -cot * np.sin(phi)
    out[..., 2, 0] = 0.0
    out[..., 2, 1] = 1.0
    return out


def random_points(count, seed=0):
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.2, np.pi - 0.2, size=count)
    phi = rng.uniform(0.0, 2 * np.pi, size=count)
    return theta, phi


def test_hopf_s2_examples():
    assert_allclose(hopf_s2(np.array([1.0, 0.0])), [0, 0, 1], atol=1e-15)
    assert_allclose(hopf_s2(np.array([1.0, 1.0]) / np.sqrt(2)), [1, 0, 0], atol=1e-15)


def test_hopf_s2_phase_invariance():
    rng = np.random.default_rng(1)
    g = rng.normal(size=2) + 1j * rng.normal(size=2)
    g /= np.linalg.norm(g)
    assert np.max(np.abs(hopf_s2(np.exp(0.7j) * g) - hopf_s2(g))) < 1e-15
    assert abs(np.linalg.norm(hopf_s2(g)) - 1.0) < 1e-14


def test_section_examples():
    assert_allclose(section(np.array([0.0, 0.0, 1.0])), [1.0, 0.0])
    assert_allclose(
        section(np.array([1.0, 0.0, 0.0])), np.array([1.0, 1.0]) / np.sqrt(2)
    )
    with pytest.raises(ValueError):
        section(np.array([0.0, 0.0, -1.0]))


def test_hopf_section_roundtrip_dense():
    grid = SphereGrid.make(100, 100)
    tt, pp = grid.mesh()
    x = unit_vector(tt, pp)
    assert np.max(np.abs(hopf_s2(section(x)) - x)) < 1e-14
    # the first component of the section is real and nonnegative
    g = section(x)
    assert np.max(np.abs(g[..., 0].imag)) == 0.0
    assert np.min(g[..., 0].real) >= 0.0


def test_s_matrix_point_values():
    s = s_matrix(np.pi / 2, 0.0)
    a = np.exp(-0.25j * np.pi)
    c = 1 / np.sqrt(2)
    assert_allclose(
        s, a * np.array([[-c, -1j * c], [c, -1j * c]]), atol=1e-15
    )
    assert abs(np.linalg.det(s)) == pytest.approx(1.0)


def test_s_matrix_relations():
    theta, phi = random_points(100, seed=2)
    s = s_matrix(theta, phi)
    sd = np.conj(np.swapaxes(s, -1, -2))
    uni = np.einsum("...ab,...bc->...ac", s, sd) - np.eye(2)
    assert np.max(np.abs(uni)) < 1e-14
    # symplectic reality: eps S^-1 eps^-1 = S^T
    lhs = np.einsum("ab,...bc,cd->...ad", EPS_LOWER, sd, np.linalg.inv(EPS_LOWER))
    assert np.max(np.abs(lhs - np.swapaxes(s, -1, -2))) < 1e-13
    # rotated gamma_3 reproduces the coordinates
    x = unit_vector(theta, phi)
    g3 = np.einsum("...ab,bc,...dc->...ad", s, PAULI[2], s.conj())
    assert np.max(np.abs(g3 + np.einsum("...i,iab->...ab", x, SIGT))) < 1e-13
    # rotated gamma_a against the Killing vectors (lower index a)
    k = killing_vectors(theta, phi)
    h = np.stack([np.ones_like(theta), np.sin(theta) ** 2], axis=-1)
    for a, gam in enumerate((PAULI[0], None)):
        ga = PAULI[0] if a == 0 else np.sin(theta)[..., None, None] * PAULI[1]
        rot = np.einsum("...ab,...bc,...dc->...ad", s, np.broadcast_to(ga, s.shape), s.conj())
        rhs = -h[..., a, None, None] * np.einsum("...i,iab->...ab", k[..., a], SIGT)
        assert np.max(np.abs(rot - rhs)) < 1e-12


def test_killing_contraction_identity():
    theta, phi = random_points(100, seed=3)
    s = s_matrix(theta, phi)
    k = killing_vectors(theta, phi)
    # K_i^a sigma~_i = -(S gamma^a S^-1) with gamma^theta, gamma^phi upper
    mth = np.einsum("...ab,bc,...dc->...ad", s, PAULI[0], s.conj())
    mph = np.einsum("...ab,bc,...dc->...ad", s, PAULI[1], s.conj()) / np.sin(theta)[
        ..., None, None
    ]
    r1 = np.einsum("...i,iab->...ab", k[..., 0], SIGT) + mth
    r2 = np.einsum("...i,iab->...ab", k[..., 1], SIGT) + mph
    assert np.max(np.abs(r1)) < 1e-12
    assert np.max(np.abs(r2)) < 1e-12


def test_killing_spinor_coordinates():
    theta, phi = random_points(100, seed=4)
    u = weyl_plus(killing_spinor(theta, phi))
    x = np.einsum("...a,iab,...b->...i", u.conj(), SIGT, u).real
    assert np.max(np.abs(x - unit_vector(theta, phi))) < 1e-12


def test_killing_spinor_orthonormality_and_completeness():
    theta, phi = random_points(50, seed=5)
    eta = killing_spinor(theta, phi)
    ortho = np.einsum("...aI,ab,...bJ->...IJ", eta, C_MINUS, eta)
    assert np.max(np.abs(ortho + EPS_LOWER / 2)) < 1e-13
    # the dual etabar = 2 eps^{-1} eta^T C_-
    dual = 2.0 * np.einsum("ab,...cb,cd->...ad", np.linalg.inv(EPS_LOWER), eta, C_MINUS)
    comp = np.einsum("...aI,...Ib->...ab", eta, dual)
    assert np.max(np.abs(comp + np.eye(2))) < 1e-13


def test_killing_spinor_majorana():
    theta, phi = random_points(20, seed=6)
    eta = killing_spinor(theta, phi)
    # modified Majorana reality: conj(eta[a, I]) = eps[a, b] eps[I, J] eta[b, J]
    image = np.einsum("ab,cd,...bd->...ac", EPS_LOWER, EPS_LOWER, eta)
    assert np.max(np.abs(np.conj(eta) - image)) < 1e-13


def test_killing_equation_and_negative_control():
    theta, phi = random_points(60, seed=7)
    res = killing_equation_residual(theta, phi, h=1e-4)
    assert res < 1e-8
    res_half = killing_equation_residual(theta, phi, h=5e-5)
    # not a clean factor of 4 this deep in roundoff, but clearly converging
    assert res_half < res
    wrong = killing_equation_residual(theta, phi, h=1e-4, connection_sign=+1.0)
    assert wrong > 0.1


def test_killing_equation_convergence_order():
    theta, phi = random_points(60, seed=8)
    r1 = killing_equation_residual(theta, phi, h=4e-3)
    r2 = killing_equation_residual(theta, phi, h=2e-3)
    order = np.log2(r1 / r2)
    assert abs(order - 2.0) < 0.1


def test_identification_report():
    grid = SphereGrid.make(64, 128)
    rep = identification_check(4, grid)
    assert rep.coordinate < 1e-12
    assert rep.local_phase < 1e-8
    assert rep.dx_agreement < 1e-10
    assert abs(rep.order_b - 2.0) < 0.1
    assert abs(rep.order_c - 2.0) < 0.1
    with pytest.raises(ValueError):
        identification_check(1, grid)


def test_gamma_so5():
    gammas = gamma_so5()
    total = sum(g @ g for g in gammas)
    assert_allclose(total, 5.0 * np.eye(4), atol=1e-14)
    for i, a in enumerate(gammas):
        assert np.max(np.abs(a - a.conj().T)) == 0.0
        for j, b in enumerate(gammas):
            assert_allclose(a @ b + b @ a, 2.0 * (i == j) * np.eye(4), atol=1e-14)


def test_octonion_lambdas():
    lams = octonion_lambdas()
    assert len(lams) == 7
    for i, a in enumerate(lams):
        assert np.max(np.abs(a + a.T)) == 0.0
        for j, b in enumerate(lams):
            assert_allclose(a @ b + b @ a, -2.0 * (i == j) * np.eye(8), atol=1e-14)


def test_gamma_so9():
    gammas = gamma_so9()
    for i, a in enumerate(gammas):
        for j, b in enumerate(gammas):
            assert_allclose(a @ b + b @ a, 2.0 * (i == j) * np.eye(16), atol=1e-14)


def test_hopf_s4():
    rng = np.random.default_rng(10)
    for _ in range(20):
        g = rng.normal(size=4) + 1j * rng.normal(size=4)
        g /= np.linalg.norm(g)
        x = hopf_s4(g)
        assert abs(np.linalg.norm(x) - 1.0) < 1e-12
        assert np.max(np.abs(hopf_s4(np.exp(0.4j) * g) - x)) < 1e-12
    with pytest.raises(ValueError):
        hopf_s4(2.0 * g)


def test_hopf_s8_roundtrip():
    rng = np.random.default_rng(11)
    done = 0
    while done < 100:
        x = rng.normal(size=9)
        x /= np.linalg.norm(x)
        if x[8] <= -0.99:
            continue
        u = rng.normal(size=8)
        u /= np.linalg.norm(u)
        g = s8_inversion(x, u)
        assert abs(np.linalg.norm(g) - 1.0) < 1e-12
        assert np.max(np.abs(hopf_s8(g) - x)) < 1e-12
        done += 1
    south = np.zeros(9)
    south[8] = -1.0
    with pytest.raises(ValueError):
        s8_inversion(south, u)


@pytest.mark.parametrize("defect", [5e-11, -5e-11, 2e-10, -2e-10])
def test_higher_hopf_maps_hold_their_inputs_to_unit_norm_within_1e_10(defect):
    rng = np.random.default_rng(28)
    g4 = rng.normal(size=4) + 1j * rng.normal(size=4)
    g16, x, u = rng.normal(size=16), rng.normal(size=9), rng.normal(size=8)
    x[8] = abs(x[8])  # away from the S8 south pole
    g4, g16, x, u = (v / np.linalg.norm(v) for v in (g4, g16, x, u))
    scaled = 1.0 + defect
    calls = (
        lambda: hopf_s4(scaled * g4),
        lambda: hopf_s8(scaled * g16),
        lambda: s8_inversion(scaled * x, u),
        lambda: s8_inversion(x, scaled * u),
    )
    for call in calls:
        if abs(defect) < 1e-10:
            call()
        else:
            with pytest.raises(ValueError, match="unit-norm"):
                call()


def _near_south_pole(dim, gap):
    """A unit vector of R^dim whose last coordinate is -1 + gap."""
    x = np.zeros(dim)
    x[-1] = -1.0 + gap
    x[0] = np.sqrt((1.0 - x[-1]) * (1.0 + x[-1]))
    return x


@pytest.mark.parametrize("factor", [2.0, 0.5])
def test_pole_guards_sit_at_their_thresholds(factor):
    # section refuses x3 <= -1 + 1e-12, s8_inversion x_9 <= -1 + 1e-10
    u = np.eye(8)[0]
    guards = ((section, 3, 1e-12), (lambda x: s8_inversion(x, u), 9, 1e-10))
    for call, dim, threshold in guards:
        x = _near_south_pole(dim, factor * threshold)
        if factor > 1:
            call(x)
        else:
            with pytest.raises(ValueError, match="singular"):
                call(x)


def test_higher_hopf_maps_read_tables_no_caller_can_change(monkeypatch):
    rng = np.random.default_rng(26)
    g4 = rng.normal(size=4) + 1j * rng.normal(size=4)
    x = rng.normal(size=9)
    u = rng.normal(size=8)
    g4, x, u = (v / np.linalg.norm(v) for v in (g4, x, u))

    def maps():
        g = s8_inversion(x, u)
        return hopf_s4(g4), g, hopf_s8(g)

    held = maps()
    # every public builder returns fresh, writable matrices
    for builder in (gamma_so5, gamma_so9, octonion_lambdas):
        for table in builder():
            table[...] = 0.0
    with monkeypatch.context() as patch:
        # the maps with every table rebuilt on each call
        patch.setattr(geometry, "_tables", lambda builder: builder())
        rebuilt = maps()
    for before, after, want in zip(held, maps(), rebuilt):
        assert np.array_equal(before, want) and np.array_equal(after, want)
    assert not any(t.flags.writeable for t in geometry._tables(gamma_so9))


def test_grid_is_interior():
    grid = SphereGrid.make(64, 128)
    assert grid.theta[0] > 0.0 and grid.theta[-1] < np.pi
    assert len(grid.theta) == 64 and len(grid.phi) == 128
    with pytest.raises(ValueError):
        SphereGrid.make(1, 8)


# ---------------------------------------------------------------------------
# dense einsum oracles for the closed-form 2x2 kernels


def dense_killing_spinor(theta, phi):
    return np.einsum("...ba,bc->...ac", s_matrix(theta, phi).conj(), EPS_LOWER) / np.sqrt(2.0)


def dense_hopf_s2(g):
    return np.real(np.einsum("...a,iab,...b->...i", g.conj(), SIGT, g))


def dense_rotated_gamma(theta, phi):
    s = s_matrix(theta, phi)
    gth = np.broadcast_to(PAULI[0], s.shape)
    gph = np.sin(theta)[..., None, None] * PAULI[1]
    return tuple(np.einsum("...ab,...bc,...dc->...ad", s, g, s.conj()) for g in (gth, gph))


def dense_dx_from_law(m, v):
    comm = np.einsum("...ab,ibc->...iac", m, SIGT) - np.einsum("iab,...bc->...iac", SIGT, m)
    return 0.5j * np.einsum("...a,...iab,...b->...i", v.conj(), comm, v)


def dense_gamma3_relation(theta, phi):
    s = s_matrix(theta, phi)
    x = unit_vector(theta, phi)
    g3 = np.einsum("...ab,bc,...dc->...ad", s, PAULI[2], s.conj())
    return np.max(np.abs(g3 + np.einsum("...i,iab->...ab", x, SIGT)), axis=(-2, -1))


def oracle_points():
    """Scattered random points and a small grid (full mesh and separable)."""
    theta, phi = random_points(200, seed=21)
    grid = SphereGrid.make(16, 32)
    tt, pp = grid.mesh()
    return [(theta, phi), (tt, pp), (grid.theta[:, None], grid.phi[None, :])]


@pytest.mark.parametrize("case", range(3))
def test_2x2_kernels_match_dense_oracles(case):
    theta, phi = oracle_points()[case]
    eta = killing_spinor(theta, phi)
    assert np.max(np.abs(eta - dense_killing_spinor(theta, phi))) == 0.0
    u = weyl_plus(eta)
    g = section(unit_vector(theta, phi))
    assert np.max(np.abs(hopf_s2(u) - dense_hopf_s2(u))) < 1e-14
    assert np.max(np.abs(hopf_s2(g) - dense_hopf_s2(g))) < 1e-14
    rotated = geometry._rotated_gamma(geometry._s_columns(theta, phi), theta)
    for m, ref in zip(rotated, dense_rotated_gamma(theta, phi)):
        m_aos = geometry._trailing(m, 2)
        assert m_aos.shape == ref.shape
        assert np.max(np.abs(m_aos - ref)) < 1e-14
        for v in (u, g):
            dx = geometry._trailing(geometry._dx_from_law(m, np.moveaxis(v, -1, 0)))
            assert np.max(np.abs(dx - dense_dx_from_law(m_aos, v))) < 1e-14


def test_batched_2x2_helpers():
    rng = np.random.default_rng(22)
    a = rng.normal(size=(5, 3, 2, 2)) + 1j * rng.normal(size=(5, 3, 2, 2))
    b = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
    v = rng.normal(size=(5, 3, 2)) + 1j * rng.normal(size=(5, 3, 2))
    assert np.max(np.abs(dense_oracles._mul2(a, b) - a @ b)) < 1e-14
    assert np.max(np.abs(geometry._apply2(a, v) - (a @ v[..., None])[..., 0])) < 1e-14
    assert np.max(np.abs(geometry._apply2(PAULI[1], v) - v @ PAULI[1].T)) == 0.0
    assert np.array_equal(dense_oracles._dag2(a), np.conj(np.swapaxes(a, -1, -2)))
    # the component-first kernels form the same products bit for bit, also
    # with a constant (2, 2) factor
    a_cf, b_cf = (np.moveaxis(m, (-2, -1), (0, 1)) for m in (a, b))
    v_cf = np.moveaxis(v, -1, 0)
    trailing = geometry._trailing
    assert np.array_equal(trailing(geometry._mul2(a_cf, b_cf), 2), dense_oracles._mul2(a, b))
    assert np.array_equal(
        trailing(geometry._mul2(PAULI[1], b_cf), 2), dense_oracles._mul2(PAULI[1], b)
    )
    assert np.array_equal(trailing(geometry._mul_vec2(a_cf, v_cf)), geometry._apply2(a, v))
    assert np.array_equal(trailing(geometry._dag2(a_cf), 2), dense_oracles._dag2(a))


def test_central_difference_helper():
    theta, phi = random_points(50, seed=23)

    def f(t, p):
        return np.sin(t) * np.exp(2j * p)

    dth, dph = geometry._central_difference(f, theta, phi, 1e-3)
    assert np.max(np.abs(dth - np.cos(theta) * np.exp(2j * phi))) < 1e-6
    assert np.max(np.abs(dph - 2j * f(theta, phi))) < 1e-5
    rth, rph = geometry._central_difference(f, theta, phi, 1e-3, richardson=True)
    assert np.max(np.abs(rth - np.cos(theta) * np.exp(2j * phi))) < 1e-11
    assert np.max(np.abs(rph - 2j * f(theta, phi))) < 1e-11


def test_unit_vector_broadcasts_like_s_matrix():
    grid = SphereGrid.make(6, 10)
    tt, pp = grid.mesh()
    sep = unit_vector(grid.theta[:, None], grid.phi[None, :])
    assert sep.shape == (6, 10, 3)
    assert np.array_equal(sep, unit_vector(tt, pp))
    assert s_matrix(grid.theta[:, None], grid.phi[None, :]).shape == (6, 10, 2, 2)
    assert unit_vector(0.3, grid.phi).shape == (10, 3)


def test_grid_report_arrays():
    grid = SphereGrid.make(12, 24)
    tt, pp = grid.mesh()
    res = grid_report(grid).residuals
    assert list(res) == [
        "hopf_section_roundtrip",
        "gamma3_relation",
        "spinor_coordinates",
        "killing_equation",
    ]
    for arr in res.values():
        assert arr.shape == (12, 24) and arr.dtype == float
    x = unit_vector(tt, pp)
    assert np.array_equal(
        res["hopf_section_roundtrip"], np.max(np.abs(hopf_s2(section(x)) - x), axis=-1)
    )
    assert np.max(np.abs(res["gamma3_relation"] - dense_gamma3_relation(tt, pp))) < 1e-14
    u = weyl_plus(killing_spinor(tt, pp))
    coords = np.max(np.abs(hopf_s2(u) - x), axis=-1)
    assert np.max(np.abs(res["spinor_coordinates"] - coords)) < 1e-15
    # the Killing array holds the per-point Richardson-extrapolated defect
    for i, j in ((0, 0), (5, 7), (11, 23)):
        point = geometry._killing_defect(tt[i, j], pp[i, j], geometry.GRID_STEP, richardson=True)
        assert abs(res["killing_equation"][i, j] - point) < 1e-15
    assert np.max(res["killing_equation"]) == np.max(
        geometry._killing_defect(tt, pp, geometry.GRID_STEP, richardson=True))


EPS = np.finfo(float).eps


@pytest.mark.parametrize(
    "pool_min_rows", [matcore.POOL_MIN_ROWS, 1], ids=["in_process", "pooled"]
)
@settings(
    max_examples=12, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(n_theta=st.integers(2, 80), n_phi=st.integers(2, 40))
@example(n_theta=GRID_BLOCK_ROWS, n_phi=7)
@example(n_theta=GRID_BLOCK_ROWS + 1, n_phi=5)
@example(n_theta=80, n_phi=40)
def test_blocked_grid_checks_match_full_grid_oracles(
    forks, monkeypatch, pool_min_rows, n_theta, n_phi
):
    # numpy's SIMD complex loops may round a point differently by its
    # position in the array, so blocks agree with the whole grid to a few eps
    monkeypatch.setattr(matcore, "POOL_MIN_ROWS", pool_min_rows)
    forked = len(forks)
    grid = SphereGrid.make(n_theta, n_phi)
    report = grid_report(grid)
    res = report.residuals
    ref = dense_oracles.grid_report(grid)
    assert list(res) == list(ref)
    for name, arr in ref.items():
        assert res[name].shape == arr.shape and res[name].dtype == float
        assert np.max(np.abs(res[name] - arr)) <= 4 * EPS, name
    rep = dataclasses.asdict(report.identification)
    for field, value in dataclasses.asdict(dense_oracles.identification_check(grid)).items():
        assert abs(rep[field] - value) <= 4 * EPS, field
    assert abs(report.s_unitarity - dense_oracles.s_unitarity(grid)) <= 4 * EPS
    # one grid pass, on two workers once there are two blocks
    pooled = n_theta >= pool_min_rows and n_theta > GRID_BLOCK_ROWS
    assert len(forks) - forked == (2 if pooled else 0)


def grid_block(theta, phi):
    """geometry._grid_block of one block, split: (its four per-point rows,
    its sup |S S^dag - 1|, its nine identification sups)."""
    flat = geometry._grid_block(theta, phi)
    sups = flat[-geometry.BLOCK_SUPS :]
    return flat[: -geometry.BLOCK_SUPS].reshape(4, len(theta), -1), sups[0], sups[1:]


# The grid kernels hold every component as its own array; the blocks must
# equal the trailing-axis blocks (dense_oracles) bit for bit, since the grid
# rows, report and CSV are compared byte for byte.  Grids below 785 theta
# rows keep every shifted angle of the order steps inside (0, pi).


@settings(max_examples=30, deadline=None)
@given(
    rows=st.integers(1, 33),
    n_phi=st.integers(2, 40),
    n_theta=st.integers(33, 784),
    where=st.sampled_from(["north", "middle", "south"]),
)
@example(rows=33, n_phi=40, n_theta=784, where="north")
@example(rows=33, n_phi=40, n_theta=784, where="south")
@example(rows=1, n_phi=2, n_theta=784, where="south")
def test_component_blocks_equal_trailing_axis_blocks(rows, n_phi, n_theta, where):
    grid = SphereGrid.make(n_theta, n_phi)
    start = {"north": 0, "middle": (n_theta - rows) // 2, "south": n_theta - rows}[where]
    theta, phi = grid.theta[start : start + rows, None], grid.phi[None, :]
    report, unitarity, identification = grid_block(theta, phi)
    assert report.shape == (4, rows, n_phi)
    assert np.array_equal(report, dense_oracles._report_block(theta, phi, 1e-4))
    assert unitarity == dense_oracles._s_unitarity_block(theta, phi)
    assert np.array_equal(
        identification, dense_oracles._identification_block(theta, phi, 1e-4, 0.02)
    )


def test_order_sups_leave_out_the_rows_next_to_the_poles():
    # 786 rows: the first row lies within h_ord = 2e-3 of the north pole, so
    # theta - h_ord crosses it; the order sups of its block are those of the
    # other rows, and every other sup keeps the first row
    grid = SphereGrid.make(786, 8)
    theta, phi = grid.theta[:16, None], grid.phi[None, :]
    ours = grid_block(theta, phi)[2]
    assert np.array_equal(ours[:5], dense_oracles._identification_block(theta, phi, 1e-4, 0.02)[:5])
    assert np.array_equal(
        ours[5:], dense_oracles._identification_block(theta[1:], phi, 1e-4, 0.02)[5:]
    )
    # 785 rows: theta + h_ord of the last row lands 1.0e-6 short of the south
    # pole, where the section is refused; a block of that row alone has no
    # order sup (-inf, the identity of the maxima over blocks)
    south = SphereGrid.make(785, 8).theta[-1:, None]
    with pytest.raises(ValueError, match="singular"):
        dense_oracles._identification_block(south, phi, 1e-4, 0.02)
    block = grid_block(south, phi)[2]
    assert np.all(np.isfinite(block[:5])) and np.all(block[5:] == -np.inf)


@pytest.mark.parametrize("sign", [-1.0, 1.0])
def test_killing_defect_equals_trailing_axis_kernel(sign):
    theta, phi = random_points(300, seed=26)
    for extrapolate in (False, True):
        assert np.array_equal(
            geometry._killing_defect(theta, phi, 1e-4, sign, extrapolate),
            dense_oracles._killing_defect(theta, phi, 1e-4, sign, extrapolate),
        )
    # a scalar point keeps the scalar shape
    assert geometry._killing_defect(1.0, 0.5, 1e-4).shape == ()


def test_public_kernels_keep_the_trailing_layout():
    theta, phi = random_points(40, seed=27)
    s = s_matrix(theta, phi)
    assert s.shape == (40, 2, 2) and s.flags.c_contiguous
    eta = killing_spinor(theta, phi)
    assert eta.shape == (40, 2, 2) and eta.flags.c_contiguous
    # the projected spinor reads column 0 of S only, and equals weyl_plus
    assert np.array_equal(
        geometry._trailing(geometry._projected(theta, phi)), weyl_plus(eta)
    )
    assert np.array_equal(
        geometry._trailing(geometry._aligned_section(theta, phi)),
        dense_oracles._aligned_section(theta, phi),
    )
    assert s_matrix(0.3, 0.1).shape == (2, 2) and unit_vector(0.3, 0.1).shape == (3,)
    assert section(unit_vector(0.3, 0.1)).shape == (2,) and hopf_s2(np.ones(2)).shape == (3,)
