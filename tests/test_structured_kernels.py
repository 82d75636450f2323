"""The weight-frame kernels against the dense oracles they replace.

The oracles are the dense operators ``adjoint_laplacian_matrix`` and
``scalar_kinetic_matrix``, the dense per-charge kinetic blocks
(``_kinetic_block``, ``_coupled_block``), the closed-form kinetic levels
and the complex basis on the dense generator triple (``dense_oracles``), a
copy of the dense least-squares mode fit, and (at small size) SU(2)
Clebsch-Gordan coefficients from sympy.
"""

import json

import numpy as np
import pytest
from dense_oracles import (
    _coupled_block,
    _kinetic_block,
    ad_matrix,
    adjoint_laplacian_matrix,
    complex_basis,
    complex_laplacian_spectrum,
    group_eigenvalues,
    kinetic_levels,
    scalar_kinetic_matrix,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from fuzzball.cli import main as cli_main
from fuzzball.grvv import GrvvSolution, gauge_dress, ground_state
from fuzzball.harmonics import (
    _ad,
    _diagonal_index,
    _laplacian_block,
    _weight_frame,
    build_basis,
    classical_ylm,
    decompose_bifundamental,
)
from fuzzball.matcore import dagger, matrix_to_json, random_unitary
from fuzzball.spectra import (
    _cg1,
    fuzzy_laplacian_spectrum,
    mode_convergence,
    scalar_kinetic_spectrum,
    symbol_map,
)
from fuzzball.su2rep import (
    Su2Representation,
    bilinears,
    direct_sum,
    irrep,
    su2_from_bilinears,
)

SIZES = [1, 2, 3, 5, 8, 12]


def rotated_irrep(n, seed):
    u = random_unitary(n, np.random.default_rng(seed))
    return Su2Representation(
        *(u @ g @ dagger(u) for g in irrep(n).generators), partition=(n,)
    ), u


def inputs(n):
    return [irrep(n), rotated_irrep(n, 100 + n)[0]]


# ---------------------------------------------------------------------------
# dense oracles


def dense_laplacian_spectrum(rep):
    lap = adjoint_laplacian_matrix(rep)
    return np.sort(np.linalg.eigvalsh((lap + lap.conj().T) / 2))


def dense_kinetic_spectrum(rep):
    k = scalar_kinetic_matrix(rep)
    return np.linalg.eigvalsh((k + k.conj().T) / 2)


def dense_decompose(r1, r2, sol, basis):
    """The dense trace and traceless least-squares fits, column by column."""
    n = sol.size
    g = sol.matrices
    r = [np.asarray(r1, dtype=complex), np.asarray(r2, dtype=complex)]
    rem = [x.copy() for x in r]
    rem[0][:, 0] = 0.0
    rem[1][:, 0] = 0.0
    keys = [(l, m) for l in range(n - 1) for m in range(-l, l + 1)]
    ys = {key: basis[key] for key in keys}
    amat = np.array(
        [np.concatenate([(ys[k] @ g[0]).reshape(-1), (ys[k] @ g[1]).reshape(-1)]) for k in keys]
    ).T
    rhs = np.concatenate([rem[0].reshape(-1), rem[1].reshape(-1)])
    rvec, *_ = np.linalg.lstsq(amat, rhs, rcond=None)
    r_coeffs = dict(zip(keys, rvec))
    for a in range(2):
        rem[a] = rem[a] - sum(c * (ys[k] @ g[a]) for k, c in r_coeffs.items())
    amat = np.array([(ys[k] @ g[b]).reshape(-1) for k in keys for b in range(2)]).T
    s_rows = [
        np.linalg.lstsq(amat, rem[a].reshape(-1), rcond=None)[0].reshape(len(keys), 2)
        for a in range(2)
    ]
    s_coeffs = {}
    for i, key in enumerate(keys):
        mat = np.array([s_rows[0][i], s_rows[1][i]])
        tr = (mat[0, 0] + mat[1, 1]) / 2
        r_coeffs[key] += tr
        s_coeffs[key] = mat - tr * np.eye(2)
    return r_coeffs, s_coeffs


def doublets(n):
    sol = ground_state(n)
    u = random_unitary(n, np.random.default_rng(200 + n))
    left = gauge_dress(sol, u, np.eye(n))
    return [sol, left]


# ---------------------------------------------------------------------------
# comparisons


@pytest.mark.parametrize("n", SIZES)
def test_laplacian_matches_dense_oracle(n):
    for rep in inputs(n):
        ev = fuzzy_laplacian_spectrum(rep)
        ref = dense_laplacian_spectrum(rep)
        assert ev.shape == ref.shape
        assert np.max(np.abs(ev - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


@pytest.mark.parametrize("n", SIZES)
def test_kinetic_groups_match_dense_oracle(n):
    for rep in inputs(n):
        ks = scalar_kinetic_spectrum(rep)
        ref = dense_kinetic_spectrum(rep)
        scale = max(1.0, ref[-1])
        assert ks.eigenvalues.shape == ref.shape == (3 * n * n,)
        assert np.max(np.abs(ks.eigenvalues - ref)) <= 1e-12 * scale
        levels = [(ref[i], j - i) for i, j in group_eigenvalues(ref)]
        assert [g[1] for g in ks.groups] == [mult for _, mult in levels]
        for got, (eig, _) in zip(ks.groups, levels):
            assert abs(got[0] - eig) <= 1e-12 * scale
        assert [g[:4] for g in ks.groups] == kinetic_levels(n)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=1, max_value=24), seed=st.integers(0, 2**32 - 1),
       rotated=st.booleans())
def test_band_blocks_match_dense_operators(n, seed, rotated):
    # every block the weight-frame kernels form from the real bands is the
    # dense operator, on the triple those bands stand for, restricted to its
    # diagonals; unlike the spectra this sees a sign error in an off-diagonal
    # band.  The kernels against the input's own complex triple:
    # test_real_basis_matches_complex_oracle
    rep = rotated_irrep(n, seed)[0] if rotated else irrep(n)
    _, bands = _weight_frame(rep)
    j3, jp = np.diag(bands[0]), np.diag(bands[1], -1)
    frame = Su2Representation((jp + jp.T) / 2, (jp - jp.T) / 2j, j3)
    lap = adjoint_laplacian_matrix(frame)
    ads = {k: ad_matrix(g, n) for k, g in ((0, j3), (1, jp), (-1, jp.T))}
    scale = max(1.0, max(np.linalg.norm(g, 2) for g in frame.generators) ** 2)

    def vec(c):
        p, q = _diagonal_index(n, c)
        return p * n + q

    for c in range(1 - n, n):
        d, off = _laplacian_block(bands, c)
        block = np.diag(d) + np.diag(off, -1) + np.diag(off, 1)
        assert block.dtype == float and np.array_equal(block, block.T)
        assert np.max(np.abs(block - lap[np.ix_(vec(c), vec(c))])) < 1e-14 * scale
        for k, dense in ads.items():
            ref = dense[np.ix_(vec(c + k), vec(c))]
            ad = _ad(bands, k, c, np.eye(n - abs(c))).T
            assert ad.shape == ref.shape
            assert np.max(np.abs(ad - ref), initial=0.0) < 1e-14 * scale


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=1, max_value=24), seed=st.integers(0, 2**32 - 1),
       rotated=st.booleans())
def test_real_basis_matches_complex_oracle(n, seed, rotated):
    # the real m >= 0 diagonals serve every (l, m), both signs of m, of the
    # complex basis built on the dense triple, and the N solved Laplacian
    # blocks give the spectrum of all 2N - 1 complex blocks
    rep = rotated_irrep(n, seed)[0] if rotated else irrep(n)
    basis = build_basis(rep)
    assert [ys.shape for ys in basis.diagonals] == [(n - m, n - m) for m in range(n)]
    assert all(ys.dtype == float for ys in basis.diagonals)
    ref = complex_basis(rep)
    for l, m in basis.keys():
        assert np.max(np.abs(basis.vector((l, m)) - ref[m][l - abs(m)])) <= 1e-13 * n
    ev = fuzzy_laplacian_spectrum(rep)
    assert ev.shape == (n * n,)
    assert np.max(np.abs(ev - complex_laplacian_spectrum(rep))) <= 1e-14 * max(1, 4 * n * n)


@pytest.mark.parametrize("l", range(6))
def test_spin_one_clebsch_gordan(l):
    from sympy.physics.wigner import clebsch_gordan

    for dj in (-1, 0, 1):
        j = l + dj
        if j < 0 or (l == 0 and j != 1):
            continue
        for m in range(-j, j + 1):
            for sig in (1, 0, -1):
                if abs(m - sig) <= l:
                    want = float(clebsch_gordan(l, 1, j, m - sig, sig, m))
                    assert abs(_cg1(np.array([l]), dj, m, sig)[0] - want) < 1e-15


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=1, max_value=24), seed=st.integers(0, 2**32 - 1),
       rotated=st.booleans())
def test_coupled_vectors_fill_each_block(n, seed, rotated):
    rep = rotated_irrep(n, seed)[0] if rotated else irrep(n)
    u, bands = _weight_frame(rep)
    basis = build_basis(rep)
    scale = 4 * n * n - 2 * n - 1
    count = 0
    for total in range(-n, n + 1):
        k, starts = _kinetic_block(bands, total)
        assert k.dtype == float and np.array_equal(k, k.T)
        v, l, j = _coupled_block(basis, total, starts)
        # orthonormal and complete: a square unitary on the block
        assert v.shape == (starts[-1], starts[-1]) == (l.size, j.size)
        assert np.max(np.abs(v.conj().T @ v - np.eye(l.size))) < 1e-13 * n
        lam = 3 * l * (l + 1) + j * (j + 1) - 1
        assert np.max(np.linalg.norm(k @ v - lam * v, axis=0)) < 1e-14 * scale
        count += l.size
    assert count == 3 * n * n



@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=1, max_value=24), seed=st.integers(0, 2**32 - 1),
       rotated=st.booleans())
def test_kinetic_images_match_dense_blocks(n, seed, rotated):
    # the per-diagonal images give each level the residual and each coupled
    # vector the Rayleigh quotient of the dense per-charge block
    rep = rotated_irrep(n, seed)[0] if rotated else irrep(n)
    u, bands = _weight_frame(rep)
    basis = build_basis(rep)
    scale = 4 * n * n - 2 * n - 1
    worst, quotients = {}, []
    for total in range(-n, n + 1):
        k, starts = _kinetic_block(bands, total)
        v, l, j = _coupled_block(basis, total, starts)
        kv = k @ v
        res = np.linalg.norm(kv - (3 * l * (l + 1) + j * (j + 1) - 1) * v, axis=0) / scale
        quotients.extend(np.sum(v * kv, axis=0))
        for key, r in zip(zip(l.tolist(), j.tolist()), res):
            worst[key] = max(worst.get(key, 0.0), r)
    ks = scalar_kinetic_spectrum(rep)
    assert sorted((g[2], g[3]) for g in ks.groups) == sorted(worst)
    for _, _, l, j, res in ks.groups:
        assert abs(res - worst[l, j]) <= 1e-15
    assert np.max(np.abs(ks.eigenvalues - np.sort(quotients))) <= 1e-13 * scale

@pytest.mark.parametrize("n", SIZES)
def test_decompose_matches_dense_lstsq(n):
    rng = np.random.default_rng(300 + n)
    for sol in doublets(n):
        basis = build_basis(su2_from_bilinears(bilinears(sol), partition=(n,)))
        r1 = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        r2 = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        modes = decompose_bifundamental(r1, r2, sol)
        assert modes.residual < 1e-10 * n
        assert_allclose(modes.t_coeffs, np.stack([r1[:, 0], r2[:, 0]]))
        if n == 1:
            assert modes.r_coeffs == {} and modes.s_coeffs == {}
            continue
        r_ref, s_ref = dense_decompose(r1, r2, sol, basis)
        assert set(modes.r_coeffs) == set(r_ref) == set(modes.s_coeffs)
        for key in r_ref:
            assert abs(modes.r_coeffs[key] - r_ref[key]) < 1e-10
            assert np.max(np.abs(modes.s_coeffs[key] - s_ref[key])) < 1e-10


def random_pair(n, rng):
    return [rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for _ in range(2)]


def plain_or_left_dressed(n, seed, dressed):
    sol = ground_state(n)
    if dressed:
        sol = gauge_dress(sol, random_unitary(n, np.random.default_rng(seed)), np.eye(n))
    return sol, build_basis(su2_from_bilinears(bilinears(sol), partition=(n,)))


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=1, max_value=24), seed=st.integers(0, 2**32 - 1),
       dressed=st.booleans())
def test_bifundamental_fit_structure(n, seed, dressed):
    # the identities the closed-form fit rests on, from dense products:
    # W_lm^b = U^dag Y_lm g^b lies on diagonal m (b = 1) or m - 1 (b = 2);
    # the trace columns (W_lm^1, W_lm^2), l <= N-2, have Gram N(N-1) I; and on
    # each diagonal c all columns W_{l,c}^1, W_{l,c+1}^2 (l <= N-1) have
    # A A^H = N^2 except on the edge entry (column 0), where they vanish
    sol, basis = plain_or_left_dressed(n, seed, dressed)
    u, g = basis.frame, sol.matrices
    keys = basis.keys()
    w = {(k, b): dagger(u) @ basis[k] @ g[b] for k in keys for b in range(2)}
    for (k, b), x in w.items():
        rows, cols = _diagonal_index(n, k[1] - b)
        off = x.copy()
        off[rows, cols] = 0.0
        assert np.max(np.abs(off)) < 1e-13 * n
    fit = [k for k in keys if k[0] <= n - 2]
    cols = np.array([np.concatenate([w[k, 0].ravel(), w[k, 1].ravel()]) for k in fit]).T
    gram = cols.conj().T @ cols - n * (n - 1) * np.eye(len(fit))
    assert np.max(np.abs(gram), initial=0.0) <= 1e-13 * n * (n - 1)
    for c in range(1 - n, n):
        rows, q = _diagonal_index(n, c)
        amat = np.array(
            [w[k, b][rows, q] for k in keys for b in range(2) if k[1] - b == c]
        ).T
        ref = n * n * np.diag((q != 0).astype(float))
        assert np.max(np.abs(amat @ amat.conj().T - ref)) < 1e-13 * n * n


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=1, max_value=24), seed=st.integers(0, 2**32 - 1),
       dressed=st.booleans())
def test_decompose_matches_dense_lstsq_property(n, seed, dressed):
    sol, basis = plain_or_left_dressed(n, seed, dressed)
    r1, r2 = random_pair(n, np.random.default_rng(seed))
    modes = decompose_bifundamental(r1, r2, sol, basis=basis)
    assert np.array_equal(modes.t_coeffs, np.stack([r1[:, 0], r2[:, 0]]))
    if n == 1:
        assert modes.r_coeffs == {} == modes.s_coeffs
        return
    r_ref, s_ref = dense_decompose(r1, r2, sol, basis)
    assert set(modes.r_coeffs) == set(r_ref) == set(modes.s_coeffs) == set(s_ref)
    scale = max([abs(c) for c in r_ref.values()] + [np.max(np.abs(x)) for x in s_ref.values()])
    for key in r_ref:
        assert abs(modes.r_coeffs[key] - r_ref[key]) <= 1e-12 * scale
        assert np.max(np.abs(modes.s_coeffs[key] - s_ref[key])) <= 1e-12 * scale


def test_decompose_uses_no_least_squares_solver(monkeypatch):
    n = 9
    for sol in doublets(n):
        basis = build_basis(su2_from_bilinears(bilinears(sol), partition=(n,)))
        r1, r2 = random_pair(n, np.random.default_rng(n))
        r_ref, s_ref = dense_decompose(r1, r2, sol, basis)

        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.lstsq called")

        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "lstsq", refuse)
            modes = decompose_bifundamental(r1, r2, sol, basis=basis)
        for key in r_ref:
            assert abs(modes.r_coeffs[key] - r_ref[key]) < 1e-12
            assert np.max(np.abs(modes.s_coeffs[key] - s_ref[key])) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_basis_is_clebsch_gordan(n):
    from sympy import Rational
    from sympy.physics.wigner import clebsch_gordan

    basis = build_basis(irrep(n))
    j = Rational(n - 1, 2)
    for l, m in basis.keys():
        ref = np.zeros((n, n))
        for q in range(max(0, -m), min(n, n - m)):
            mu = q - j
            ref[q + m, q] = np.sqrt(2 * l + 1) * float(clebsch_gordan(j, l, j, mu, m, mu + m))
        assert np.max(np.abs(basis[(l, m)] - ref)) < 1e-13


def test_basis_follows_the_rotation():
    rep, u = rotated_irrep(7, 1)
    plain = build_basis(irrep(7))
    rotated = build_basis(rep)
    for key in plain.keys():
        assert np.max(np.abs(rotated[key] - u @ plain[key] @ dagger(u))) < 1e-12


def test_basis_stays_exact_past_the_ladder_range():
    # a ladder run down from Y_ll loses digits at every step; the per-diagonal
    # eigenvectors stay at rounding relative to the Laplacian scale
    n = 40
    rep = irrep(n)
    basis = build_basis(rep)
    worst = 0.0
    for l, m in [(n - 1, 0), (n - 2, 1), (n // 2, -3)]:
        y = basis[(l, m)]
        lap = sum(g @ (g @ y - y @ g) - (g @ y - y @ g) @ g for g in rep.generators)
        worst = max(worst, np.linalg.norm(lap - 4 * l * (l + 1) * y) / (4 * l * (l + 1)))
    assert worst < 1e-12


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=1, max_value=12), seed=st.integers(0, 2**32 - 1))
def test_structured_kernels_property(n, seed):
    rep, u = rotated_irrep(n, seed)
    ref = np.sort(np.concatenate([[4.0 * l * (l + 1)] * (2 * l + 1) for l in range(n)]))
    ev = fuzzy_laplacian_spectrum(rep)
    assert np.max(np.abs(ev - ref)) <= 1e-12 * max(1.0, ref[-1])
    basis = build_basis(rep)
    keys = basis.keys()
    flat = np.array([basis[key].reshape(-1) for key in keys])
    assert np.max(np.abs(flat.conj() @ flat.T - n * np.eye(n * n))) < 1e-12 * n
    sol = gauge_dress(ground_state(n), u, np.eye(n))
    rng = np.random.default_rng(seed)
    r1 = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    r2 = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    assert decompose_bifundamental(r1, r2, sol).residual < 1e-10 * n


# ---------------------------------------------------------------------------
# failure paths


@pytest.mark.parametrize("blocks", [(3, 2), (2, 2), (1, 1), (4, 1)])
def test_relabelled_direct_sum_is_refused(blocks):
    ds = direct_sum([irrep(b) for b in blocks])
    fake = Su2Representation(*ds.generators, partition=(ds.dim,))
    for fn in (fuzzy_laplacian_spectrum, scalar_kinetic_spectrum, build_basis):
        with pytest.raises(ValueError, match="not an irreducible representation"):
            fn(fake)


def test_derived_partition_decides_irreducibility():
    # an irreducible input without a recorded partition is accepted: the frame
    # derives the partition instead of reading it
    rep, _ = rotated_irrep(5, 1)
    bare = Su2Representation(*rep.generators)
    assert_allclose(fuzzy_laplacian_spectrum(bare), fuzzy_laplacian_spectrum(rep), atol=1e-12)
    assert_allclose(
        scalar_kinetic_spectrum(bare).eigenvalues, scalar_kinetic_spectrum(rep).eigenvalues,
        atol=1e-12,
    )
    assert build_basis(bare).keys() == build_basis(rep).keys()


def test_kinetic_spectrum_finds_the_frame_once(monkeypatch):
    import fuzzball.harmonics as harmonics

    calls = []
    frame = harmonics.weight_frame
    monkeypatch.setattr(harmonics, "weight_frame", lambda rep: calls.append(1) or frame(rep))
    rep, _ = rotated_irrep(6, 2)
    spec = scalar_kinetic_spectrum(rep)
    assert len(calls) == 1
    monkeypatch.undo()
    assert np.array_equal(spec.eigenvalues, scalar_kinetic_spectrum(rep).eigenvalues)


def test_mode_convergence_finds_each_frame_once(monkeypatch):
    import fuzzball.harmonics as harmonics

    calls = []
    frame = harmonics.weight_frame
    monkeypatch.setattr(harmonics, "weight_frame", lambda rep: calls.append(1) or frame(rep))
    table = mode_convergence([8, 16], 2, 1)
    assert len(calls) == 2
    monkeypatch.undo()
    # the same numbers as the public symbol_map path on mode_convergence's grid
    theta = (np.arange(24) + 0.5) * np.pi / 24
    tt, pp = np.meshgrid(theta, np.arange(48) * 2 * np.pi / 48, indexing="ij")
    for n, err in table:
        rep = irrep(n)
        sym = symbol_map(build_basis(rep)[(2, 1)], rep, tt, pp)
        assert err == float(np.max(np.abs(sym - classical_ylm(2, 1, tt, pp))))


def _decompose_cli(tmp_path, sol, r):
    """Exit code of the ``decompose`` command on ``sol`` and the pair ``r``."""
    gfile = tmp_path / "g.json"
    gfile.write_text(json.dumps(sol.to_json()))
    paths = []
    for k, x in enumerate(r):
        p = tmp_path / f"r{k}.json"
        p.write_text(json.dumps(matrix_to_json(x)))
        paths.append(str(p))
    return cli_main(["decompose", "--solution", str(gfile), "--matrix", ",".join(paths)])


def test_right_dressed_doublet_fails_decompose(tmp_path, capsys):
    n = 4
    rng = np.random.default_rng(7)
    sol = gauge_dress(ground_state(n), np.eye(n), random_unitary(n, rng))
    r1 = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    r2 = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    with pytest.raises(ValueError, match="not in the canonical gauge"):
        decompose_bifundamental(r1, r2, sol)

    assert _decompose_cli(tmp_path, sol, (r1, r2)) == 2
    assert "not in the canonical gauge" in capsys.readouterr().err
    gfile = tmp_path / "g.json"
    assert GrvvSolution.from_json(json.loads(gfile.read_text())).dressed


def test_right_dressing_that_keeps_the_edge_fails_the_residual_check():
    # 1 + W on the right keeps g^b e_1 = 0 but reorders the right index: the
    # gauge check passes and the reconstruction names the assumed gauge
    n = 5
    rng = np.random.default_rng(8)
    uhat = np.eye(n, dtype=complex)
    uhat[1:, 1:] = random_unitary(n - 1, rng)
    sol = gauge_dress(ground_state(n), random_unitary(n, rng), uhat)
    r1 = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    r2 = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    with pytest.raises(ArithmeticError, match="canonical right gauge"):
        decompose_bifundamental(r1, r2, sol)


@pytest.mark.parametrize(
    "which, message",
    [("dressed", "not in the canonical gauge"), ("not-a-solution", "does not solve the cubic")],
)
def test_decompose_cli_refuses_before_fitting(tmp_path, capsys, which, message):
    n = 8
    rng = np.random.default_rng(3)
    if which == "dressed":
        gfile = tmp_path / "dressed.json"
        assert cli_main(["gen", "grvv", "--n", str(n), "--dress", "3", "--out", str(gfile)]) == 0
        sol = GrvvSolution.from_json(json.loads(gfile.read_text()))
    else:
        sol = GrvvSolution(g1=rng.normal(size=(n, n)), g2=rng.normal(size=(n, n)), partition=(n,))
    r = [rng.normal(size=(n, n)), rng.normal(size=(n, n))]
    capsys.readouterr()
    assert _decompose_cli(tmp_path, sol, r) == 2
    err = capsys.readouterr().err
    assert message in err and "bug" not in err
