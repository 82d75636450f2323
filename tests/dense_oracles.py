"""Test oracles: the dense N^2 x N^2 operators that the weight-frame kernels
replace (the adjoint Laplacian and the fluctuation kinetic operator on
row-major vectorized matrices), the closed-form kinetic levels, the grouping
of measured eigenvalues into levels by a tolerance, the dense
matrix helpers the compatibility relations and the superalgebra brackets are
checked with (SVD pseudo-inverse, eigensolver square root, anticommutator,
Frobenius distance), and the geometry grid checks evaluated over the whole
grid at once, which the blocked ``grid_report`` and ``identification_check``
replace."""

import numpy as np

from fuzzball import geometry
from fuzzball.geometry import (
    ID_PHASE,
    SIGMA,
    SIGMA_T,
    IdentificationReport,
    _aligned_section,
    _apply2,
    _central_difference,
    _dag2,
    _dx_from_law,
    _killing_defect,
    _mul2,
    _projected,
    _rotated_gamma,
    _sup,
    hopf_s2,
    section,
    unit_vector,
)
from fuzzball.matcore import as_matrix, dagger, frobenius_norm
from fuzzball.su2rep import EPS3


def anticommutator(a, b):
    return a @ b + b @ a


def frobenius_distance(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


def pseudo_inverse(a, rcond=1e-12):
    """Moore-Penrose inverse; singular values below rcond * s_max drop."""
    a = as_matrix(a)
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return dagger(a)
    cut = rcond * s[0]
    inv = np.where(s > cut, 1.0 / np.where(s > cut, s, 1.0), 0.0)
    return dagger(vh) @ np.diag(inv) @ dagger(u)


def hermitian_sqrt(a, tol=1e-10):
    """Square root of a Hermitian PSD matrix via eigendecomposition.

    Eigenvalues in [-tol, tol] (relative to the largest one) are clamped to
    zero so that exact kernels stay exact; anything more negative raises.
    """
    a = as_matrix(a)
    herm_defect = frobenius_distance(a, dagger(a))
    scale = max(frobenius_norm(a), 1.0)
    if herm_defect > tol * scale:
        raise ValueError(f"matrix is not Hermitian (defect {herm_defect:.3e})")
    w, v = np.linalg.eigh((a + dagger(a)) / 2)
    wmax = max(float(w[-1]), 0.0)
    cut = tol * max(wmax, 1.0)
    if w[0] < -cut:
        raise ValueError(f"negative eigenvalue {w[0]:.3e} beyond tolerance")
    w = np.where(w > cut, w, 0.0)
    return (v * np.sqrt(w)) @ dagger(v)


def ad_matrix(j, n):
    """ad(J) as an n^2 x n^2 matrix on row-major vectorized matrices."""
    eye = np.eye(n)
    return np.kron(j, eye) - np.kron(eye, j.T)


def adjoint_laplacian_matrix(rep):
    n = rep.dim
    return sum(ad_matrix(g, n) @ ad_matrix(g, n) for g in rep.generators)


def scalar_kinetic_matrix(rep):
    """(1 + J^2) d_ij - i eps_ijk J_k on triples of matrices, J acting in the
    adjoint; Hermitian under the trace inner product."""
    n = rep.dim
    d = n * n
    ads = [ad_matrix(g, n) for g in rep.generators]
    lap = sum(a @ a for a in ads)
    k = np.zeros((3 * d, 3 * d), dtype=complex)
    for i in range(3):
        k[i * d : (i + 1) * d, i * d : (i + 1) * d] = np.eye(d) + lap
    for i in range(3):
        for j in range(3):
            for kk in range(3):
                if EPS3[i, j, kk]:
                    k[i * d : (i + 1) * d, j * d : (j + 1) * d] += (
                        -1j * EPS3[i, j, kk] * ads[kk]
                    )
    return k


def kinetic_levels(n):
    """Closed-form kinetic levels (3l(l+1) + j(j+1) - 1, 2j + 1, l, j) in
    ascending order, for l < n and j in {l - 1, l, l + 1} (only j = 1 at l = 0)."""
    pairs = [(l, j) for l in range(n) for j in (l - 1, l, l + 1) if j >= 0 and (l or j == 1)]
    return sorted((3 * l * (l + 1) + j * (j + 1) - 1.0, 2 * j + 1, l, j) for l, j in pairs)


def group_eigenvalues(ev, tol=1e-8):
    """[(start, stop)] runs of sorted eigenvalues that count as one level: a
    value joins the run while it lies within tol * max(1, |first|) of the
    run's first value."""
    runs = []
    i = 0
    while i < len(ev):
        j = i + 1
        while j < len(ev) and abs(ev[j] - ev[i]) < tol * max(1.0, abs(ev[i])):
            j += 1
        runs.append((i, j))
        i = j
    return runs


def grid_report(grid, h=1e-4):
    """The four per-point residual arrays of ``geometry.grid_report``, each
    evaluated over the whole (n_theta, n_phi) grid at once."""
    theta, phi = grid.theta[:, None], grid.phi[None, :]
    x = unit_vector(theta, phi)
    s = geometry.s_matrix(theta, phi)
    x_sigma_t = (x @ SIGMA_T.reshape(3, 4)).reshape(x.shape[:-1] + (2, 2))
    g3 = _mul2(_mul2(s, SIGMA[2]), _dag2(s)) + x_sigma_t
    return {
        "hopf_section_roundtrip": np.max(np.abs(hopf_s2(section(x)) - x), axis=-1),
        "gamma3_relation": np.max(np.abs(g3), axis=(-2, -1)),
        "spinor_coordinates": np.max(np.abs(hopf_s2(_projected(theta, phi)) - x), axis=-1),
        "killing_equation": _killing_defect(theta, phi, h, richardson=True),
    }


def s_unitarity(grid):
    """sup |S S^dag - 1| over the whole grid at once."""
    s = geometry.s_matrix(grid.theta[:, None], grid.phi[None, :])
    return float(np.max(np.abs(np.einsum("...ab,...cb->...ac", s, s.conj()) - np.eye(2))))


def identification_check(grid, h=1e-4, phi_window=0.02):
    """``geometry.identification_check`` with every check evaluated over the
    whole grid at once."""
    theta, phi = grid.theta[:, None], grid.phi[None, :]
    x = unit_vector(theta, phi)
    u0 = _projected(theta, phi)
    g0 = section(x)
    a0 = _aligned_section(theta, phi)
    a0c = a0.conj()
    mth, mph = _rotated_gamma(theta, phi)
    res_a = _sup(hopf_s2(u0) - x)
    law_bt = 0.5j * _apply2(mth, u0)
    law_bp = 0.5j * _apply2(mph, u0)
    law_bc = 0.5j * np.cos(theta)[..., None] * u0
    law_c = (0.5j * _apply2(mth, a0), 0.5j * _apply2(mph, a0))

    def fd_b(step):
        dth, dph = _central_difference(_projected, theta, phi, step)
        return max(_sup(dth + law_bt), _sup(dph + law_bp - law_bc))

    def fd_c(step):
        res = 0.0
        for d, law in zip(_central_difference(_aligned_section, theta, phi, step), law_c):
            defect = d + law
            coeff = np.imag(a0c[..., 0] * defect[..., 0] + a0c[..., 1] * defect[..., 1])
            res = max(res, _sup(defect - 1j * coeff[..., None] * a0))
        return res

    h_ord = max(h, 2e-3)
    phis = np.linspace(-phi_window, phi_window, 9)[None, :]
    match = (
        ID_PHASE
        * np.exp(0.5j * phis * np.cos(theta))[..., None]
        * _aligned_section(theta, phis)
    )
    res_e = max(_sup(_dx_from_law(m, u0) - _dx_from_law(m, g0)) for m in (mth, mph))
    return IdentificationReport(
        coordinate=res_a,
        projected_derivative=fd_b(h),
        section_derivative=fd_c(h),
        local_phase=_sup(_projected(theta, phis) - match),
        dx_agreement=res_e,
        order_b=float(np.log2(fd_b(h_ord) / fd_b(h_ord / 2))),
        order_c=float(np.log2(fd_c(h_ord) / fd_c(h_ord / 2))),
    )
