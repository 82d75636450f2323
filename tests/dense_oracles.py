"""Test oracles: the dense N^2 x N^2 operators that the weight-frame kernels
replace (the adjoint Laplacian and the fluctuation kinetic operator on
row-major vectorized matrices), the closed-form kinetic levels, the grouping
of measured eigenvalues into levels by a tolerance, the dense
matrix helpers the compatibility relations and the superalgebra brackets are
checked with (SVD pseudo-inverse, eigensolver square root, anticommutator,
Frobenius distance), the geometry grid checks evaluated over the whole grid
at once, which the blocked ``grid_report`` and ``identification_check``
replace, and the trailing-axis (array-of-structures) 2x2 kernels and grid
blocks that the component-first ones in ``fuzzball.geometry`` replace, and
the graded brackets evaluated on blocks sliced out of the 2N x 2N
supermatrices of ``superalg.build``, which ``superalg`` replaces by brackets
on the N x N blocks themselves."""

import math

import numpy as np

from fuzzball import geometry
from fuzzball.geometry import (
    ID_PHASE,
    SIGMA,
    SIGMA_T,
    IdentificationReport,
    _apply2,
    _central_difference,
    _sup,
    hopf_s2,
    killing_spinor,
    section,
    unit_vector,
    weyl_plus,
)
from fuzzball.matcore import as_matrix, commutator, dagger, frobenius_norm
from fuzzball.su2rep import EPS3, EPS_LOWER, PAULI
from fuzzball.superalg import CalibrationResult, build


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


# ---------------------------------------------------------------------------
# graded brackets on the blocks of the 2N x 2N supermatrices: the same
# products, in the same order, as superalg's block brackets, so the residuals
# agree to the last bit


def _worst(values):
    """Largest value, NaN if any is NaN."""
    return float(np.max(list(values)))


def _block_norm(upper, lower):
    return math.hypot(np.linalg.norm(upper), np.linalg.norm(lower))


class SlicedBrackets:
    """The even blocks J_i, Jbar_i and odd blocks T_a, B_a sliced out of
    ``sms``; ``ee`` and ``eo`` as in ``superalg.osp_closure_residual``,
    ``odd_odd(rhs, c)`` with the odd generators scaled by a further c."""

    def __init__(self, sms):
        n2 = sms.even[0].shape[0]
        up, lo = slice(0, n2 // 2), slice(n2 // 2, n2)
        j = [m[up, up] for m in sms.even]
        jb = [m[lo, lo] for m in sms.even]
        t = [m[up, lo] for m in sms.odd]
        b = [m[lo, up] for m in sms.odd]
        self.even = (j, jb)
        self.ee = _worst(
            _block_norm(
                commutator(j[i], j[k]) - 2j * EPS3[i, k, m] * j[m],
                commutator(jb[i], jb[k]) - 2j * EPS3[i, k, m] * jb[m],
            )
            for i, k, m in ((0, 1, 2), (0, 2, 1), (1, 2, 0))
        )
        eo = []
        for i in range(3):
            for a in range(2):
                rhs_t = -sum(PAULI[i][a, d] * t[d] for d in range(2))
                rhs_b = -sum(PAULI[i][a, d] * b[d] for d in range(2))
                eo.append(_block_norm(j[i] @ t[a] - t[a] @ jb[i] - rhs_t,
                                      jb[i] @ b[a] - b[a] @ j[i] - rhs_b))
        self.eo = _worst(eo)
        self.anti = {}
        for a in range(2):
            for c in range(a, 2):
                self.anti[a, c] = self.anti[c, a] = (
                    t[a] @ b[c] + t[c] @ b[a],
                    b[a] @ t[c] + b[c] @ t[a],
                )

    def odd_odd_rhs(self, convention):
        if convention == "eps_left":
            low = [EPS_LOWER @ p.T for p in PAULI]
        else:
            low = [p.T @ EPS_LOWER for p in PAULI]
        return {
            (a, c): tuple(-sum(low[i][a, c] * e[i] for i in range(3)) for e in self.even)
            for a in range(2)
            for c in range(2)
        }

    def odd_odd(self, rhs, c=1.0):
        c2 = c * c
        return _worst(
            _block_norm(c2 * self.anti[key][0] - r[0], c2 * self.anti[key][1] - r[1])
            for key, r in rhs.items()
        )


def sliced_closure_residual(sms, convention="eps_left"):
    """(ee, eo, oo) of ``sms`` from the sliced blocks (no structure check)."""
    br = SlicedBrackets(sms)
    return br.ee, br.eo, br.odd_odd(br.odd_odd_rhs(convention))


def sliced_calibrate(sol, scales=None):
    """The (scale, convention) search of ``superalg.calibrate`` without a
    tolerance, scored on the blocks of ``build(sol, 1.0)``."""
    n = sol.size
    if scales is None:
        scales = sorted(
            {0.25, 0.5, 1 / np.sqrt(2), 1.0, np.sqrt(2), 2.0, np.sqrt(n), 1 / np.sqrt(n)}
        )
    br = SlicedBrackets(build(sol, scale=1.0))
    best = None
    for convention in ("eps_left", "eps_right"):
        rhs = br.odd_odd_rhs(convention)
        for c in scales:
            res = (br.ee, abs(float(c)) * br.eo, br.odd_odd(rhs, c))
            if best is None or _worst(res) < best.total:
                best = CalibrationResult(scale=float(c), convention=convention, residuals=res)
    return best


# ---------------------------------------------------------------------------
# trailing-axis 2x2 kernels: every matrix on (..., 2, 2), every spinor on
# (..., 2); the grid blocks below are the component-first
# geometry._report_block and geometry._identification_block in this layout


def _mul2(a, b):
    """Batched 2x2 product a @ b over the trailing two axes (broadcasting)."""
    return a[..., :, :1] * b[..., :1, :] + a[..., :, 1:] * b[..., 1:, :]


def _dag2(a):
    """Conjugate transpose of a stack of 2x2 matrices."""
    return np.swapaxes(a, -1, -2).conj()


def _sigma_t_forms(x, y):
    """x^dag sigma_i^T y for i = 1, 2, 3, stacked on a trailing axis."""
    xc0, xc1 = x[..., 0].conj(), x[..., 1].conj()
    y0, y1 = y[..., 0], y[..., 1]
    return np.stack(
        [xc0 * y1 + xc1 * y0, 1j * (xc0 * y1 - xc1 * y0), xc0 * y0 - xc1 * y1], axis=-1
    )


def _projected(theta, phi):
    """sqrt(2) P_+ eta at (theta, phi)."""
    return weyl_plus(killing_spinor(theta, phi))


def _gamma_a(theta):
    """gamma_theta, gamma_phi = sigma_1, sin(theta) sigma_2 (lower index)."""
    return SIGMA[0], np.sin(np.asarray(theta, dtype=float))[..., None, None] * SIGMA[1]


def _killing_defect(theta, phi, h, connection_sign=-1.0, richardson=False):
    """Pointwise sup-norm defect of D_a eta = (i/2) gamma_a eta."""
    eta0 = killing_spinor(theta, phi)
    dth, dph = _central_difference(killing_spinor, theta, phi, h, richardson)
    gth, gph = _gamma_a(theta)
    rt = dth - 0.5j * _mul2(gth, eta0)
    # D_phi = d_phi + (1/2) omega^{12}_phi gamma_12, gamma_12 = i sigma_3
    cos = np.asarray(np.cos(theta))[..., None, None]
    rp = dph + 0.5j * connection_sign * cos * _mul2(SIGMA[2], eta0) - 0.5j * _mul2(gph, eta0)
    return np.maximum(np.max(np.abs(rt), axis=(-2, -1)), np.max(np.abs(rp), axis=(-2, -1)))


def _aligned_section(theta, phi):
    """geometry._aligned_section on a trailing spinor axis."""
    g = section(unit_vector(theta, phi))
    phase = np.exp(0.5j * np.asarray(phi) * (1.0 - np.cos(theta)))
    return phase[..., None] * g


def _rotated_gamma(theta, phi):
    """M_a = S gamma_a S^dag for a = theta, phi."""
    s = geometry.s_matrix(theta, phi)
    sd = _dag2(s)
    gth, gph = _gamma_a(theta)
    return _mul2(_mul2(s, gth), sd), _mul2(_mul2(s, gph), sd)


def _dx_from_law(m, v):
    """(i/2) v^dag [M, sigma_i^T] v for i = 1, 2, 3: the d_a x_i implied by
    the derivative law d_a v = -(i/2) M_a v."""
    return 0.5j * (
        _sigma_t_forms(_apply2(_dag2(m), v), v) - _sigma_t_forms(v, _apply2(m, v))
    )


def _identification_block(theta, phi, h, phi_window):
    """geometry._identification_block in the trailing-axis layout."""
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

    phis = np.linspace(-phi_window, phi_window, 9)[None, :]
    match = (
        ID_PHASE
        * np.exp(0.5j * phis * np.cos(theta))[..., None]
        * _aligned_section(theta, phis)
    )
    res_d = _sup(_projected(theta, phis) - match)
    res_e = max(_sup(_dx_from_law(m, u0) - _dx_from_law(m, g0)) for m in (mth, mph))
    h_ord = max(h, 2e-3)
    return np.array(
        [res_a, fd_b(h), fd_c(h), res_d, res_e,
         fd_b(h_ord), fd_b(h_ord / 2), fd_c(h_ord), fd_c(h_ord / 2)]
    )


def _report_block(theta, phi, h):
    """geometry._report_block in the trailing-axis layout."""
    x = unit_vector(theta, phi)
    s = geometry.s_matrix(theta, phi)
    x_sigma_t = (
        x[..., 0, None, None] * SIGMA_T[0]
        + x[..., 1, None, None] * SIGMA_T[1]
        + x[..., 2, None, None] * SIGMA_T[2]
    )
    g3 = _mul2(_mul2(s, SIGMA[2]), _dag2(s)) + x_sigma_t
    return np.stack(
        [
            np.max(np.abs(hopf_s2(section(x)) - x), axis=-1),
            np.max(np.abs(g3), axis=(-2, -1)),
            np.max(np.abs(hopf_s2(_projected(theta, phi)) - x), axis=-1),
            _killing_defect(theta, phi, h, richardson=True),
        ]
    )


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
