"""Test oracles: the dense N^2 x N^2 operators that the weight-frame kernels
replace (the adjoint Laplacian and the fluctuation kinetic operator on
row-major vectorized matrices), the dense per-charge kinetic blocks and
their coupled vectors, which ``spectra`` replaces by the images of each
weight-frame diagonal's stored vectors, the closed-form kinetic levels, the
grouping of measured eigenvalues into levels by a tolerance, the dense
matrix helpers the compatibility relations and the superalgebra brackets are
checked with (SVD pseudo-inverse, eigensolver square root, anticommutator,
Frobenius distance), the geometry grid checks evaluated over the whole grid
at once, which the one blocked pass of ``grid_report`` replaces, and the
trailing-axis (array-of-structures) 2x2 kernels and grid blocks that the
component-first ones in ``fuzzball.geometry`` replace, and
the 2N x 2N supermatrices of the graded closure (``build``) with the
brackets evaluated on blocks sliced out of them, which ``superalg`` replaces
by brackets on the N x N blocks themselves, and the spin-map and graded-closure
evaluators that hold every bilinear table at once (the whole
``BilinearSet``, the odd blocks T_a and B_a, all four odd-odd keys and a
convention's whole right-hand side), which ``su2rep`` and ``superalg``
replace by evaluators that form one table, one key, at a time, the
gauge dressing with its Gaussians, its QR factor and its Gram defect held
whole, which ``matcore`` and ``grvv`` replace by a dressing that holds one
of each at a time, and the complex harmonics basis on a dense generator
triple with every diagonal stored, which ``harmonics`` replaces by real
m >= 0 diagonals read off the weight frame's real bands, and the canonical
block layout built block by block (dense irreps from their ladder matrices,
copied into zero matrices, ground states copied likewise and the u(1) traces
as dense diagonal matrices), which ``su2rep._canonical_sum``,
``grvv.block_solution`` and ``equivalence.canonical_traces`` replace by
closed forms in each row's place in its block."""

import math
from dataclasses import dataclass

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
from fuzzball.grvv import GrvvSolution, ground_state
from fuzzball.matcore import as_matrix, commutator, dagger, frobenius_norm, max_frobenius
from fuzzball.harmonics import _ad, _diagonal_index, _laplacian_block
from fuzzball.spectra import _LOWER, _SIGMAS, _cg1
from fuzzball.su2rep import (
    _EPS,
    EPS3,
    EPS_LOWER,
    PAULI,
    Su2Representation,
    bilinears,
    direct_sum,
    weight_frame,
)
from fuzzball.superalg import CalibrationResult


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
# the per-charge kinetic blocks that ``spectra.scalar_kinetic_spectrum``
# replaces by the images of each diagonal's stored vectors: for each total
# charge M a dense 3(N - |M|)-square block of K and a dense matrix of the
# coupled vectors |l j M> as its columns

# sum_i S_i ad(J_i) on the spherical components, as (real coefficients,
# charge shift k of ad(J_k), ``harmonics._ad``)
_SPIN_TERMS = ((np.diag([1.0, 0.0, -1.0]), 0), (_LOWER, 1), (_LOWER.T, -1))


def _kinetic_block(bands, total):
    """The kinetic operator on spherical components of total charge M: the
    sigma component sits on the diagonal c = M - sigma of the weight frame."""
    n = bands[0].size
    charges = [total - sig for sig in _SIGMAS]
    sizes = [max(n - abs(c), 0) for c in charges]
    starts = np.concatenate([[0], np.cumsum(sizes)])
    k = np.zeros((starts[-1], starts[-1]))
    for b, c in enumerate(charges):
        if not sizes[b]:
            continue
        cols = slice(starts[b], starts[b + 1])
        d, off = _laplacian_block(bands, c)
        k[cols, cols] += np.diag(1 + d) + np.diag(off, -1) + np.diag(off, 1)
        for coef, shift in _SPIN_TERMS:
            a = b + shift  # the component on the c + shift diagonal
            if 0 <= a < 3 and sizes[a]:
                ad = _ad(bands, shift, c, np.eye(sizes[b])).T
                k[starts[a] : starts[a + 1], cols] += coef[a, b] * ad
    return k, starts


def _coupled_block(basis, total, starts):
    """Unit vectors |l j M> = sum_sigma <l, M - sigma; 1, sigma | j, M>
    Y_{l, M - sigma} e_sigma in the layout of ``_kinetic_block(bands, M)``,
    as columns, with their l and j; for j in {l - 1, l, l + 1} (only j = 1
    at l = 0) and j >= |M| they fill the block.  The spherical e_{+1} =
    (1, i, 0)/sqrt2 lacks the Condon-Shortley sign, so sigma = +1 takes a
    factor -1."""
    n = basis.dim
    ls = [np.arange(max(abs(total) - dj, int(dj < 1)), n) for dj in (-1, 0, 1)]
    v = np.zeros((starts[-1], sum(l.size for l in ls)))
    end = 0
    for dj, l in zip((-1, 0, 1), ls):
        end += l.size
        for b, sig in enumerate(_SIGMAS):
            c = total - sig
            l_c = l[l >= abs(c)]  # the l whose Y_{l, c} exist, a tail of l
            if l_c.size:
                coef = (-1 if sig == 1 else 1) * _cg1(l_c, dj, total, sig)
                ys = basis.diagonal(c)[l_c - abs(c)]
                v[starts[b] : starts[b + 1], end - l_c.size : end] = (coef[:, None] * ys).T
    l = np.concatenate(ls)
    return v / math.sqrt(n), l, l + np.repeat([-1, 0, 1], [x.size for x in ls])

# ---------------------------------------------------------------------------
# the complex harmonics basis that ``harmonics`` replaces by real m >= 0
# diagonals read off the real bands: a dense complex [J_3, J_+, J_-] triple,
# Hermitian-averaged Laplacian blocks, phases fixed against rescaled (J_+)^l
# products, every one of the 2N - 1 diagonals stored and solved


def complex_weight_frame(rep):
    """U = ``su2rep.weight_frame`` of ``rep`` and the rotated U^dag (J_3, J_+, J_-) U."""
    u, canon, _ = weight_frame(rep)
    if canon.partition != (rep.dim,):
        raise ValueError(f"partition {canon.partition}: not an irreducible representation")
    j1, j2, j3 = canon.generators
    return u, [j3, j1 + 1j * j2, j1 - 1j * j2]


def complex_ad(gens, k, c):
    """ad(J_k) from the c to the c + k diagonal, gens[k] picking J_3, J_+, J_-
    for k = 0, 1, -1, read on J_k's own band."""
    j, n = gens[k], gens[k].shape[0]
    p, q = _diagonal_index(n, c)
    out = np.zeros((max(n - abs(c + k), 0), p.size), dtype=complex)
    ok = np.flatnonzero((p + k >= 0) & (p + k < n))
    out[q[ok] - max(-c - k, 0), ok] += j[p[ok] + k, p[ok]]
    ok = np.flatnonzero((q - k >= 0) & (q - k < n))
    out[p[ok] - max(c + k, 0), ok] -= j[q[ok], q[ok] - k]
    return out


def complex_laplacian_block(gens, c):
    """The adjoint Laplacian on the c diagonal from the complex bands
    s = diag(J_+, -1) and t = diag(J_-, 1), Hermitian-averaged."""
    w, s, t = np.diagonal(gens[0]), np.diagonal(gens[1], -1), np.diagonal(gens[2], 1)
    a = np.append(0, s * t) + np.append(s * t, 0)
    p, q = _diagonal_index(w.size, c)
    lap = np.diag((w[p] - w[q]) ** 2 + (a[p] + a[q]) / 2)
    lap += np.diag(-s[p[:-1]] * t[q[:-1]], -1) + np.diag(-t[p[:-1]] * s[q[:-1]], 1)
    return (lap + dagger(lap)) / 2


def complex_basis(rep):
    """{m: rows l - |m| of the complex weight-frame diagonals of Y_lm} for
    m = -(N-1)..N-1, the -m ones from Y_{l,-m} = (-1)^m Y_lm^dag."""
    n = rep.dim
    _, gens = complex_weight_frame(rep)
    s = np.diagonal(gens[1], -1)
    tops = [np.ones(n, dtype=complex)]
    for l in range(1, n):
        top = -tops[-1][:-1] * s[l - 1 :]
        tops.append(top / np.linalg.norm(top))
    diagonals = {}
    for m in range(n - 1, -1, -1):
        _, v = np.linalg.eigh(complex_laplacian_block(gens, m))
        ref = tops[m][:, None]
        if m < n - 1:
            ref = np.hstack([ref, complex_ad(gens, -1, m + 1) @ diagonals[m + 1].T])
        overlap = np.sum(v.conj() * ref, axis=0)
        diagonals[m] = (v * (math.sqrt(n) * overlap / np.abs(overlap))).T
    for m in range(1, n):
        diagonals[-m] = (-1) ** m * diagonals[m].conj()
    return diagonals


def complex_laplacian_spectrum(rep):
    """The Laplacian spectrum from all 2N - 1 complex blocks."""
    n = rep.dim
    _, gens = complex_weight_frame(rep)
    blocks = [np.linalg.eigvalsh(complex_laplacian_block(gens, m)) for m in range(1 - n, n)]
    return np.sort(np.concatenate(blocks))


# ---------------------------------------------------------------------------
# the 2N x 2N supermatrices of the graded closure, and the graded brackets on
# their blocks: the same products, in the same order, as superalg's block
# brackets, so the residuals agree to the last bit


@dataclass(frozen=True)
class SuperMatrixSet:
    even: tuple  # three (2N)x(2N) block-diagonal matrices
    odd: tuple  # two (2N)x(2N) block-off-diagonal matrices
    scale: float


def _lowered(g):
    """T_a = sum_c eps_{ac} g^c: the upper-right blocks of Q_a at c = 1."""
    return [sum(EPS_LOWER[a, c] * g[c] for c in range(2)) for a in range(2)]


def build(sol, scale=1.0):
    """The even generators diag(J_i, Jbar_i) and the odd ones
    Q_a = [[0, c T_a], [-c gd_a, 0]] at c = ``scale``."""
    n = sol.size
    b = bilinears(sol)
    z = np.zeros((n, n), dtype=complex)
    even = tuple(
        np.block([[b.j[i], z], [z, b.jbar_i[i]]]) for i in range(3)
    )
    gd = sol.daggers
    odd = tuple(
        np.block([[z, scale * t], [-scale * gd[a], z]])
        for a, t in enumerate(_lowered(sol.matrices))
    )
    return SuperMatrixSet(even=even, odd=odd, scale=float(scale))


def _worst(values):
    """Largest value, NaN if any is NaN."""
    return float(np.max(list(values)))


def _block_norm(upper, lower):
    return math.hypot(np.linalg.norm(upper), np.linalg.norm(lower))


class HeldBrackets:
    """The graded brackets on the blocks J_i, Jbar_i of the even generators
    and T_a, B_a of the odd ones, all held as matrices; ``ee`` and ``eo`` as
    in ``superalg.calibrate``, ``odd_odd(rhs, c)`` over all four keys with
    the odd generators scaled by a further c."""

    def __init__(self, j, jb, t, b):
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


class SlicedBrackets(HeldBrackets):
    """``HeldBrackets`` of the blocks sliced out of the supermatrices ``sms``.
    Raises ``ValueError`` unless the even matrices are exactly
    block-diagonal and the odd ones exactly block-off-diagonal: slicing
    would drop the other blocks unseen."""

    def __init__(self, sms):
        n2 = sms.even[0].shape[0]
        if n2 % 2 or any(m.shape != (n2, n2) for m in sms.even + sms.odd):
            raise ValueError("supermatrices must all be 2N x 2N")
        up, lo = slice(0, n2 // 2), slice(n2 // 2, n2)
        if any(np.any(m[up, lo]) or np.any(m[lo, up]) for m in sms.even):
            raise ValueError("even supermatrix has a nonzero off-diagonal block")
        if any(np.any(m[up, up]) or np.any(m[lo, lo]) for m in sms.odd):
            raise ValueError("odd supermatrix has a nonzero diagonal block")
        super().__init__(
            [m[up, up] for m in sms.even],
            [m[lo, lo] for m in sms.even],
            [m[up, lo] for m in sms.odd],
            [m[lo, up] for m in sms.odd],
        )


def sliced_closure_residual(sms, convention="eps_left"):
    """(even-even, even-odd, odd-odd) residuals of the graded relations

    even-even:  [E_i, E_j] = 2i eps_ijk E_k
    even-odd:   [E_i, Q_a] = -sigma_i[a, d] Q_d
    odd-odd:    {Q_a, Q_b} = -(sigma_i)_{ab} E_i, with the lowered symbol
                read per ``convention``

    on the blocks sliced out of ``sms``."""
    br = SlicedBrackets(sms)
    return br.ee, br.eo, br.odd_odd(br.odd_odd_rhs(convention))


def _search(br, n, scales):
    """The (scale, convention) search of ``superalg.calibrate`` without a
    tolerance, scored on the brackets ``br``, with the scores of every
    candidate."""
    if scales is None:
        scales = sorted(
            {0.25, 0.5, 1 / np.sqrt(2), 1.0, np.sqrt(2), 2.0, np.sqrt(n), 1 / np.sqrt(n)}
        )
    best = None
    scores = {}
    for convention in ("eps_left", "eps_right"):
        rhs = br.odd_odd_rhs(convention)
        for c in scales:
            res = scores[float(c), convention] = (
                br.ee, abs(float(c)) * br.eo, br.odd_odd(rhs, c)
            )
            if best is None or _worst(res) < _worst(best[1]):
                best = (float(c), convention), res
    (scale, convention), res = best
    return CalibrationResult(scale, convention, res, scores)


def sliced_calibrate(sol, scales=None):
    """``superalg.calibrate`` without a tolerance, scored on the blocks of
    ``build(sol, 1.0)``."""
    return _search(SlicedBrackets(build(sol, scale=1.0)), sol.size, scales)


def held_calibrate(sol, scales=None):
    """``superalg.calibrate`` without a tolerance, scored on J_i and Jbar_i
    of ``bilinears(sol)`` and the blocks T_a = eps_{ac} g^c, B_a = -gd_a held
    as matrices."""
    b = bilinears(sol)
    t = _lowered(sol.matrices)
    odd_b = [-gd for gd in sol.daggers]
    return _search(HeldBrackets(b.j, b.jbar_i, t, odd_b), sol.size, scales)


# ---------------------------------------------------------------------------
# spin-map evaluators on the whole BilinearSet


def held_u2_structure(sol):
    """``su2rep.u2_structure_residual`` of ``bilinears(sol)``: both tables
    held, both guarded before either is checked."""
    b = bilinears(sol)
    kbar = tuple(tuple(b.jbar[bb][a] for bb in range(2)) for a in range(2))
    for t in (b.jmat, kbar):
        if not np.array_equal(t[1][0], dagger(t[0][1]), equal_nan=True):
            raise ValueError("bilinear table is not adjoint-paired")
        for a in range(2):
            d = t[a][a]
            if frobenius_norm(d - dagger(d)) > len(d) * _EPS * frobenius_norm(d):
                raise ValueError(f"bilinear table entry ({a}, {a}) is not Hermitian")
    pairs = (((0, 0), (0, 1)), ((0, 0), (1, 1)), ((0, 1), (1, 0)), ((0, 1), (1, 1)))
    return max_frobenius(
        commutator(t[a][bb], t[m][n]) - ((m == bb) * t[a][n] - (a == n) * t[m][bb])
        for t in (b.jmat, kbar) for (a, bb), (m, n) in pairs
    )


def held_covariance(sol):
    """``su2rep.doublet_covariance_residual`` with both defects held."""
    g = sol.matrices
    jmat = bilinears(sol).jmat
    d = [jmat[0][y] @ g[1] - jmat[1][y] @ g[0] for y in range(2)]
    return max_frobenius((d[0] + g[1], d[1] - g[0]))


def held_intertwiner(sol):
    """``su2rep.intertwiner_residual`` on the triples of ``bilinears(sol)``,
    each side summed out of place."""
    b = bilinears(sol)
    j, jb = b.j, b.jbar_i
    n = sol.size
    g = sol.matrices
    gd = sol.daggers
    sides = ((gd, j, g, n + 1, jb), (g, jb, gd, n - 2, j))
    return max_frobenius(sum(x[c] @ m[i] @ y[c] for c in range(2)) - f * mt[i]
                         for i in range(3) for x, m, y, f, mt in sides)


# ---------------------------------------------------------------------------
# trailing-axis 2x2 kernels: every matrix on (..., 2, 2), every spinor on
# (..., 2); the grid blocks below are the per-point rows and the
# identification sups of the component-first geometry._grid_block in this
# layout


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
    """The identification sups of geometry._grid_block in the trailing-axis
    layout."""
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
    """The per-point rows of geometry._grid_block in the trailing-axis
    layout."""
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


def _s_unitarity_block(theta, phi):
    """sup |S S^dag - 1| at the points (theta, phi)."""
    s = geometry.s_matrix(theta, phi)
    return float(np.max(np.abs(np.einsum("...ab,...cb->...ac", s, s.conj()) - np.eye(2))))


def s_unitarity(grid):
    """sup |S S^dag - 1| over the whole grid at once."""
    return _s_unitarity_block(grid.theta[:, None], grid.phi[None, :])


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


# ---------------------------------------------------------------------------
# the gauge dressing with every intermediate held: both Gaussians and their
# complex sum, both QR factors, q scaled out of place and the identity
# subtracted as a dense matrix


def held_random_unitary(n, rng):
    """``matcore.random_unitary``: Haar unitary from QR of a Gaussian matrix."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def held_is_unitary(a, tol=1e-10):
    """``matcore.is_unitary``: ||a^dag a - 1||_F <= tol * n."""
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        return False
    n = a.shape[0]
    return frobenius_norm(dagger(a) @ a - np.eye(n)) <= tol * n


def held_gauge_dress(sol, u, uhat, tol=1e-10):
    """``grvv.gauge_dress``: g^a -> u g^a uhat^dag."""
    if not (held_is_unitary(u, tol) and held_is_unitary(uhat, tol)):
        raise ValueError("factor is not unitary within tolerance")
    uh = dagger(uhat)
    return GrvvSolution(g1=u @ sol.g1 @ uh, g2=u @ sol.g2 @ uh,
                        partition=sol.partition, dressed=True)


def held_dress(sol, seed):
    """``cli._dress``: sol in the random gauge (U, V) drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    return held_gauge_dress(sol, held_random_unitary(sol.size, rng),
                            held_random_unitary(sol.size, rng))


def held_dressed(n, seed):
    """``cli._dressed``: the ground state of size n dressed from seed + n."""
    return held_dress(ground_state(n), seed + n)


# ---------------------------------------------------------------------------
# the canonical block layout block by block: each irrep from its dense ladder
# matrices J_+ and J_- = J_+^dag and copied into zero matrices by
# ``su2rep.direct_sum``, the ground states copied likewise, and the u(1)
# traces as diagonal matrices


def dense_irrep(n):
    """``su2rep.irrep`` from the dense J_3, J_+ and J_-."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    k = np.arange(1, n + 1)
    j3 = np.diag(2.0 * (k - (n + 1) / 2)).astype(complex)
    jp = np.zeros((n, n), dtype=complex)
    rows = np.arange(2, n + 1)
    jp[rows - 1, rows - 2] = 2.0 * np.sqrt((rows - 1) * (n - rows + 1))
    jm = dagger(jp)
    return Su2Representation(j1=(jp + jm) / 2, j2=(jp - jm) / 2j, j3=j3, partition=(n,))


def dense_canonical_sum(partition):
    """``su2rep._canonical_sum``: the direct sum of the dense irreps."""
    return direct_sum([dense_irrep(n) for n in partition])


def dense_ground_state(n):
    """``grvv.ground_state`` from its two dense matrices."""
    g1 = np.diag(np.sqrt(np.arange(n, dtype=float))).astype(complex)
    g2 = np.zeros((n, n), dtype=complex)
    m = np.arange(1, n)
    g2[m - 1, m] = np.sqrt(n - m)
    return GrvvSolution(g1=g1, g2=g2, partition=(n,))


def dense_block_solution(partition):
    """``grvv.block_solution``: each ground state copied into zero matrices."""
    total = sum(partition)
    g1 = np.zeros((total, total), dtype=complex)
    g2 = np.zeros((total, total), dtype=complex)
    offset = 0
    for n in partition:
        blk = dense_ground_state(n)
        g1[offset : offset + n, offset : offset + n] = blk.g1
        g2[offset : offset + n, offset : offset + n] = blk.g2
        offset += n
    return GrvvSolution(g1=g1, g2=g2, partition=tuple(partition))


def dense_canonical_traces(partition):
    """``equivalence.canonical_traces`` as the dense matrices J = diag((N_k-1) 1)
    and Jbar = diag(N_k (1 - E_11))."""
    size = np.repeat(partition, partition).astype(complex)
    bar = size.copy()
    bar[np.cumsum((0,) + tuple(partition[:-1]))] = 0  # each block's first row
    return np.diag(size - 1), np.diag(bar)
