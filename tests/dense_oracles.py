"""Test oracles: the dense N^2 x N^2 operators that the weight-frame kernels
replace (the adjoint Laplacian and the fluctuation kinetic operator on
row-major vectorized matrices), the closed-form kinetic levels, and the dense
matrix helpers the compatibility relations and the superalgebra brackets are
checked with (SVD pseudo-inverse, eigensolver square root, anticommutator,
Frobenius distance)."""

import numpy as np

from fuzzball.matcore import DEFAULT_TOL, as_matrix, dagger, frobenius_norm
from fuzzball.su2rep import EPS3


def anticommutator(a, b):
    return a @ b + b @ a


def frobenius_distance(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


def pseudo_inverse(a, tol=DEFAULT_TOL):
    """Moore-Penrose inverse; singular values below tol.absolute * s_max drop."""
    a = as_matrix(a)
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return dagger(a)
    cut = tol.absolute * s[0]
    inv = np.where(s > cut, 1.0 / np.where(s > cut, s, 1.0), 0.0)
    return dagger(vh) @ np.diag(inv) @ dagger(u)


def hermitian_sqrt(a, tol=DEFAULT_TOL):
    """Square root of a Hermitian PSD matrix via eigendecomposition.

    Eigenvalues in [-tol, tol] (relative to the largest one) are clamped to
    zero so that exact kernels stay exact; anything more negative raises.
    """
    a = as_matrix(a)
    herm_defect = frobenius_distance(a, dagger(a))
    scale = max(frobenius_norm(a), 1.0)
    if herm_defect > tol.relative * scale:
        raise ValueError(f"matrix is not Hermitian (defect {herm_defect:.3e})")
    w, v = np.linalg.eigh((a + dagger(a)) / 2)
    wmax = max(float(w[-1]), 0.0)
    cut = tol.relative * max(wmax, 1.0)
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
