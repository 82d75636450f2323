"""Test oracles: the dense N^2 x N^2 operators that the weight-frame kernels
replace (the adjoint Laplacian and the fluctuation kinetic operator on
row-major vectorized matrices) and the closed-form kinetic levels."""

import numpy as np

from fuzzball.su2rep import EPS3


def _ad(j, n):
    """ad(J) as an n^2 x n^2 matrix on row-major vectorized matrices."""
    eye = np.eye(n)
    return np.kron(j, eye) - np.kron(eye, j.T)


def adjoint_laplacian_matrix(rep):
    n = rep.dim
    return sum(_ad(g, n) @ _ad(g, n) for g in rep.generators)


def scalar_kinetic_matrix(rep):
    """(1 + J^2) d_ij - i eps_ijk J_k on triples of matrices, J acting in the
    adjoint; Hermitian under the trace inner product."""
    n = rep.dim
    d = n * n
    ads = [_ad(g, n) for g in rep.generators]
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
