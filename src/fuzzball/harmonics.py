"""
Matrix spherical harmonics for an irreducible spin representation, mode
decompositions of adjoint and bifundamental matrices, and pointwise classical
Y_lm evaluation used by the large-size comparisons.  The classical Y_lm come
from the normalized associated-Legendre recurrence in numpy; nothing here
needs scipy.

Weight-frame storage: the unitary U is ``su2rep.weight_frame``, the frame
``equivalence.canonicalize`` uses too: J_3 eigenvectors in ascending order,
phased so that U^dag J_+ U has a positive real first sub-diagonal (the
convention of ``irrep``); an input whose derived partition is not one block
is refused.  There J_3 is the real diagonal w and J_+ = J_-^T the real
sub-diagonal s > 0, and every Y_lm lies on the diagonal row - column = m,
real, with Y_{l,-m} = (-1)^m Y_lm^dag: a basis stores U and one real
(N-m) x (N-m) array per m = 0..N-1, streamed from m = N-1 down, and serves
m < 0 by the sign.  Indexing builds one dense U D U^dag on every call, and a
caller that reads an element again holds it.  The Laplacian's block on
each diagonal, as its (diagonal, sub-diagonal) pair, and the ad(J_k) maps
between diagonals, two-term stencils, are read off the bands (w, s) in O(N)
per vector, with no matrix built.  Decompositions and reconstructions work on
the diagonals of U^dag A U: O(N^3) per call, the bifundamental fit too: its
columns are scalings of the stored vectors, fitted in closed form by one
projection per m and one Woodbury solve per diagonal.

Basis convention: the top element of each ladder is

    Y_ll  =  (-1)^l (J_+)^l * (positive normalization),

lowered repeatedly by ad(J_-)/(2 alpha_{l,m}) and held at Tr(Y^dag Y) = N,
which makes the entries sqrt(2l+1) times SU(2) Clebsch-Gordan coefficients.
The (-1)^l prefix keeps the coherent-state symbol of every element aligned
with the Condon-Shortley phases of the classical Y_lm.  The vectors are
computed as eigenvectors of the Laplacian's real block on each diagonal and
only take their signs from the ladder, because running the ladder itself
loses digits at every step.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .grvv import require_solution
from .matcore import as_matrix, dagger, frobenius_norm, max_frobenius
from .su2rep import Su2Representation, _jmat, irrep, pauli_contract, weight_frame

__all__ = [
    "HarmonicBasis",
    "build_basis",
    "basis_residuals",
    "decompose_adjoint",
    "reconstruct_adjoint",
    "UbarModes",
    "decompose_ubar",
    "BifundamentalModes",
    "decompose_bifundamental",
    "reconstruct_bifundamental",
    "classical_ylm",
    "classical_ylm_dtheta",
]

def _diagonal_index(n, c):
    """Row and column indices of the n x n entries with row - column = c."""
    i = np.arange(max(n - abs(c), 0))
    return i + max(c, 0), i + max(-c, 0)


def _weight_frame(rep):
    """U = ``su2rep.weight_frame`` of ``rep`` and the real bands (w, s) =
    (diag J_3, Re diag(J_1 + i J_2, -1)) in that frame; the defect it
    certifies bounds the imaginary parts and off-band entries left out.
    Raises ValueError unless the derived partition is one block, so a direct
    sum is refused even when labelled irreducible."""
    u, canon, _ = weight_frame(rep)
    if canon.partition != (rep.dim,):
        raise ValueError(f"partition {canon.partition}: not an irreducible representation")
    j1, j2, j3 = canon.generators
    return u, (np.diagonal(j3).real.copy(), np.diagonal(j1, -1).real - np.diagonal(j2, -1).imag)


@dataclass(frozen=True)
class HarmonicBasis:
    """Family {Y_lm} for one irreducible block, Tr(Y_lm^dag Y_l'm') = N d d.

    ``frame`` is the weight-frame unitary U; row l - m of ``diagonals[m]``,
    m = 0..N-1, holds the real entries of U^dag Y_lm U on its diagonal
    row - column = m, and ``diagonal`` serves negative m by the sign.
    Indexing builds the dense element on every call and keeps nothing: a
    sweep over all N^2 keys would otherwise hold N^2 dense N x N matrices.
    """

    rep: Su2Representation
    frame: np.ndarray
    diagonals: tuple  # m -> real (N - m) x (N - m) array, m = 0..N-1

    @property
    def dim(self):
        return self.rep.dim

    def keys(self):
        return [(l, m) for l in range(self.dim) for m in range(-l, l + 1)]

    def diagonal(self, m):
        """Rows l - |m|: the diagonals of Y_lm, by Y_{l,-m} = (-1)^m Y_lm^dag for m < 0."""
        ys = self.diagonals[abs(m)]
        return -ys if m < 0 and m % 2 else ys

    def vector(self, key):
        """Weight-frame diagonal of Y_lm, length N - |m|."""
        l, m = key
        if not 0 <= abs(m) <= l < self.dim:
            raise KeyError(key)
        return self.diagonal(m)[l - abs(m)]

    def __getitem__(self, key):
        # U D U^dag with the vector on the m diagonal of D
        vec = self.vector(key)
        rows, cols = _diagonal_index(self.dim, key[1])
        u = self.frame
        return (u[:, rows] * vec) @ dagger(u[:, cols])


def _ad(bands, k, c, y):
    """ad(J_k) = [J_k, .] for J_3, J_+, J_- at k = 0, 1, -1, from rows y of the
    c diagonal to rows of the c + k one: x_{q+c} y_q - x_q y_{q+k} at column
    q, x_r = J_k[r + k, r] read off the bands (w, s) and zero off the matrix."""
    n = bands[0].size
    x = np.zeros(n + 2)  # x_r at r + 1: w_r, s_r (k = 1) or s_{r-1} (k = -1)
    x[1 + (k < 0) : n + 1 - (k > 0)] = bands[k != 0]
    lo = max(-c, 0)  # the first column of the c diagonal
    y = np.hstack([np.zeros((len(y), 1)), y, np.zeros((len(y), 1))])  # y_q at q - lo + 1
    a, b = max(-c - k, 0) + 1, n - max(c + k, 0) + 1  # the columns q + 1 of the c + k diagonal
    return x[a + c : b + c] * y[:, a - lo : b - lo] - x[a:b] * y[:, a + k - lo : b + k - lo]


def _laplacian_block(bands, c):
    """The adjoint Laplacian ad(J_3)^2 + (ad(J_+) ad(J_-) + ad(J_-) ad(J_+)) / 2
    on the c diagonal of the weight frame, real symmetric tridiagonal of size
    N - |c|: its diagonal d and sub-diagonal off, read off the bands (w, s) at
    the (p, q) of each row, a_r = s_{r-1}^2 + s_r^2.  Solvers get the lower
    triangle np.diag(d) + np.diag(off, -1), all that LAPACK reads (UPLO="L")."""
    w, s = bands
    a = np.append(0, s * s) + np.append(s * s, 0)
    p, q = _diagonal_index(w.size, c)
    return (w[p] - w[q]) ** 2 + (a[p] + a[q]) / 2, -s[p[:-1]] * s[q[:-1]]


def build_basis(rep):
    """The stream ``_diagonals`` of ``rep``'s bands, held as one basis."""
    u, bands = _weight_frame(rep)
    return HarmonicBasis(rep=rep, frame=u, diagonals=tuple(_diagonals(bands))[::-1])


def _diagonals(bands):
    """Stored rows of diagonals m = N-1 down to 0: Laplacian-block eigenvectors,
    Y_lm for l = m..N-1 in ascending order of 4 l (l + 1), each with the sign of
    its ladder reference, (-1)^l (J_+)^l for l = m and [J_-, Y_{l,m+1}] from the
    diagonal yielded before, so no rounding accumulates down the ladder."""
    n, ys = bands[0].size, np.zeros((0, 0))  # diagonal N is off the matrix: no rows
    for m in range(n - 1, -1, -1):
        d, off = _laplacian_block(bands, m)
        _, v = np.linalg.eigh(np.diag(d) + np.diag(off, -1))
        # (J_+)^m is positive on the m diagonal, as s > 0: any positive
        # vector gives the sign of (-1)^m (J_+)^m
        ref = np.hstack([np.full((n - m, 1), (-1.0) ** m), _ad(bands, -1, m + 1, ys).T])
        ys = (v * (math.sqrt(n) * np.sign(np.sum(v * ref, axis=0)))).T
        yield ys


def basis_residuals(basis):
    """(gram, adjoint_j3), each formed one stored diagonal at a time.  gram is
    max |Tr(Y_lm^dag Y_l'm') - N d d|, the product of the stored vectors when
    U is unitary, which a defect d of U^dag U moves by about N d; adjoint_j3
    is max_lm ||U^dag (J_3 Y - Y J_3 - 2 m Y) U|| with the full W = U^dag J_3 U
    = diag(w) + E: the diag(w) part lives on the entries of D, where E D - D E
    vanishes (E has a zero diagonal), so the parts add in squares and
    ||E D - D E||^2 = ||E D||^2 + ||D E||^2 - 2 Re <E D, D E>."""
    n, u = basis.dim, basis.frame
    gram = n * np.max(np.abs(dagger(u) @ u - np.eye(n)))
    wf = dagger(u) @ basis.rep.j3 @ u
    w = np.diagonal(wf)
    e = wf - np.diag(w)
    col2, row2 = np.sum(np.abs(e) ** 2, axis=0), np.sum(np.abs(e) ** 2, axis=1)
    adj = 0.0
    for m in range(1 - n, n):
        ys = basis.diagonal(m)
        if m >= 0:  # the diagonal -m has the Gram of m
            gram = max(gram, np.max(np.abs(ys @ ys.T - n * np.eye(len(ys)))))
        rows, cols = _diagonal_index(n, m)
        cross = np.real(e[np.ix_(rows, rows)].conj() * e[np.ix_(cols, cols)])
        off = ys**2 @ (col2[rows] + row2[cols]) - 2 * np.sum((ys @ cross.T) * ys, axis=1)
        on = ys**2 @ np.abs(w[rows] - w[cols] - 2 * m) ** 2
        adj = max(adj, np.max(np.sqrt(on + np.maximum(off, 0.0))))
    return float(gram), float(adj)


def decompose_adjoint(a, basis):
    """Coefficients a_lm = Tr(Y_lm^dag A) / N of a square matrix A."""
    a = np.asarray(a, dtype=complex)
    n = basis.dim
    if a.shape != (n, n):
        raise ValueError(f"expected a {n}x{n} matrix, got {a.shape}")
    u = basis.frame
    w = dagger(u) @ a @ u
    out = {}
    for m in range(1 - n, n):
        coeffs = basis.diagonal(m) @ w[_diagonal_index(n, m)] / n
        out.update(((abs(m) + i, m), complex(c)) for i, c in enumerate(coeffs))
    return out


def reconstruct_adjoint(coeffs, basis):
    """sum_lm c_lm Y_lm as a dense matrix, summed on the weight-frame
    diagonals and rotated back once.  Coefficients that are arrays of one
    shape give one matrix per entry, of shape ``shape + (N, N)``."""
    n = basis.dim
    shape = np.shape(next(iter(coeffs.values()), 0))
    cs = {m: np.zeros((n - abs(m),) + shape, dtype=complex) for m in range(1 - n, n)}
    for (l, m), c in coeffs.items():
        if not 0 <= abs(m) <= l < n:
            raise KeyError((l, m))
        cs[m][l - abs(m)] += c
    w = np.zeros(shape + (n, n), dtype=complex)
    mats = w.reshape(-1, n, n)  # one n x n view per entry
    for m, c_m in cs.items():
        rows, cols = _diagonal_index(n, m)
        # each entry's coefficients as a contiguous block of (re, im) pairs,
        # one real product per block: c @ ys would cast ys to complex, and a
        # strided row can change the product bits
        pairs = c_m.reshape(len(c_m), -1).T.copy().view(float).reshape(len(mats), -1, 2)
        mats[:, rows, cols] = (basis.diagonal(m).T @ pairs).view(complex)[..., 0]
    u = basis.frame
    return u @ w @ dagger(u)


@dataclass(frozen=True)
class UbarModes:
    """Expansion of a barred-side square matrix.

    a0 multiplies E_11, a_lm the harmonics of the (N-1)-block, and the edge
    coefficients b[k], bbar[k] (k = 2..N, stored from index 0) multiply
    E_1k and E_k1 respectively.
    """

    a0: complex
    a_lm: dict
    b: np.ndarray
    bbar: np.ndarray


def decompose_ubar(abar, sol):
    """Split a barred-side matrix into E_11, block harmonics and edge modes."""
    if not sol.is_irreducible():
        raise ValueError("barred-side expansion is defined per irreducible block")
    n = sol.size
    abar = np.asarray(abar, dtype=complex)
    if abar.shape != (n, n):
        raise ValueError(f"expected a {n}x{n} matrix, got {abar.shape}")
    a0 = complex(abar[0, 0])
    b = abar[0, 1:].copy()
    bbar = abar[1:, 0].copy()
    a_lm = {}
    if n >= 2:
        inner = abar[1:, 1:]
        sub = build_basis(irrep(n - 1))
        a_lm = decompose_adjoint(inner, sub)
    return UbarModes(a0=a0, a_lm=a_lm, b=b, bbar=bbar)


@dataclass(frozen=True)
class BifundamentalModes:
    """Modes (r, s, t) of a doublet fluctuation r^a = r g^a + s^a_b g^b + T^a.

    r_coeffs[(l, m)] is the shared trace mode, s_coeffs[(l, m)] a traceless
    2x2 array, t_coeffs[a, k] the edge amplitudes on E_{k+1,1}, and residual
    the reconstruction error (which should be zero: the modes span).
    """

    r_coeffs: dict
    s_coeffs: dict
    t_coeffs: np.ndarray
    residual: float


def _default_basis(sol):
    return build_basis(Su2Representation(*pauli_contract(_jmat(sol)), partition=(sol.size,)))


def decompose_bifundamental(r1, r2, sol, basis=None):
    """Fit (r, s, t) to a doublet with the trace mode extracted first.

    The spanning family {Y_lm g^b}, l <= N-2, is overcomplete for N >= 3, so
    a gauge choice is needed.  The edge part is read off column 1 exactly;
    the shared trace coefficient is the least-squares fit of both rows at
    once; the traceless part then absorbs the remainder (minimum-norm).
    This makes a pure fluctuation r^a = g^a come out as r = Y_00 exactly.

    Both fits run with the left index in the weight frame, where Y_lm g^1
    lies on the row - column = m diagonal and Y_lm g^2 on m - 1: the trace
    fit is a projection per m and the traceless fit a Woodbury solve per
    diagonal.  Any left dressing is accepted, but the fit assumes the
    canonical right gauge (g^b e_1 = 0, right index in ``ground_state``
    order): a non-solution or g^b e_1 != 0 raises ValueError before fitting,
    any other right dressing fails the reconstruction check.
    """
    if not sol.is_irreducible():
        raise ValueError("mode expansion is defined per irreducible block")
    require_solution(sol)
    g = sol.matrices
    edge = max(np.linalg.norm(x[:, 0]) for x in g)
    if edge > 1e-8 * max(frobenius_norm(x) for x in g):
        raise ValueError(f"right index not in the canonical gauge (||g^b e_1|| = {edge:.3e})")
    n = sol.size
    if basis is None:
        basis = _default_basis(sol)
    r = [as_matrix(r1), as_matrix(r2)]
    for m in r:
        if m.shape != (n, n):
            raise ValueError(f"expected {n}x{n} fluctuation matrices")
    u = basis.frame

    # edge part: g^b kills the first barred basis vector, so column 1 of the
    # fluctuation is carried by the E_{k1} modes alone
    t = np.stack([r[0][:, 0].copy(), r[1][:, 0].copy()])
    rem = [dagger(u) @ x for x in r]
    rem[0][:, 0] = 0.0
    rem[1][:, 0] = 0.0
    # the bands h^1[q, q] and h^2[q, q + 1] of h^a = U^dag g^a
    h1 = np.sum(u.conj() * g[0], axis=0)
    h2 = np.sum(u[:, :-1].conj() * g[1][:, 1:], axis=0)

    # one descending pass over the diagonals c, holding the columns of c and
    # c + 1 only.  The trace fit of m = c: rows (a=1, diagonal m) and (a=2,
    # diagonal m-1) meet only the columns of that m, whose Gram is N(N-1) I
    # (|h^1_qq|^2 + |h^2_{q,q+1}|^2 = N - 1, stored vectors orthogonal of
    # norm^2 N): a projection.  Then the traceless fit on diagonal c, which
    # the trace fits of c and c + 1 have reached, both rows a as right-hand
    # sides, A = [Y_{l,c} g^1, Y_{l,c+1} g^2]: with the l = N-1 columns E,
    # A A^H + E E^H = N^2 off the zero edge row, so the minimum-norm fit is
    # A^H z, z = (b + E w) / N^2 with (N^2 - E^H E) w = E^H b (Woodbury),
    # refined once as the gap N^2 - ||E||^2 is only of order N
    r_m = {}
    s_m = {m: np.zeros((n - 1 - abs(m), 2, 2), dtype=complex) for m in range(1 - n, n)}
    above = []  # the columns Y_{l,c+1} g^2
    for c in range(n - 1, -n, -1):
        # columns Y_lc g^1 (diagonal c) and Y_lc g^2 (diagonal c - 1), l =
        # |c|..N-1, the stored vectors scaled: E_pq h^2 = h^2[q, q + 1]
        # E_{p, q + 1} moves one row down for c > 0 and drops the last row for
        # c <= 0; the modes are l <= N-2
        ys = basis.diagonal(c).T
        idx = _diagonal_index(n, c)
        band = h2[idx[1][: n - abs(c) - (c <= 0)], None]
        p1 = h1[idx[1], None] * ys
        p2 = np.concatenate([np.zeros((int(c > 0), ys.shape[1])), band * ys[: band.size]])
        if abs(c) < n - 1:
            i2 = _diagonal_index(n, c - 1)
            a1, a2 = p1[:, :-1], p2[:, :-1]
            r_m[c] = (rem[0][idx].conj() @ a1 + rem[1][i2].conj() @ a2).conj() / (n * (n - 1))
            rem[0][idx] -= a1 @ r_m[c]
            rem[1][i2] -= a2 @ r_m[c]
        parts = [(p1, c, 0)] + above
        above = [(p2, c, 1)]
        amat = np.hstack([cols[:, :-1] for cols, _, _ in parts])
        ah = amat.conj().T
        e = np.hstack([cols[:, -1:] for cols, _, _ in parts])
        w = np.linalg.solve(n * n * np.eye(e.shape[1]) - e.conj().T @ e, e.conj().T)
        rhs = np.stack([rem[0][idx], rem[1][idx]], axis=1)
        z = np.zeros_like(rhs)
        for _ in range(2):
            res = rhs - amat @ (ah @ z)
            z += (res + e @ (w @ res)) / (n * n)
        x = ah @ z
        i = 0
        for _, m, b in parts:
            s_m[m][:, :, b] = x[i : i + len(s_m[m])]  # s_m[m][j, a, b]: s_ab of (|m| + j, m)
            i += len(s_m[m])
    # enforce tracelessness by shifting any residual trace into r
    r_coeffs, s_coeffs = {}, {}
    for m, x in sorted(r_m.items()):
        tr = (s_m[m][:, 0, 0] + s_m[m][:, 1, 1]) / 2
        s_m[m] -= tr[:, None, None] * np.eye(2)
        keys = [(abs(m) + i, m) for i in range(len(tr))]
        r_coeffs.update(zip(keys, x + tr))
        s_coeffs.update(zip(keys, s_m[m]))

    modes = BifundamentalModes(r_coeffs=r_coeffs, s_coeffs=s_coeffs, t_coeffs=t, residual=0.0)
    rec = reconstruct_bifundamental(modes, sol, basis)
    residual = max_frobenius(rec[a] - r[a] for a in range(2))
    if not residual <= 1e-8 * max(1.0, max(frobenius_norm(m) for m in r)):
        raise ArithmeticError(
            f"mode reconstruction residual {residual:.3e}: the fit assumes the canonical "
            "right gauge (g^b e_1 = 0, right index in ground-state order), which this "
            "doublet does not have"
        )
    return replace(modes, residual=residual)


def reconstruct_bifundamental(modes, sol, basis=None):
    """r^a = A g^a + S_ab g^b + T^a with A = sum r_lm Y_lm, S_ab = sum
    s_ab,lm Y_lm summed once each; O(N^3)."""
    if basis is None:
        basis = _default_basis(sol)
    g = sol.matrices
    a_mat = reconstruct_adjoint(modes.r_coeffs, basis)
    # n = 1 has no s modes: its one zero matrix serves all four entries
    s_mat = np.broadcast_to(reconstruct_adjoint(modes.s_coeffs, basis), (2, 2) + a_mat.shape)
    out = [a_mat @ g[a] + s_mat[a][0] @ g[0] + s_mat[a][1] @ g[1] for a in range(2)]
    for a in range(2):
        out[a][:, 0] += modes.t_coeffs[a]
    return out


def classical_ylm(l, m, theta, phi):
    """Y_lm(theta, phi) normalized to unit mean square over the sphere.

    Condon-Shortley phases; Y_00 = 1, Y_10 = sqrt(3) cos(theta).  The
    normalized associated Legendre function P_l^|m| comes from the three-term
    recurrence in l started at

        P_mm = (-1)^m sqrt((2m+1) prod_{i<=m} (2i-1)/(2i)) sin(theta)^m,
        P_{m+1,m} = sqrt(2m+3) cos(theta) P_mm,
        P_lm = a_lm (cos(theta) P_{l-1,m} - P_{l-2,m} / a_{l-1,m}),
        a_lm = sqrt((4l^2 - 1) / (l^2 - m^2)),

    whose terms stay of order sqrt(2l+1), so no factorial ratio is formed.
    """
    if abs(m) > l:
        raise ValueError("|m| must not exceed l")
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    ma = abs(m)
    x, sin = np.cos(theta), np.sin(theta)
    p = np.full_like(x, math.sqrt(2 * ma + 1))
    for i in range(1, ma + 1):
        p = p * (-math.sqrt((2 * i - 1) / (2 * i)) * sin)
    prev, a_prev = np.zeros_like(x), math.inf
    for ll in range(ma + 1, l + 1):
        a = math.sqrt((4 * ll * ll - 1) / (ll * ll - ma * ma))
        prev, p, a_prev = p, a * (x * p - prev / a_prev), a
    val = p * np.exp(1j * ma * phi)
    if m < 0:
        val = (-1) ** ma * np.conj(val)
    return val


def classical_ylm_dtheta(l, m, theta, phi):
    """d/dtheta of classical_ylm via the ladder identity

    dY_lm/dtheta = m cot(theta) Y_lm + sqrt((l-m)(l+m+1)) e^{-i phi} Y_{l,m+1}.
    """
    out = m / np.tan(theta) * classical_ylm(l, m, theta, phi)
    if m < l:
        out = out + math.sqrt((l - m) * (l + m + 1)) * np.exp(
            -1j * np.asarray(phi)
        ) * classical_ylm(l, m + 1, theta, phi)
    return out
