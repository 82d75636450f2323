"""
Spectral bridges between the matrix and classical pictures: the adjoint
Laplacian, the three-component fluctuation kinetic operator, classical
vector/spinor harmonics, the Dirac-square identity, and coherent-state
symbol maps with their convergence sweeps.

The Laplacian and kinetic operators are read off the real bands of the
weight frame (``harmonics._weight_frame``): the Laplacian's blocks are real
and exactly symmetric, its -m block its m block, and K is applied to the
stream ``harmonics._diagonals`` by the same band maps, O(N^2) per diagonal.

Only the spinor and Dirac helpers read ``fuzzball.geometry`` (the Killing
spinor, the batched 2x2 product and the central difference), so they import
it where they run: the Laplacian, kinetic, commutator and mode commands do
not load the largest library module.
"""

import math
from dataclasses import dataclass

import numpy as np

from .harmonics import (
    _ad,
    _diagonals,
    _laplacian_block,
    _weight_frame,
    build_basis,
    classical_ylm,
    classical_ylm_dtheta,
)
from .matcore import commutator, spectral_norm
from .su2rep import EPS3, PAULI, irrep

__all__ = [
    "fuzzy_laplacian_spectrum",
    "commutator_decay",
    "scalar_kinetic_spectrum",
    "KineticSpectrum",
    "vector_harmonics",
    "spherical_spinor",
    "spinorial_harmonic",
    "dirac_square_check",
    "DiracSquareResult",
    "coherent_state",
    "symbol_map",
    "mode_convergence",
]


def fuzzy_laplacian_spectrum(rep):
    """Eigenvalues of A -> sum_i [J_i, [J_i, A]]: 4 l (l+1), each 2l+1 times.

    The operator keeps each weight-frame diagonal of A, so the spectrum is
    the union of 2N - 1 tridiagonal blocks of size N - |m|; on the real
    bands the -m block equals the m block entry for entry, so the N blocks
    m >= 0 are solved and each m > 0 spectrum is counted twice.
    """
    _, bands = _weight_frame(rep)
    pairs = (_laplacian_block(bands, m) for m in range(rep.dim))
    blocks = [np.linalg.eigvalsh(np.diag(d) + np.diag(off, -1)) for d, off in pairs]
    return np.sort(np.concatenate(blocks + blocks[1:]))


def commutator_decay(n_list):
    """[(n, spectral norm of [x1, x2])] for x_i = J_i / sqrt(n^2 - 1).

    The exact value is 2/(n+1); the table is computed from the raw operator
    norm so the closed form can be checked against it.
    """
    out = []
    for n in n_list:
        if n == 1:
            out.append((1, 0.0))
            continue
        rep = irrep(n)
        x1 = rep.j1 / math.sqrt(n**2 - 1)
        x2 = rep.j2 / math.sqrt(n**2 - 1)
        out.append((int(n), spectral_norm(x1 @ x2 - x2 @ x1)))
    return out


def _kinetic_apply(rep, a):
    """The kinetic operator on a triple of matrices, written with commutators."""
    gens = rep.generators
    out = []
    for i in range(3):
        v = a[i] + sum(commutator(g, commutator(g, a[i])) for g in gens)
        for j in range(3):
            for k in range(3):
                if EPS3[i, j, k]:
                    v = v - 1j * EPS3[i, j, k] * commutator(gens[k], a[j])
        out.append(v)
    return out


@dataclass(frozen=True)
class KineticSpectrum:
    eigenvalues: np.ndarray  # sorted Rayleigh quotients v^dag K v
    groups: tuple  # (eigenvalue, multiplicity, l, j, residual)
    ji_triple_eigenvalue: float  # eigenvalue carried by the (J_1, J_2, J_3) triple
    ji_triple_residual: float


# spherical components sigma = 1, 0, -1 of the vector index, with
# e_{+1} = (1, i, 0)/sqrt2, e_0 = (0, 0, 1) and e_{-1} = (1, -i, 0)/sqrt2,
# which diagonalise the spin-1 S_3 = diag(1, 0, -1)
_SIGMAS = (1, 0, -1)
# sum_i S_i ad(J_i) = S_3 ad(J_3) + S_- ad(J_+) / 2 + S_+ ad(J_-) / 2 on them:
# S_- / 2 lowers sigma with the real entries -+1/sqrt2 below, and S_+ / 2 is
# its transpose
_LOWER = np.array([[0.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]) / math.sqrt(2)


def _cg1(l, dj, total, sig):
    """Clebsch-Gordan <l, M - sig; 1, sig | l + dj, M> with Condon-Shortley
    phases for an integer array of l, written as sign(t) sqrt(|t| / d)."""
    p, q = l + total, l - total
    if dj == 1:
        t = (q * (q + 1), 2 * (p + 1) * (q + 1), p * (p + 1))[sig + 1]
        d = (2 * l + 1) * (2 * l + 2)
    elif dj == 0:
        t = (q * (p + 1), 2 * total * abs(total), -p * (q + 1))[sig + 1]
        d = 2 * l * (l + 1)
    else:
        t = (p * (p + 1), -2 * p * q, q * (q + 1))[sig + 1]
        d = 2 * l * (2 * l + 1)
    return np.sign(t) * np.sqrt(np.abs(t) / d)


def _images(ys, bands, c):
    """Row l of each: Y_{l,c} (zero for l < |c|, the stored rows ys below) and
    its images under 1 + ad(J)^2, ad(J_3), ad(J_+) (on c + 1) and ad(J_-) (on c - 1)."""
    y = np.vstack([np.zeros((abs(c), ys.shape[1])), ys])
    d, off = _laplacian_block(bands, c)
    lap = y + y * d
    lap[:, 1:] += y[:, :-1] * off
    lap[:, :-1] += y[:, 1:] * off
    return (y, lap) + tuple(_ad(bands, k, c, y) for k in (0, 1, -1))


def scalar_kinetic_spectrum(rep):
    """Spectrum of the fluctuation kinetic operator K = 1 + ad(J)^2 + S.ad(J),
    whose quadratic term is the adjoint Casimir (J acting by commutators, not
    left multiplication) and S the spin 1 of the vector index, certified
    level by level instead of diagonalised.

    K commutes with the orbital l and with the total j (l coupled to 1), so
    every level is 3 l(l+1) + j(j+1) - 1 with multiplicity 2j + 1, for j in
    {l - 1, l, l + 1} (only j = 1 at l = 0); no two (l, j) share a value.
    The sigma component of |l j M> = sum_sigma <l, M - sigma; 1, sigma | j, M>
    Y_{l, M - sigma} e_sigma (-1 at sigma = 1: e_{+1} lacks the Condon-Shortley
    sign) lies on the weight-frame diagonal c = M - sigma, which K reaches
    only through 1 + ad(J)^2 + sigma ad(J_3) and ad(J_+-) from c -+ 1.  M
    runs from N down to 0 over the stream ``_diagonals``, holding the images
    (``_images``, O(N^2)) of four diagonals at most, never the basis, and
    counts each M > 0 vector for -M too.  ``groups`` lists (eigenvalue,
    multiplicity, l, j, residual) ascending: the exact level, its number of
    vectors and the largest ||K v - lambda v|| over them relative to ||K||,
    the top level (N - 1, N); ``eigenvalues`` the sorted quotients v^dag K v.

    The paper's families hold exactly: the triples ([J_1, Y_lm], [J_2, Y_lm],
    [J_3, Y_lm]) are eigenvectors with eigenvalue 4 l(l+1) - 1, which is
    j = l, and (J_1, J_2, J_3) itself is the l = 1, j = 0 level 5, certified
    separately on the dense triple.  The left products (J_1 Y_lm, J_2 Y_lm,
    J_3 Y_lm) do not span an invariant subspace: K moves 0.09 to 0.57 of
    their norm out of that span at N = 6, so splitting levels against it
    gives no families.
    """
    n = rep.dim
    _, bands = _weight_frame(rep)
    stream = _diagonals(bands)
    norm = 4 * n * n - 2 * n - 1  # the top level: K is positive
    images, quotients = {}, []
    worst, count = np.zeros((n, 3)), np.zeros((n, 3), dtype=int)  # at [l, j - l + 1]
    for total in range(n, -1, -1):
        # hold the diagonals c = M - sigma, sigma = 1, 0, -1, of this charge only
        images.pop(total + 2, None)
        if abs(total - 1) < n:  # the rows of diagonal -1 are -1 times those of 1
            ys = next(stream) if total else -images[1][0][1:]
            images[total - 1] = _images(ys, bands, total - 1)
        for dj in (-1, 0, 1):
            l = np.arange(max(total - dj, int(dj < 1)), n)  # j >= |M|
            rows = slice(n - l.size, None)
            lam = (3 * l * (l + 1) + (l + dj) * (l + dj + 1) - 1)[:, None]
            coef = [(-1 if sig == 1 else 1) * _cg1(l, dj, total, sig)[:, None] for sig in _SIGMAS]
            res2 = quot = 0.0
            for a, sig in enumerate(_SIGMAS):
                c = total - sig
                if c not in images:
                    continue
                y, lap, ad3, _, _ = images[c]
                v = coef[a] * y[rows]
                kv = coef[a] * (lap[rows] + sig * ad3[rows])
                if a > 0 and c - 1 in images:  # S_- ad(J_+) / 2 of component a - 1
                    kv += _LOWER[a, a - 1] * coef[a - 1] * images[c - 1][3][rows]
                if a < 2 and c + 1 in images:  # S_+ ad(J_-) / 2 of component a + 1
                    kv += _LOWER[a + 1, a] * coef[a + 1] * images[c + 1][4][rows]
                res2 = res2 + np.sum((kv - lam * v) ** 2, axis=1)
                quot = quot + np.sum(v * kv, axis=1)
            quotients += [quot / n] * (1 + (total > 0))  # |l j M> = v / sqrt(N), and -M
            worst[l, dj + 1] = np.maximum(worst[l, dj + 1], np.sqrt(res2 / n) / norm)
            count[l, dj + 1] += 1 + (total > 0)
    del images, stream  # before the dense triple below
    l, d = np.argwhere(count).T
    j = l + d - 1
    lam = 3 * l * (l + 1) + j * (j + 1) - 1.0
    groups = sorted(zip(*(x.tolist() for x in (lam, count[l, d], l, j, worst[l, d]))))

    triple = np.stack(rep.generators).reshape(-1)
    image = np.stack(_kinetic_apply(rep, rep.generators)).reshape(-1)
    nrm2 = float(np.real(np.vdot(triple, triple)))
    eig = float(np.real(np.vdot(triple, image)) / nrm2) if nrm2 > 0 else 1.0
    residual = (
        float(np.linalg.norm(image - eig * triple) / np.sqrt(nrm2)) if nrm2 > 0 else 0.0
    )
    return KineticSpectrum(
        eigenvalues=np.sort(np.concatenate(quotients)),
        groups=tuple(groups),
        ji_triple_eigenvalue=eig,
        ji_triple_residual=residual,
    )


def vector_harmonics(l, m, theta, phi):
    """Tangent pair (T_lm, S_lm) in orthonormal-frame components (theta, phi).

    T is the curl type, S the gradient type; both are unit-normalized under
    the mean-square inner product because the scalar harmonics are.
    """
    if l < 1:
        raise ValueError("vector harmonics need l >= 1")
    if abs(m) > l:
        raise ValueError("|m| must not exceed l")
    norm = 1.0 / math.sqrt(l * (l + 1))
    dth = classical_ylm_dtheta(l, m, theta, phi)
    dph_frame = 1j * m * classical_ylm(l, m, theta, phi) / np.sin(theta)
    t = norm * np.stack([-dph_frame, dth], axis=-1)
    s = norm * np.stack([dth, dph_frame], axis=-1)
    return t, s


def _cg_half(j, l, m, mu):
    """Clebsch-Gordan <l, m - mu; 1/2, mu | j, m> for j = l +- 1/2."""
    two_j = int(round(2 * j))
    if two_j == 2 * l + 1:
        if mu > 0:
            return math.sqrt((l + m + 0.5) / (2 * l + 1))
        return math.sqrt((l - m + 0.5) / (2 * l + 1))
    if two_j == 2 * l - 1:
        if mu > 0:
            return -math.sqrt((l - m + 0.5) / (2 * l + 1))
        return math.sqrt((l + m + 0.5) / (2 * l + 1))
    raise ValueError("j must be l + 1/2 or l - 1/2")


def spherical_spinor(j, l, m, theta, phi):
    """Omega_{jlm}: the l x 1/2 coupling of scalar harmonics and constant
    spinors, with half-integral j and m."""
    if abs(round(2 * j) - 2 * j) > 1e-12 or abs(round(2 * m) - 2 * m) > 1e-12:
        raise ValueError("j and m must be half-integral")
    if abs(m) > j:
        raise ValueError("|m| must not exceed j")
    theta = np.asarray(theta, dtype=float)
    out = np.zeros(np.broadcast(theta, np.asarray(phi)).shape + (2,), dtype=complex)
    for idx, mu in enumerate((0.5, -0.5)):
        ml = m - mu
        if abs(ml) > l:
            continue
        out[..., idx] = _cg_half(j, l, m, mu) * classical_ylm(
            l, int(round(ml)), theta, phi
        )
    return out


# ---------------------------------------------------------------------------
# Dirac square on the spinorial harmonics


def _ylm_pack(l, m, theta, phi):
    """Y, dY/dtheta, d2Y/dtheta2 (the second from the defining ODE)."""
    y = classical_ylm(l, m, theta, phi)
    yt = classical_ylm_dtheta(l, m, theta, phi)
    cot = np.cos(theta) / np.sin(theta)
    ytt = -cot * yt - (l * (l + 1) - m * m / np.sin(theta) ** 2) * y
    return y, yt, ytt


def _xi_and_dirac(l, m, sign, theta, phi):
    """The spinorial harmonic and one analytic Dirac application.

    sign=+1 pairs Y_l with the chirality-flipped spinors, sign=-1 pairs
    Y_{l+1} with the plain ones; both families square to (l+1)^2.
    """
    s1, s2, s3 = PAULI
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    ly = l if sign > 0 else l + 1
    if abs(m) > ly:
        raise ValueError("|m| must not exceed the scalar degree")
    lam = l + 1
    y, yt, ytt = _ylm_pack(ly, m, theta, phi)
    sin = np.sin(theta)
    cos = np.cos(theta)

    from .geometry import killing_spinor

    eta = killing_spinor(theta, phi)[..., :, 0]  # one global component suffices
    base = np.einsum("ab,...b->...a", s3, eta) if sign > 0 else eta
    # d_a eta from the Killing equation (with its torsion-free phi term)
    deta_t = 0.5j * np.einsum("ab,...b->...a", s1, eta)
    deta_p = 0.5j * sin[..., None] * np.einsum(
        "ab,...b->...a", s2, eta
    ) + 0.5j * cos[..., None] * np.einsum("ab,...b->...a", s3, eta)
    dbase_t = np.einsum("ab,...b->...a", s3, deta_t) if sign > 0 else deta_t
    dbase_p = np.einsum("ab,...b->...a", s3, deta_p) if sign > 0 else deta_p

    def mmat(yv, ytv):
        out = lam * yv[..., None, None] * np.eye(2)
        out = out + 1j * ytv[..., None, None] * s1
        out = out + 1j * (1j * m * yv / sin)[..., None, None] * s2
        return out

    mm = mmat(y, yt)
    xi = np.einsum("...ab,...b->...a", mm, base)

    dm_t = lam * yt[..., None, None] * np.eye(2) + 1j * ytt[..., None, None] * s1
    dm_t = dm_t + 1j * (1j * m * (yt / sin - y * cos / sin**2))[..., None, None] * s2
    dxi_t = np.einsum("...ab,...b->...a", dm_t, base) + np.einsum(
        "...ab,...b->...a", mm, dbase_t
    )
    # every Y-factor in M carries exp(i m phi)
    dxi_p = 1j * m * xi + np.einsum("...ab,...b->...a", mm, dbase_p)

    return xi, _dirac(xi, dxi_t, dxi_p, theta)


def _dirac(f, f_theta, f_phi, theta):
    """Dirac operator on a spinor field from its value and first derivatives:
    -i (sigma_1 d_theta + sigma_2 d_phi / sin - (i/2) cot sigma_2 sigma_3) f."""
    from .geometry import _apply2

    sin = np.sin(theta)
    cos = np.cos(theta)
    return -1j * (
        _apply2(PAULI[0], f_theta)
        + _apply2(PAULI[1], f_phi) / sin[..., None]
        - 0.5j * (cos / sin)[..., None] * _apply2(PAULI[1] @ PAULI[2], f)
    )


def spinorial_harmonic(l, m, sign, theta, phi):
    """Killing-spinor-based spinor harmonics on the sphere.

    Built as [(l + 1) Y + i gamma^a (d_a Y)] acting on a Killing spinor;
    ``sign`` selects which chirality carries the construction (+1 pairs the
    flipped spinor with degree l, -1 the plain spinor with degree l + 1).
    The two writings produce proportional fields, which is the defining
    rewrite identity of the family, and either one squares to (l + 1)^2
    under the Dirac operator.  Returns values of shape (..., 2).
    """
    xi, _ = _xi_and_dirac(l, m, sign, theta, phi)
    return xi


def _dirac_fd(field, theta, phi, h, richardson=False):
    """One finite-difference Dirac application of a callable spinor field."""
    from .geometry import _central_difference

    d_theta, d_phi = _central_difference(field, theta, phi, h, richardson)
    return _dirac(field(theta, phi), d_theta, d_phi, theta)


@dataclass(frozen=True)
class DiracSquareResult:
    eigenvalue: float  # quadrature Rayleigh quotient
    target: float  # (l + 1)^2
    residual: float  # sup-norm defect relative to the field size

    @property
    def error(self):
        return abs(self.eigenvalue - self.target)


def dirac_square_check(l, sign, grid, fd_step=None):
    """Apply the Dirac operator twice to a spinorial harmonic.

    The first application is analytic.  With ``fd_step`` the second one uses
    plain central differences at that step (residual is O(step^2), which is
    what the refinement test measures); otherwise a Richardson pair at 1e-3
    brings the truncation error below the roundoff of the quadrature.
    """
    tt, pp = grid.mesh()
    xi, _ = _xi_and_dirac(l, 0, sign, tt, pp)

    def first(theta, phi):
        return _xi_and_dirac(l, 0, sign, theta, phi)[1]

    if fd_step is None:
        second = _dirac_fd(first, tt, pp, 1e-3, richardson=True)
    else:
        second = _dirac_fd(first, tt, pp, fd_step)

    target = float((l + 1) ** 2)
    weight = np.sin(tt)
    num = np.real(np.einsum("tp,tpa,tpa->", weight, xi.conj(), second))
    den = np.real(np.einsum("tp,tpa,tpa->", weight, xi.conj(), xi))
    eig = float(num / den)
    defect = second - target * xi
    residual = float(np.max(np.abs(defect)) / np.max(np.abs(xi)))
    return DiracSquareResult(eigenvalue=eig, target=target, residual=residual)


# ---------------------------------------------------------------------------
# coherent-state symbols


def coherent_state(rep, theta, phi):
    """Top eigenvector of x . J at each point: the rotated highest weight.

    Closed form in the representation's own weight frame U (``J_3`` ascending,
    ``J_+`` with a positive sub-diagonal, as used by ``build_basis``), so no
    Euler-angle convention enters and no eigensolve runs per point: the state
    is U psi with

        psi_k = sqrt(C(N-1, k)) cos(theta/2)^k sin(theta/2)^(N-1-k)
                * exp(-i (k - (N-1)/2) phi),      k = 0..N-1.

    The magnitudes are summed in logs, with every zero power read as a factor
    1, so the poles give the extreme weights and no size overflows.  The
    overall phase cancels in symbols.  Raises ValueError unless ``rep`` is
    an exact irreducible representation.
    """
    return _coherent_in_frame(_weight_frame(rep)[0], theta, phi)


def _coherent_in_frame(u, theta, phi):
    """``coherent_state`` of the irrep whose weight frame is ``u``."""
    n = u.shape[0]
    k = np.arange(n)
    log_binom = np.array([math.log(math.comb(n - 1, i)) for i in range(n)])
    half = np.asarray(theta, dtype=float)[..., None] / 2
    c, s = np.cos(half), np.sin(half)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_mag = (
            0.5 * log_binom
            + np.where(k > 0, k * np.log(np.abs(c)), 0.0)
            + np.where(k < n - 1, (n - 1 - k) * np.log(np.abs(s)), 0.0)
        )
    sign = np.sign(c) ** k * np.sign(s) ** (n - 1 - k)
    phase = -(k - (n - 1) / 2) * np.asarray(phi, dtype=float)[..., None]
    psi = sign * np.exp(log_mag + 1j * phase)
    return psi @ u.T


def symbol_map(a, rep, theta, phi):
    """Pointwise coherent expectation psi^dag A psi."""
    return _expectation(a, coherent_state(rep, theta, phi))


def _expectation(a, psi):
    return np.einsum("...n,nm,...m->...", psi.conj(), np.asarray(a, dtype=complex), psi)


def mode_convergence(n_list, l, m):
    """Per size, the sup over a 24 x 48 grid of |symbol of Y_lm(J) - classical Y_lm|."""
    theta = (np.arange(24) + 0.5) * np.pi / 24
    phi = np.arange(48) * 2 * np.pi / 48
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    ref = classical_ylm(l, m, tt, pp)
    out = []
    for n in n_list:
        if l > n - 1:
            raise ValueError(f"l = {l} is not resolved at size {n}")
        rep = irrep(n)
        basis = build_basis(rep)
        # the basis's frame is the one coherent_state would find again
        sym = _expectation(basis[(l, m)], _coherent_in_frame(basis.frame, tt, pp))
        out.append((int(n), float(np.max(np.abs(sym - ref)))))
    return out
