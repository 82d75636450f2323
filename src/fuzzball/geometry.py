"""
Classical sphere geometry: Hopf maps (S2, S4, S8), the phase-fixed section,
the frame rotation S(theta, phi), the Killing spinors, and the
finite-difference verification of every derivative identity.

Frame conventions, fixed once and verified by the test suite:

    e^1 = d theta,  e^2 = sin(theta) d phi,   gamma_1 = sigma_1,
    gamma_2 = sigma_2,  gamma_3 = sigma_3,    spin connection
    omega^{12}_phi = -cos(theta).

The prefactor of S is a = exp(-i pi/4), the unique phase (up to sign) that
makes S special unitary and hence symplectic-real.  The Killing spinors read
eta^{I} = S^dag E e_I / sqrt(2) with E = [[0, -1], [1, 0]]; their upper Weyl
component u = sqrt(2) P_+ eta equals exp(i pi/4) exp(i phi / 2) section(x)
identically, which is the local identification checked in
``identification_check`` (no phase choice makes it global).

Every grid check is pointwise in (theta, phi), so ``grid_report``
evaluates them all in one pass, GRID_BLOCK_ROWS theta rows at a time: a
block's temporaries stay cache-sized, and from matcore.POOL_MIN_ROWS theta
rows on, with more than one usable CPU, the blocks run in forked workers
(matcore._map_blocks).

The block kernels are component-first: a point x, a spinor v and a 2x2
matrix m are held as x[i], v[a] and m[a, b] on leading axes, so every
component is one contiguous array over the block and every ufunc runs over
whole rows, and each kernel forms only the components its checks read (the
projected spinor reads one column of S).  Each entry is formed by the same
floating-point operations, in the same order and with the same operands
(the products with constant Pauli entries included), as in the
trailing-axis layout of the public functions, which assemble their results
from these kernels: the rows, report and grid CSV do not move by a bit.
"""

import functools
from dataclasses import asdict, dataclass

import numpy as np

from .matcore import _map_blocks
from .su2rep import PAULI

__all__ = [
    "SphereGrid",
    "A_PHASE",
    "hopf_s2",
    "unit_vector",
    "section",
    "s_matrix",
    "killing_spinor",
    "weyl_plus",
    "killing_equation_residual",
    "identification_check",
    "IdentificationReport",
    "gamma_so5",
    "octonion_lambdas",
    "gamma_so9",
    "hopf_s4",
    "hopf_s8",
    "s8_inversion",
]

SIGMA = np.stack(PAULI)  # (3, 2, 2)
SIGMA_T = np.stack([s.T for s in PAULI])

A_PHASE = np.exp(-0.25j * np.pi)
ID_PHASE = np.exp(0.25j * np.pi)  # constant phase in the section/spinor match

# theta rows per grid block: at n_phi = 512 a block's complex component
# arrays are 256 KiB (1 MiB for a 2x2 stack), inside a core's L2, where the
# full grid's are 2 MiB (8 MiB).  At 256x512 on 2 CPUs, the grid checks
# took 0.36-0.40 s with 16, 32 or 64 rows per block, 0.60 s with 4 and
# 1.04 s with 1, where the fixed cost per block dominates
GRID_BLOCK_ROWS = 32
# the finite-difference step of the grid checks, and the half-width of the
# phi window of the local phase check
GRID_STEP = 1e-4
PHASE_WINDOW = 0.02
# the unit-norm tolerance of the higher Hopf maps and s8_inversion's S8 pole guard
UNIT_TOL = 1e-10


@dataclass(frozen=True)
class SphereGrid:
    """Midpoint (theta, phi) lattice, strictly interior in theta."""

    theta: np.ndarray
    phi: np.ndarray

    @classmethod
    def make(cls, n_theta, n_phi):
        if n_theta < 2 or n_phi < 2:
            raise ValueError("grid needs at least two points per direction")
        return cls(theta=(np.arange(n_theta) + 0.5) * (np.pi / n_theta),
                   phi=np.arange(n_phi) * (2 * np.pi / n_phi))

    def mesh(self):
        return np.meshgrid(self.theta, self.phi, indexing="ij")


# ---------------------------------------------------------------------------
# component-first kernels (see the module docstring) and the public
# functions, which assemble the trailing-axis layout from them


def _trailing(parts, axes=1):
    """The public layout of a component-first result: its ``axes`` leading
    axes moved to the end, C-contiguous."""
    return np.ascontiguousarray(np.moveaxis(parts, range(axes), range(-axes, 0)))


def _hopf(g):
    """x_i = g^dag sigma_i^T g for a spinor g of shape (2, ...): (3, ...)."""
    g0, g1 = g
    z = g0 * g1.conj()
    x = np.empty((3,) + z.shape)
    x[0] = 2.0 * z.real
    x[1] = 2.0 * z.imag
    x[2] = (g0.real**2 + g0.imag**2) - (g1.real**2 + g1.imag**2)
    return x


def hopf_s2(g):
    """x_i = g^dag sigma_i^T g for a 2-component complex vector (or stack)."""
    g = np.asarray(g, dtype=complex)
    return _trailing(_hopf(np.moveaxis(g, -1, 0)))


def _unit(theta, phi):
    """The components (x1, x2, x3) of ``unit_vector``; x3 = cos(theta)
    keeps the shape of theta."""
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    x3 = np.cos(theta)
    rho = np.sqrt(np.clip((1.0 - x3) * (1.0 + x3), 0.0, None))
    return rho * np.cos(phi), rho * np.sin(phi), x3


def _points(x):
    """Components of a point stacked on a leading axis, x3 broadcast."""
    return np.stack(np.broadcast_arrays(*x))


def unit_vector(theta, phi):
    """Cartesian point of the unit sphere at colatitude theta, longitude phi.

    The transverse radius is sqrt(1 - x3^2) rather than sin(theta): the unit
    constraint then fails only in proportion to (1 + x3), which keeps the
    polar charts (``section``) conditioned all the way to the poles.  Theta
    and phi broadcast against each other.
    """
    return _trailing(_points(_unit(theta, phi)))


def _section(x1, x2, x3):
    """``section`` of the point (x1, x2, x3), whose components broadcast:
    shape (2, ...)."""
    if np.any(x3 <= -1.0 + 1e-12):
        raise ValueError("section is singular at x3 = -1")
    denom = np.sqrt(2.0 * (1.0 + x3))
    g1 = (x1 - 1j * x2) / denom
    g = np.empty((2,) + g1.shape, dtype=complex)
    g[0] = (1.0 + x3) / denom
    g[1] = g1
    return g


def section(x):
    """Phase-fixed fibre coordinate (1 + x3, x1 - i x2) / sqrt(2(1 + x3)).

    Inverts hopf_s2 on the unit sphere; refuses x3 <= -1 + 1e-12 (the south pole).
    """
    x = np.asarray(x, dtype=float)
    return _trailing(_section(*np.moveaxis(x, -1, 0)))


def _s_columns(theta, phi, columns=(0, 1)):
    """The given columns of S(theta, phi), component-first: s[a, k] is
    S[a, columns[k]], of shape (2, len(columns), ...)."""
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    c = np.cos(theta / 2)
    s = np.sin(theta / 2)
    ep = np.exp(0.5j * phi)
    em = np.exp(-0.5j * phi)
    shape = np.broadcast_shapes(theta.shape, phi.shape)
    out = np.empty((2, len(columns)) + shape, dtype=complex)
    for k, column in enumerate(columns):
        if column == 0:
            np.multiply(-s, ep, out=out[0, k, ...])
            np.multiply(c, em, out=out[1, k, ...])
        else:
            np.multiply(-1j * c, ep, out=out[0, k, ...])
            np.multiply(-1j * s, em, out=out[1, k, ...])
    return np.multiply(A_PHASE, out, out=out)


def s_matrix(theta, phi):
    """Unitary frame rotation between Euclidean and spherical spinors."""
    return _trailing(_s_columns(theta, phi), 2)


def _killing(theta, phi, alphas=(0, 1)):
    """Rows ``alphas`` of eta = S^dag E / sqrt(2), component-first: shape
    (len(alphas), 2, ...).  Row alpha reads column alpha of S only."""
    s = _s_columns(theta, phi, alphas)
    # E = [[0, -1], [1, 0]]: column 0 of S^dag E is conj(S[1, :]), column 1
    # is -conj(S[0, :]); the entries of S are transformed in place, and eta
    # is a view of them with the two axes swapped and the row index reversed
    np.negative(s[0], out=s[0])
    np.conj(s, out=s)
    s /= np.sqrt(2.0)
    return np.swapaxes(s, 0, 1)[:, ::-1]


def killing_spinor(theta, phi):
    """eta[..., alpha, I] = (S^dag E)[alpha, I] / sqrt(2)."""
    return _trailing(_killing(theta, phi), 2)


def weyl_plus(eta):
    """u^I = sqrt(2) (P_+ eta)^I: the surviving component of the projection."""
    return np.sqrt(2.0) * eta[..., 0, :]


def _projected(theta, phi):
    """sqrt(2) P_+ eta at (theta, phi), component-first: shape (2, ...)."""
    u = _killing(theta, phi, alphas=(0,))[0]
    return np.multiply(np.sqrt(2.0), u, out=u)


# ---------------------------------------------------------------------------
# 2x2 kernels and the one finite-difference helper


def _mul2(a, b):
    """2x2 product a @ b, component-first: a[i, j] and b[i, j] are arrays
    (broadcasting) or constants, as for a plain (2, 2) matrix."""
    shape = np.broadcast_shapes(np.shape(a)[2:], np.shape(b)[2:])
    out = np.empty((2, 2) + shape, dtype=complex)
    for i in range(2):
        for j in range(2):
            np.add(a[i][0] * b[0][j], a[i][1] * b[1][j], out=out[i, j, ...])
    return out


def _mul_vec2(m, v):
    """2x2 matrix-vector product m v, component-first (as for _mul2)."""
    shape = np.broadcast_shapes(np.shape(m)[2:], np.shape(v)[1:])
    out = np.empty((2,) + shape, dtype=complex)
    for i in range(2):
        np.add(m[i][0] * v[0], m[i][1] * v[1], out=out[i, ...])
    return out


def _dag2(a):
    """Conjugate transpose of a component-first 2x2 matrix."""
    return np.conj(np.swapaxes(a, 0, 1))


def _apply2(m, v):
    """Batched 2x2 matrix-vector product m v over the trailing axes."""
    return m[..., :, 0] * v[..., None, 0] + m[..., :, 1] * v[..., None, 1]


def _sigma_t_forms(x, y):
    """x^dag sigma_i^T y for i = 1, 2, 3 and spinors x, y of shape (2, ...):
    shape (3, ...)."""
    xc0, xc1 = x[0].conj(), x[1].conj()
    y0, y1 = y[0], y[1]
    p, q = xc0 * y1, xc1 * y0
    out = np.empty((3,) + p.shape, dtype=complex)
    out[0] = p + q
    out[1] = 1j * (p - q)
    out[2] = xc0 * y0 - xc1 * y1
    return out


def _sup(a):
    return float(np.max(np.abs(a)))


def _central_difference(f, theta, phi, h, richardson=False):
    """Central differences (d_theta f, d_phi f) of f(theta, phi) at step h.

    With ``richardson`` the pair (h, h/2) is combined as (4 D(h/2) - D(h)) / 3,
    pushing the O(h^2) truncation below roundoff.  Separable inputs (theta of
    shape (n, 1), phi of shape (1, m)) keep every shifted angle separable.
    """

    def central(step):
        return (
            (f(theta + step, phi) - f(theta - step, phi)) / (2 * step),
            (f(theta, phi + step) - f(theta, phi - step)) / (2 * step),
        )

    dth, dph = central(h)
    if richardson:
        dth2, dph2 = central(h / 2)
        dth = (4.0 * dth2 - dth) / 3.0
        dph = (4.0 * dph2 - dph) / 3.0
    return dth, dph


def _gamma_a(theta):
    """gamma_theta, gamma_phi = sigma_1, sin(theta) sigma_2 (lower index),
    component-first."""
    sin = np.sin(np.asarray(theta, dtype=float))
    return SIGMA[0], sin * SIGMA[1].reshape((2, 2) + (1,) * sin.ndim)


def _killing_defect(theta, phi, h, connection_sign=-1.0, richardson=False):
    """Pointwise sup-norm defect of D_a eta = (i/2) gamma_a eta."""
    eta0 = _killing(theta, phi)
    dth, dph = _central_difference(_killing, theta, phi, h, richardson)
    gth, gph = _gamma_a(theta)
    rt = dth - 0.5j * _mul2(gth, eta0)
    # D_phi = d_phi + (1/2) omega^{12}_phi gamma_12, gamma_12 = i sigma_3
    cos = np.cos(theta)
    rp = dph + 0.5j * connection_sign * cos * _mul2(SIGMA[2], eta0) - 0.5j * _mul2(gph, eta0)
    return np.maximum(np.max(np.abs(rt), axis=(0, 1)), np.max(np.abs(rp), axis=(0, 1)))


def killing_equation_residual(theta, phi, h=1e-4, connection_sign=-1.0):
    """Central-difference residual of D_a eta = (i/2) gamma_a eta at step h.

    D_phi carries the spin connection omega^{12}_phi = connection_sign *
    cos(theta); the geometric value is -cos(theta) and flipping the sign is
    the negative control.
    """
    return float(np.max(_killing_defect(theta, phi, h, connection_sign)))


def _fibre_phase(theta, phi):
    """The phase that turns section() into _aligned_section()."""
    return np.exp(0.5j * np.asarray(phi) * (1.0 - np.cos(theta)))


def _aligned_section(theta, phi):
    """Local representative carrying the fibre phase that the adjoint-action
    derivative identity requires; coincides with section() at phi = 0 and is
    not single-valued in phi (the known global obstruction).  Component-first:
    shape (2, ...)."""
    g = _section(*_unit(theta, phi))
    return np.multiply(_fibre_phase(theta, phi), g, out=g)


def _rotated_gamma(s, theta):
    """M_a = S gamma_a S^dag for a = theta, phi, component-first, from the
    columns ``s`` of S(theta, phi) (_s_columns)."""
    sd = _dag2(s)
    gth, gph = _gamma_a(theta)
    return _mul2(_mul2(s, gth), sd), _mul2(_mul2(s, gph), sd)


def _dx_from_law(m, v):
    """(i/2) v^dag [M, sigma_i^T] v for i = 1, 2, 3: the d_a x_i implied by
    the derivative law d_a v = -(i/2) M_a v.  Component-first: shape (3, ...)."""
    return 0.5j * (
        _sigma_t_forms(_mul_vec2(_dag2(m), v), v) - _sigma_t_forms(v, _mul_vec2(m, v))
    )


@dataclass(frozen=True)
class IdentificationReport:
    """Residuals of the five spinor-identification checks (a)..(e)."""

    coordinate: float  # (a) x from the projected Killing spinor
    projected_derivative: float  # (b) derivative law of sqrt(2) P+ eta
    section_derivative: float  # (c) derivative law of the (aligned) section
    local_phase: float  # (d) phase match near phi = 0
    dx_agreement: float  # (e) both derivative laws give one d_a x_i
    order_b: float  # measured convergence order of (b)
    order_c: float  # measured convergence order of (c)

    def to_json(self):
        return {"schema": 1, **asdict(self)}


GRID_IDENTITIES = (
    "hopf_section_roundtrip",
    "gamma3_relation",
    "spinor_coordinates",
    "killing_equation",
)
# a grid block's sups after its per-point rows: sup |S S^dag - 1|, the
# identification checks (a)..(e), then (b) and (c) at the two order steps
BLOCK_SUPS = 10


def _grid_block(theta, phi):
    """One block of theta rows, flat: its per-point rows in GRID_IDENTITIES
    order, then its BLOCK_SUPS sups.  Each intermediate (the points, the
    columns of S, the section and the projected spinor) is formed once, and
    check (a) is the sup of the spinor_coordinates row."""
    xs = _unit(theta, phi)
    x = _points(xs)
    s = _s_columns(theta, phi)
    g0 = _section(*xs)
    u0 = _projected(theta, phi)
    out = np.empty(len(GRID_IDENTITIES) * x[0].size + BLOCK_SUPS)
    point = out[:-BLOCK_SUPS].reshape((len(GRID_IDENTITIES),) + x[0].shape)
    sups = out[-BLOCK_SUPS:]

    # S gamma_3 S^dag + x_i sigma_i^T vanishes pointwise; the sum is
    # spelled out (entries 0, +-1, +-i: exact) so that no BLAS call is made
    g3 = _mul2(_mul2(s, SIGMA[2]), _dag2(s))
    for i, j in np.ndindex(2, 2):
        g3[i, j] += x[0] * SIGMA_T[0, i, j] + x[1] * SIGMA_T[1, i, j] + x[2] * SIGMA_T[2, i, j]
    point[0] = np.max(np.abs(_hopf(g0) - x), axis=0)
    point[1] = np.max(np.abs(g3), axis=(0, 1))
    point[2] = np.max(np.abs(_hopf(u0) - x), axis=0)
    point[3] = _killing_defect(theta, phi, GRID_STEP, richardson=True)

    # einsum without optimize calls no BLAS; _mul2 rounds the products
    # differently (5.556e-16 against 5.551e-16 at 256x512)
    st = _trailing(s, 2)
    sups[0] = _sup(np.einsum("...ab,...cb->...ac", st, st.conj()) - np.eye(2))

    # (a) coordinates from the projected spinor
    sups[1] = np.max(point[2])

    # (b), (c) finite-difference derivative laws
    a0 = _fibre_phase(theta, phi) * g0
    a0c = a0.conj()
    mth, mph = _rotated_gamma(s, theta)
    law_bt = 0.5j * _mul_vec2(mth, u0)
    law_bp = 0.5j * _mul_vec2(mph, u0)
    law_bc = 0.5j * np.cos(theta) * u0
    law_c = (0.5j * _mul_vec2(mth, a0), 0.5j * _mul_vec2(mph, a0))

    def fd_b(step, rows=slice(None)):
        dth, dph = _central_difference(_projected, theta[rows], phi, step)
        return max(_sup(dth + law_bt[:, rows]), _sup(dph + law_bp[:, rows] - law_bc[:, rows]))

    def fd_c(step, rows=slice(None)):
        res = 0.0
        for d, law in zip(_central_difference(_aligned_section, theta[rows], phi, step), law_c):
            defect = d + law[:, rows]
            # remove the i * real * g component: the representative is only
            # defined up to the fibre phase and its theta-gradient is the
            # non-integrable piece
            coeff = np.imag(a0c[0, rows] * defect[0] + a0c[1, rows] * defect[1])
            res = max(res, _sup(defect - 1j * coeff * a0[:, rows]))
        return res

    sups[2:4] = fd_b(GRID_STEP), fd_c(GRID_STEP)

    # (d) local phase match near phi = 0: the projected spinor equals the
    # aligned representative times exp(i phi cos(theta) / 2) and one fixed
    # constant phase
    phis = np.linspace(-PHASE_WINDOW, PHASE_WINDOW, 9)[None, :]
    match = ID_PHASE * np.exp(0.5j * phis * np.cos(theta)) * _aligned_section(theta, phis)
    sups[4] = _sup(_projected(theta, phis) - match)

    # (e) d_a x_i from either derivative law: (i/2) v^dag [M_a, sigma~_i] v
    sups[5] = max(_sup(_dx_from_law(m, u0) - _dx_from_law(m, g0)) for m in (mth, mph))

    # orders are measured at steps large enough that truncation beats roundoff,
    # on the rows whose steps stay in (0, pi) and in the chart of _section
    # (every row of a grid below 785 theta rows)
    h_ord = 2e-3
    t = theta[:, 0]
    keep = np.flatnonzero((t > h_ord) & (t + h_ord < np.pi) & (np.cos(t + h_ord) > -1 + 1e-12))
    sups[6:] = -np.inf  # a block with no such row
    if keep.size:
        rows = slice(keep[0], keep[-1] + 1)
        sups[6:] = [f(step, rows) for f in (fd_b, fd_c) for step in (h_ord, h_ord / 2)]
    return out


@dataclass(frozen=True)
class GridReport:
    """Every grid check: one per-point residual array per identity (in the
    row order of the grid CSV), sup |S S^dag - 1| and checks (a)..(e)."""

    residuals: dict
    s_unitarity: float
    identification: IdentificationReport


def grid_report(grid):
    """Evaluate every grid check in one pass, block by block.

    The per-point residuals cover the chart round trip, the rotated gamma_3
    relation, coordinate reproduction from the projected spinor, and the
    Killing equation (Richardson-extrapolated derivative).  Every residual
    is pointwise (the central differences shift the angle they pass, never
    reading a neighbouring row), so the blocks are independent.  Their rows
    are copied into arrays allocated before the first block, so a grid too
    large to hold them fails at once with MemoryError; their sups are
    reduced with max, which is exact, and the convergence orders are taken
    from the maxima at the two order steps.
    """
    theta, phi, n_phi = grid.theta, grid.phi[None, :], len(grid.phi)
    # one allocation for the four arrays, so their total is what is refused
    out = np.empty((len(GRID_IDENTITIES), len(theta), n_phi))
    sups = np.full(BLOCK_SUPS, -np.inf)
    filled = 0

    def block(index):
        start = index * GRID_BLOCK_ROWS
        return _grid_block(theta[start : start + GRID_BLOCK_ROWS, None], phi)

    def take(flat):
        # from a worker the block arrives read-only
        nonlocal filled
        rows = flat[:-BLOCK_SUPS].reshape(len(GRID_IDENTITIES), -1, n_phi)
        out[:, filled : filled + rows.shape[1]] = rows
        filled += rows.shape[1]
        np.maximum(sups, flat[-BLOCK_SUPS:], out=sups)

    _map_blocks(block, -(-len(theta) // GRID_BLOCK_ROWS), len(theta), take)
    unitarity, *checks, b_ord, b_half, c_ord, c_half = sups.tolist()
    orders = float(np.log2(b_ord / b_half)), float(np.log2(c_ord / c_half))
    return GridReport(
        dict(zip(GRID_IDENTITIES, out)), unitarity, IdentificationReport(*checks, *orders)
    )


def identification_check(n, grid):
    """The five identification checks on the interior of a grid (from
    ``grid_report``).  ``n``, the matrix size whose large-size limit is
    probed, gates validity (n >= 2); the residuals themselves are classical."""
    if n < 2:
        raise ValueError("identification needs n >= 2")
    return grid_report(grid).identification


# ---------------------------------------------------------------------------
# higher spheres


def gamma_so5():
    """Five 4x4 Clifford generators: sigma_2 with i -> i sigma_k, then
    sigma_1, sigma_3 with 1 -> identity."""
    z = np.zeros((2, 2), dtype=complex)
    eye = np.eye(2, dtype=complex)
    gammas = [
        np.block([[z, -1j * PAULI[k]], [1j * PAULI[k], z]]) for k in range(3)
    ]
    gammas.append(np.block([[z, eye], [eye, z]]))
    gammas.append(np.block([[eye, z], [z, -eye]]))
    return gammas


_FANO_TRIPLES = ((1, 2, 3), (1, 4, 5), (2, 4, 6), (3, 4, 7), (2, 5, 7), (6, 1, 7), (5, 3, 6))


def octonion_lambdas():
    """Left multiplication by the seven imaginary octonion units.

    Real antisymmetric 8x8 matrices with lambda_i lambda_j + lambda_j
    lambda_i = -2 delta_ij.
    """
    f = np.zeros((8, 8, 8))
    for a, b, c in _FANO_TRIPLES:
        for i, j, k in ((a, b, c), (b, c, a), (c, a, b)):
            f[i, j, k] = 1.0
            f[j, i, k] = -1.0
    lams = []
    for i in range(1, 8):
        lam = np.zeros((8, 8))
        lam[i, 0] = 1.0
        lam[0, i] = -1.0
        for j in range(1, 8):
            if j != i:
                for k in range(1, 8):
                    if f[i, j, k]:
                        lam[k, j] = f[i, j, k]
        lams.append(lam)
    return lams


def gamma_so9():
    """Nine 16x16 Clifford generators built on the octonion lambdas."""
    lams = octonion_lambdas()
    z = np.zeros((8, 8))
    eye = np.eye(8)
    gammas = [np.block([[z, lam], [-lam, z]]).astype(complex) for lam in lams]
    gammas.append(np.block([[z, eye], [eye, z]]).astype(complex))
    gammas.append(np.block([[eye, z], [z, -eye]]).astype(complex))
    return gammas


@functools.cache
def _tables(builder):
    """``builder()``'s matrices, built once per process and read-only; the
    public builders go on returning fresh lists, so no caller can change
    these."""
    tables = tuple(builder())
    for t in tables:
        t.flags.writeable = False
    return tables


def _require_unit(v):
    n = float(np.linalg.norm(v))
    if abs(n - 1.0) > UNIT_TOL:
        raise ValueError(f"input must be unit-norm (got {n})")


def hopf_s4(g):
    """x_A = g^dag Gamma_A g for g in C^4 of norm 1 (to 1e-10); lands on the unit S4."""
    g = np.asarray(g, dtype=complex).reshape(4)
    _require_unit(g)
    return np.array([np.real(g.conj() @ gm @ g) for gm in _tables(gamma_so5)])


def hopf_s8(g):
    """x_A = g^T Gamma_A g for g in R^16 of norm 1 (to 1e-10); lands on the unit S8."""
    g = np.asarray(g, dtype=float).reshape(16)
    _require_unit(g)
    return np.array([float(g @ np.real(gm) @ g) for gm in _tables(gamma_so9)])


def s8_inversion(x, u):
    """Lift a point of S8 and a fibre spinor u in S7 back to R^16.

    Both must have norm 1 to UNIT_TOL = 1e-10.  Singular where x_9 = -1 (the
    fibre coordinates degenerate there), so x_9 <= -1 + UNIT_TOL is refused.
    """
    x = np.asarray(x, dtype=float).reshape(9)
    u = np.asarray(u, dtype=float).reshape(8)
    _require_unit(x)
    _require_unit(u)
    if x[8] <= -1.0 + UNIT_TOL:
        raise ValueError("inversion is singular at x_9 = -1")
    lams = _tables(octonion_lambdas)
    g = np.empty(16)
    g[:8] = np.sqrt((1.0 + x[8]) / 2.0) * u
    m = x[7] * np.eye(8) - sum(x[i] * lams[i] for i in range(7))
    g[8:] = (m @ u) / np.sqrt(2.0 * (1.0 + x[8]))
    return g
