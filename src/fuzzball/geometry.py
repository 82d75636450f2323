"""
Classical sphere geometry: Hopf maps (S2, S4, S8), the phase-fixed section,
the frame rotation S(theta, phi), Killing vectors and spinors, and the
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
"""

from dataclasses import dataclass

import numpy as np

from .matcore import dagger
from .su2rep import EPS_LOWER, PAULI

__all__ = [
    "SphereGrid",
    "SpinorField",
    "sample_section",
    "sample_projected_spinor",
    "A_PHASE",
    "EPS_LOWER",
    "C_MINUS",
    "hopf_s2",
    "unit_vector",
    "section",
    "s_matrix",
    "killing_vectors",
    "killing_spinor",
    "weyl_plus",
    "spinor_dual",
    "modified_majorana_residual",
    "random_majorana_spinor",
    "rotation_reality_residual",
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
C_MINUS = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)  # i sigma_2
ID_PHASE = np.exp(0.25j * np.pi)  # constant phase in the section/spinor match


@dataclass(frozen=True)
class SphereGrid:
    """Midpoint (theta, phi) lattice, strictly interior in theta."""

    theta: np.ndarray
    phi: np.ndarray
    h_theta: float
    h_phi: float

    @classmethod
    def make(cls, n_theta, n_phi):
        if n_theta < 2 or n_phi < 2:
            raise ValueError("grid needs at least two points per direction")
        h_t = np.pi / n_theta
        h_p = 2 * np.pi / n_phi
        theta = (np.arange(n_theta) + 0.5) * h_t
        phi = np.arange(n_phi) * h_p
        return cls(theta=theta, phi=phi, h_theta=h_t, h_phi=h_p)

    def mesh(self):
        return np.meshgrid(self.theta, self.phi, indexing="ij")


@dataclass(frozen=True)
class SpinorField:
    """Two-component values sampled on a grid, tagged by which doublet index
    they carry: the global multiplet index or the local frame index."""

    values: np.ndarray  # (..., 2)
    kind: str  # "global_index" or "lorentz_index"

    def __post_init__(self):
        if self.kind not in ("global_index", "lorentz_index"):
            raise ValueError(f"unknown spinor kind {self.kind!r}")
        v = np.asarray(self.values, dtype=complex)
        if v.shape[-1] != 2 or not np.all(np.isfinite(v)):
            raise ValueError("values must be finite with a trailing doublet axis")
        object.__setattr__(self, "values", v)


def sample_section(grid):
    """The fibre section over a grid; carries the local frame index."""
    tt, pp = grid.mesh()
    return SpinorField(values=section(unit_vector(tt, pp)), kind="lorentz_index")


def sample_projected_spinor(grid):
    """sqrt(2) P_+ eta over a grid; carries the global multiplet index."""
    tt, pp = grid.mesh()
    return SpinorField(values=weyl_plus(killing_spinor(tt, pp)), kind="global_index")


def hopf_s2(g):
    """x_i = g^dag sigma_i^T g for a 2-component complex vector (or stack)."""
    g = np.asarray(g, dtype=complex)
    return np.real(
        np.einsum("...a,iab,...b->...i", g.conj(), SIGMA_T, g)
    )


def unit_vector(theta, phi):
    """Cartesian point of the unit sphere at colatitude theta, longitude phi.

    The transverse radius is sqrt(1 - x3^2) rather than sin(theta): the unit
    constraint then fails only in proportion to (1 + x3), which keeps the
    polar charts (``section``) conditioned all the way to the poles.
    """
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    x3 = np.cos(theta)
    rho = np.sqrt(np.clip((1.0 - x3) * (1.0 + x3), 0.0, None))
    return np.stack([rho * np.cos(phi), rho * np.sin(phi), x3], axis=-1)


def section(x, tol=1e-12):
    """Phase-fixed fibre coordinate (1 + x3, x1 - i x2) / sqrt(2(1 + x3)).

    Inverts hopf_s2 on the unit sphere; singular at the south pole.
    """
    x = np.asarray(x, dtype=float)
    x3 = x[..., 2]
    if np.any(x3 <= -1.0 + tol):
        raise ValueError("section is singular at x3 = -1")
    denom = np.sqrt(2.0 * (1.0 + x3))
    return np.stack(
        [(1.0 + x3) / denom, (x[..., 0] - 1j * x[..., 1]) / denom], axis=-1
    )


def s_matrix(theta, phi):
    """Unitary frame rotation between Euclidean and spherical spinors."""
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    c = np.cos(theta / 2)
    s = np.sin(theta / 2)
    ep = np.exp(0.5j * phi)
    em = np.exp(-0.5j * phi)
    out = np.empty(np.broadcast(theta, phi).shape + (2, 2), dtype=complex)
    out[..., 0, 0] = -s * ep
    out[..., 0, 1] = -1j * c * ep
    out[..., 1, 0] = c * em
    out[..., 1, 1] = -1j * s * em
    return A_PHASE * out


def killing_vectors(theta, phi):
    """Components K_i^a (a = theta, phi) of the three rotation fields."""
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    cot = np.cos(theta) / np.sin(theta)
    out = np.empty(np.broadcast(theta, phi).shape + (3, 2), dtype=float)
    out[..., 0, 0] = -np.sin(phi)
    out[..., 0, 1] = -cot * np.cos(phi)
    out[..., 1, 0] = np.cos(phi)
    out[..., 1, 1] = -cot * np.sin(phi)
    out[..., 2, 0] = 0.0
    out[..., 2, 1] = 1.0
    return out


def killing_spinor(theta, phi):
    """eta[..., alpha, I] = (S^dag E)[alpha, I] / sqrt(2)."""
    s = s_matrix(theta, phi)
    return np.einsum("...ba,bc->...ac", s.conj(), EPS_LOWER) / np.sqrt(2.0)


def weyl_plus(eta):
    """u^I = sqrt(2) (P_+ eta)^I: the surviving component of the projection."""
    return np.sqrt(2.0) * eta[..., 0, :]


def spinor_dual(eta):
    """Dual spinors etabar[..., I, alpha] with eta etabar = -1.

    Built as 2 eps^{-1} eta^T C_-; orthonormality reads
    eta^T C_- eta = -eps/2 and completeness eta etabar = -identity.
    """
    etat = np.swapaxes(eta, -1, -2)
    return 2.0 * np.einsum("ab,...bc,cd->...ad", np.linalg.inv(EPS_LOWER), etat, C_MINUS)


def modified_majorana_residual(chi):
    """Defect of conj(chi[a, ad]) = eps[a, b] eps[ad, bd] chi[b, bd]."""
    chi = np.asarray(chi, dtype=complex)
    image = np.einsum("ab,cd,...bd->...ac", EPS_LOWER, EPS_LOWER, chi)
    return float(np.max(np.abs(np.conj(chi) - image)))


def random_majorana_spinor(rng):
    """Random 2x2 spinor satisfying the reality condition exactly."""
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    image = np.einsum("ab,cd,bd->ac", EPS_LOWER, EPS_LOWER, z)
    return (z + np.conj(image)) / 2


def rotation_reality_residual(theta, phi, chi):
    """Reality defect of chi after the frame rotation acts on its first index."""
    s = s_matrix(theta, phi)
    rotated = np.einsum("...ab,bc->...ac", dagger(s), chi)
    return modified_majorana_residual(rotated)


def _gamma_a(theta):
    """gamma_theta, gamma_phi = sigma_1, sin(theta) sigma_2 (lower index)."""
    theta = np.asarray(theta, dtype=float)
    gph = np.sin(theta)[..., None, None] * SIGMA[1]
    return np.broadcast_to(SIGMA[0], gph.shape).copy(), gph


def killing_equation_residual(theta, phi, h=1e-4, connection_sign=-1.0, extrapolate=False):
    """Finite-difference residual of D_a eta = (i/2) gamma_a eta.

    D_phi carries the spin connection omega^{12}_phi = connection_sign *
    cos(theta); the geometric value is -cos(theta) and flipping the sign is
    the negative control.  With ``extrapolate`` the derivative uses a
    Richardson pair (h, h/2), pushing truncation below roundoff.
    """

    def central(step):
        dt = (killing_spinor(theta + step, phi) - killing_spinor(theta - step, phi)) / (
            2 * step
        )
        dp = (killing_spinor(theta, phi + step) - killing_spinor(theta, phi - step)) / (
            2 * step
        )
        return dt, dp

    eta0 = killing_spinor(theta, phi)
    dth, dph = central(h)
    if extrapolate:
        dth2, dph2 = central(h / 2)
        dth = (4.0 * dth2 - dth) / 3.0
        dph = (4.0 * dph2 - dph) / 3.0
    gth, gph = _gamma_a(theta)
    res_t = dth - 0.5j * np.einsum("...ab,...bI->...aI", gth, eta0)
    # D_phi = d_phi + (1/2) omega^{12}_phi gamma_12, gamma_12 = i sigma_3
    dph = dph + 0.5j * connection_sign * np.asarray(np.cos(theta))[
        ..., None, None
    ] * np.einsum("ab,...bI->...aI", SIGMA[2], eta0)
    res_p = dph - 0.5j * np.einsum("...ab,...bI->...aI", gph, eta0)
    return max(float(np.max(np.abs(res_t))), float(np.max(np.abs(res_p))))


def _aligned_section(theta, phi):
    """Local representative carrying the fibre phase that the adjoint-action
    derivative identity requires; coincides with section() at phi = 0 and is
    not single-valued in phi (the known global obstruction)."""
    g = section(unit_vector(theta, phi))
    phase = np.exp(0.5j * np.asarray(phi) * (1.0 - np.cos(theta)))
    return phase[..., None] * g


def _rotated_gamma(theta, phi):
    """M_a = S gamma_a S^dag for a = theta, phi."""
    s = s_matrix(theta, phi)
    gth, gph = _gamma_a(theta)
    mth = np.einsum("...ab,...bc,...dc->...ad", s, gth, s.conj())
    mph = np.einsum("...ab,...bc,...dc->...ad", s, gph, s.conj())
    return mth, mph


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
        return {
            "schema": 1,
            "coordinate": self.coordinate,
            "projected_derivative": self.projected_derivative,
            "section_derivative": self.section_derivative,
            "local_phase": self.local_phase,
            "dx_agreement": self.dx_agreement,
            "order_b": self.order_b,
            "order_c": self.order_c,
        }


def _fd_residual_b(theta, phi, h):
    u0 = weyl_plus(killing_spinor(theta, phi))
    mth, mph = _rotated_gamma(theta, phi)
    dth = (
        weyl_plus(killing_spinor(theta + h, phi))
        - weyl_plus(killing_spinor(theta - h, phi))
    ) / (2 * h)
    dph = (
        weyl_plus(killing_spinor(theta, phi + h))
        - weyl_plus(killing_spinor(theta, phi - h))
    ) / (2 * h)
    rt = dth + 0.5j * np.einsum("...IJ,...J->...I", mth, u0)
    rp = dph + 0.5j * np.einsum("...IJ,...J->...I", mph, u0) - 0.5j * np.cos(
        theta
    )[..., None] * u0
    return max(float(np.max(np.abs(rt))), float(np.max(np.abs(rp))))


def _fd_residual_c(theta, phi, h):
    g0 = _aligned_section(theta, phi)
    mth, mph = _rotated_gamma(theta, phi)
    dth = (_aligned_section(theta + h, phi) - _aligned_section(theta - h, phi)) / (2 * h)
    dph = (_aligned_section(theta, phi + h) - _aligned_section(theta, phi - h)) / (2 * h)
    res = 0.0
    for d, m in ((dth, mth), (dph, mph)):
        defect = d + 0.5j * np.einsum("...ab,...b->...a", m, g0)
        # remove the i * real * g component: the representative is only
        # defined up to the fibre phase and its theta-gradient is the
        # non-integrable piece
        coeff = np.imag(np.einsum("...a,...a->...", g0.conj(), defect))
        defect = defect - 1j * coeff[..., None] * g0
        res = max(res, float(np.max(np.abs(defect))))
    return res


def identification_check(n, grid, h=1e-4, phi_window=0.02):
    """Run the five identification checks on the interior of a grid.

    ``n`` is the matrix size whose large-size limit is being probed; it
    gates validity (n >= 2) and is recorded by callers, the residuals
    themselves are classical.
    """
    if n < 2:
        raise ValueError("identification needs n >= 2")
    tt, pp = grid.mesh()

    # (a) coordinates from the projected spinor
    u = weyl_plus(killing_spinor(tt, pp))
    xa = hopf_s2(u)
    res_a = float(np.max(np.abs(xa - unit_vector(tt, pp))))

    # (b), (c) finite-difference derivative laws, plus convergence order
    # (orders measured at steps large enough that truncation beats roundoff)
    res_b = _fd_residual_b(tt, pp, h)
    res_c = _fd_residual_c(tt, pp, h)
    h_ord = max(h, 2e-3)
    order_b = float(
        np.log2(_fd_residual_b(tt, pp, h_ord) / _fd_residual_b(tt, pp, h_ord / 2))
    )
    order_c = float(
        np.log2(_fd_residual_c(tt, pp, h_ord) / _fd_residual_c(tt, pp, h_ord / 2))
    )

    # (d) local phase match near phi = 0: the projected spinor equals the
    # aligned representative times exp(i phi cos(theta) / 2) and one fixed
    # constant phase
    phis = np.linspace(-phi_window, phi_window, 9)
    tloc, ploc = np.meshgrid(grid.theta, phis, indexing="ij")
    uloc = weyl_plus(killing_spinor(tloc, ploc))
    match = (
        ID_PHASE
        * np.exp(0.5j * ploc * np.cos(tloc))[..., None]
        * _aligned_section(tloc, ploc)
    )
    res_d = float(np.max(np.abs(uloc - match)))

    # (e) d_a x_i from either derivative law: (i/2) v^dag [M_a, sigma~_i] v
    mth, mph = _rotated_gamma(tt, pp)
    g0 = section(unit_vector(tt, pp))
    res_e = 0.0
    for m in (mth, mph):
        comm = np.einsum("...ab,ibc->...iac", m, SIGMA_T) - np.einsum(
            "iab,...bc->...iac", SIGMA_T, m
        )
        via_b = 0.5j * np.einsum("...a,...iab,...b->...i", u.conj(), comm, u)
        via_c = 0.5j * np.einsum("...a,...iab,...b->...i", g0.conj(), comm, g0)
        res_e = max(res_e, float(np.max(np.abs(via_b - via_c))))

    return IdentificationReport(
        coordinate=res_a,
        projected_derivative=res_b,
        section_derivative=res_c,
        local_phase=res_d,
        dx_agreement=res_e,
        order_b=order_b,
        order_c=order_c,
    )


def grid_report(grid, n=2, h=1e-4):
    """Per-point residual rows (theta, phi, identity name, residual).

    Covers the pointwise identities: chart round trip, the rotated gamma_3
    relation, coordinate reproduction from the projected spinor, and the
    Killing equation (Richardson-extrapolated derivative).
    """
    tt, pp = grid.mesh()
    x = unit_vector(tt, pp)
    rows = []

    def emit(name, res):
        for i in range(tt.shape[0]):
            for j in range(tt.shape[1]):
                rows.append((float(tt[i, j]), float(pp[i, j]), name, float(res[i, j])))

    emit("hopf_section_roundtrip", np.max(np.abs(hopf_s2(section(x)) - x), axis=-1))
    s = s_matrix(tt, pp)
    g3 = np.einsum("...ab,bc,...dc->...ad", s, SIGMA[2], s.conj()) + np.einsum(
        "...i,iab->...ab", x, SIGMA_T
    )
    emit("gamma3_relation", np.max(np.abs(g3), axis=(-2, -1)))
    u = weyl_plus(killing_spinor(tt, pp))
    emit("spinor_coordinates", np.max(np.abs(hopf_s2(u) - x), axis=-1))

    eta0 = killing_spinor(tt, pp)
    def central(step):
        dt = (killing_spinor(tt + step, pp) - killing_spinor(tt - step, pp)) / (2 * step)
        dp = (killing_spinor(tt, pp + step) - killing_spinor(tt, pp - step)) / (2 * step)
        return dt, dp

    dth, dph = central(h)
    dth2, dph2 = central(h / 2)
    dth = (4.0 * dth2 - dth) / 3.0
    dph = (4.0 * dph2 - dph) / 3.0
    gth, gph = _gamma_a(tt)
    rt = dth - 0.5j * np.einsum("...ab,...bI->...aI", gth, eta0)
    rp = (
        dph
        - 0.5j * np.cos(tt)[..., None, None] * np.einsum("ab,...bI->...aI", SIGMA[2], eta0)
        - 0.5j * np.einsum("...ab,...bI->...aI", gph, eta0)
    )
    emit(
        "killing_equation",
        np.maximum(np.max(np.abs(rt), axis=(-2, -1)), np.max(np.abs(rp), axis=(-2, -1))),
    )
    return rows


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


def _require_unit(v, tol):
    n = float(np.linalg.norm(v))
    if abs(n - 1.0) > tol:
        raise ValueError(f"input must be unit-norm (got {n})")


def hopf_s4(g, tol=1e-10):
    """x_A = g^dag Gamma_A g for a unit vector in C^4; lands on the unit S4."""
    g = np.asarray(g, dtype=complex).reshape(4)
    _require_unit(g, tol)
    return np.array([np.real(g.conj() @ gm @ g) for gm in gamma_so5()])


def hopf_s8(g, tol=1e-10):
    """x_A = g^T Gamma_A g for a unit vector in R^16; lands on the unit S8."""
    g = np.asarray(g, dtype=float).reshape(16)
    _require_unit(g, tol)
    return np.array([float(g @ np.real(gm) @ g) for gm in gamma_so9()])


def s8_inversion(x, u, tol=1e-10):
    """Lift a point of S8 and a fibre spinor u in S7 back to R^16.

    Singular where x_9 = -1 (the fibre coordinates degenerate there).
    """
    x = np.asarray(x, dtype=float).reshape(9)
    u = np.asarray(u, dtype=float).reshape(8)
    _require_unit(x, tol)
    _require_unit(u, tol)
    if x[8] <= -1.0 + tol:
        raise ValueError("inversion is singular at x_9 = -1")
    lams = octonion_lambdas()
    g = np.empty(16)
    g[:8] = np.sqrt((1.0 + x[8]) / 2.0) * u
    m = x[7] * np.eye(8) - sum(x[i] * lams[i] for i in range(7))
    g[8:] = (m @ u) / np.sqrt(2.0 * (1.0 + x[8]))
    return g
