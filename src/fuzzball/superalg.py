"""
Graded closure checks for the supermatrices built out of a matrix doublet.

The even generators are block-diagonal pairs diag(J_i, Jbar_i); the odd ones
carry the doublet off-diagonally,

    Q_a = [[0, c * eps_{ab} g^b], [-c * gd_a, 0]],   eps = i sigma_2^T.

Closure of the odd-odd bracket onto the even triple fixes both the scale c
and the meaning of the lowered two-index sigma symbol; ``calibrate`` finds
that pair by direct search instead of trusting any printed normalization.

The three bracket families depend on that pair in different ways:

    even-even  depends on neither c nor the convention;
    even-odd   its defect is c times the defect at c = 1;
    odd-odd    {Q_a, Q_b} is c^2 times its value at c = 1, while the
               right-hand side depends only on the convention.

Every bracket of block-diagonal and block-off-diagonal matrices is itself
block-structured, so it is evaluated as two N x N blocks; a residual is the
Frobenius norm of the whole 2N x 2N defect, the hypot of the two block
norms.  ``calibrate`` forms each matrix product once and then scores every
(c, convention) candidate with O(N^2) work.
"""

import math
from dataclasses import dataclass

import numpy as np

from .matcore import commutator
from .su2rep import EPS3, EPS_LOWER, PAULI, bilinears

__all__ = [
    "EPS_LOWER",
    "SuperMatrixSet",
    "build",
    "osp_closure_residual",
    "CalibrationResult",
    "calibrate",
]

CONVENTIONS = ("eps_left", "eps_right")
FAMILIES = ("ee", "eo", "oo")


@dataclass(frozen=True)
class SuperMatrixSet:
    even: tuple  # three (2N)x(2N) block-diagonal matrices
    odd: tuple  # two (2N)x(2N) block-off-diagonal matrices
    scale: float


def build(sol, scale=1.0):
    n = sol.size
    b = bilinears(sol)
    z = np.zeros((n, n), dtype=complex)
    even = tuple(
        np.block([[b.j[i], z], [z, b.jbar_i[i]]]) for i in range(3)
    )
    g = sol.matrices
    gd = sol.daggers
    odd = []
    for a in range(2):
        ga = sum(EPS_LOWER[a, c] * g[c] for c in range(2))
        odd.append(np.block([[z, scale * ga], [-scale * gd[a], z]]))
    return SuperMatrixSet(even=even, odd=tuple(odd), scale=float(scale))


def _sigma_lowered(i, convention):
    if convention == "eps_left":
        return EPS_LOWER @ PAULI[i].T
    if convention == "eps_right":
        return PAULI[i].T @ EPS_LOWER
    raise ValueError(f"unknown convention {convention!r}")


def _norm(upper, lower):
    """Frobenius norm of a 2N x 2N matrix from its two nonzero N x N blocks."""
    return math.hypot(np.linalg.norm(upper), np.linalg.norm(lower))


class _Brackets:
    """Every matrix product of the graded brackets, evaluated once on blocks.

    Reads ``E_i = diag(J_i, Jbar_i)`` and ``Q_a = [[0, T_a], [B_a, 0]]`` out
    of ``sms`` and refuses a set whose structural zero blocks are not
    exactly zero.  ``ee`` and ``eo`` are the even-even and even-odd
    residuals of ``sms`` itself; ``odd_odd`` scores the odd-odd bracket with
    the odd generators of ``sms`` multiplied by a further ``c``.
    """

    def __init__(self, sms):
        n2 = sms.even[0].shape[0]
        n = n2 // 2
        if n2 % 2 or any(m.shape != (n2, n2) for m in sms.even + sms.odd):
            raise ValueError("supermatrices must all be 2N x 2N")
        up, lo = slice(0, n), slice(n, n2)
        if any(np.any(m[up, lo]) or np.any(m[lo, up]) for m in sms.even):
            raise ValueError("even supermatrix has a nonzero off-diagonal block")
        if any(np.any(m[up, up]) or np.any(m[lo, lo]) for m in sms.odd):
            raise ValueError("odd supermatrix has a nonzero diagonal block")
        j = [m[up, up] for m in sms.even]
        jb = [m[lo, lo] for m in sms.even]
        t = [m[up, lo] for m in sms.odd]
        b = [m[lo, up] for m in sms.odd]
        self.even = (j, jb)

        # [E_i, E_i] = 0 and [E_j, E_i] = -[E_i, E_j] hold exactly in
        # floating point, so three pairs carry the whole family
        self.ee = 0.0
        for i, k, m in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
            self.ee = max(
                self.ee,
                _norm(
                    commutator(j[i], j[k]) - 2j * EPS3[i, k, m] * j[m],
                    commutator(jb[i], jb[k]) - 2j * EPS3[i, k, m] * jb[m],
                ),
            )

        # [E_i, Q_a] has blocks J_i T_a - T_a Jbar_i and Jbar_i B_a - B_a J_i
        self.eo = 0.0
        for i in range(3):
            for a in range(2):
                rhs_t = -sum(PAULI[i][a, d] * t[d] for d in range(2))
                rhs_b = -sum(PAULI[i][a, d] * b[d] for d in range(2))
                self.eo = max(
                    self.eo,
                    _norm(
                        j[i] @ t[a] - t[a] @ jb[i] - rhs_t,
                        jb[i] @ b[a] - b[a] @ j[i] - rhs_b,
                    ),
                )

        # {Q_a, Q_b} = diag(T_a B_b + T_b B_a, B_a T_b + B_b T_a), symmetric
        # in (a, b) exactly
        self.anti = {}
        for a in range(2):
            for c in range(a, 2):
                self.anti[a, c] = self.anti[c, a] = (
                    t[a] @ b[c] + t[c] @ b[a],
                    b[a] @ t[c] + b[c] @ t[a],
                )

    def odd_odd_rhs(self, convention):
        """Per (a, b), the blocks of -(sigma_i)_{ab} E_i with the lowered symbol."""
        low = [_sigma_lowered(i, convention) for i in range(3)]
        return {
            (a, c): tuple(-sum(low[i][a, c] * e[i] for i in range(3)) for e in self.even)
            for a in range(2)
            for c in range(2)
        }

    def odd_odd(self, rhs, c=1.0):
        """Odd-odd residual with the odd generators scaled by ``c``."""
        c2 = c * c
        return max(
            _norm(c2 * self.anti[key][0] - r[0], c2 * self.anti[key][1] - r[1])
            for key, r in rhs.items()
        )


def osp_closure_residual(sms, convention="eps_left"):
    """(even-even, even-odd, odd-odd) residuals of the graded relations.

    even-even:  [E_i, E_j] = 2i eps_ijk E_k
    even-odd:   [E_i, Q_a] = -sigma_i[a, d] Q_d
    odd-odd:    {Q_a, Q_b} = -(sigma_i)_{ab} E_i, with the lowered symbol
                read per ``convention``.

    Each residual is the largest Frobenius norm of a 2N x 2N defect.  Raises
    ``ValueError`` unless the even matrices are exactly block-diagonal and
    the odd ones exactly block-off-diagonal.
    """
    br = _Brackets(sms)
    return br.ee, br.eo, br.odd_odd(br.odd_odd_rhs(convention))


@dataclass(frozen=True)
class CalibrationResult:
    scale: float
    convention: str
    residuals: tuple  # (ee, eo, oo) at the optimum

    @property
    def total(self):
        return max(self.residuals)

    def to_json(self):
        return {
            "schema": 1,
            "scale": self.scale,
            "convention": self.convention,
            "residuals": list(self.residuals),
        }


def calibrate(sol, scales=None, tol=1e-10):
    """Search a scale grid and both sigma conventions for graded closure.

    Every candidate is scored; the minimizing pair is returned. If even the
    best pair leaves a bracket family above ``tol``, raises
    ``ArithmeticError`` naming that family (``ee``, ``eo`` or ``oo``) and its
    residual. An empty ``scales`` raises ``ValueError``.
    """
    if not sol.is_irreducible() or sol.size < 2:
        raise ValueError("calibration expects one irreducible block of size >= 2")
    n = sol.size
    if scales is None:
        scales = sorted(
            {0.25, 0.5, 1 / np.sqrt(2), 1.0, np.sqrt(2), 2.0, np.sqrt(n), 1 / np.sqrt(n)}
        )
    if len(scales) == 0:
        raise ValueError("empty scale grid: calibrate needs at least one scale")
    br = _Brackets(build(sol, scale=1.0))
    best = None
    for convention in CONVENTIONS:
        rhs = br.odd_odd_rhs(convention)
        for c in scales:
            res = (br.ee, abs(float(c)) * br.eo, br.odd_odd(rhs, c))
            if best is None or max(res) < best.total:
                best = CalibrationResult(
                    scale=float(c), convention=convention, residuals=res
                )
    if best.total > tol:
        worst = int(np.argmax(best.residuals))
        raise ArithmeticError(
            f"graded closure fails: best pair (scale {best.scale:.6g}, "
            f"{best.convention}) leaves the {FAMILIES[worst]} bracket at "
            f"{best.residuals[worst]:.3e} > tol {tol:.1e}"
        )
    return best
