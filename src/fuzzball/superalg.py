"""
Graded closure of the superalgebra built out of a matrix doublet.

The even generators are block-diagonal pairs diag(J_i, Jbar_i); the odd ones
carry the doublet off-diagonally,

    Q_a = [[0, c * eps_{ab} g^b], [-c * gd_a, 0]],   eps = i sigma_2^T.

The graded relations are

    even-even:  [E_i, E_j] = 2i eps_ijk E_k
    even-odd:   [E_i, Q_a] = -sigma_i[a, d] Q_d
    odd-odd:    {Q_a, Q_b} = -(sigma_i)_{ab} E_i.

Closure of the odd-odd bracket onto the even triple fixes both the scale c
and the meaning of the lowered two-index sigma symbol (``_sigma_lowered``);
``calibrate``, the one evaluator of these relations, finds that pair by
direct search instead of trusting any printed normalization, and keeps the
score of every candidate.

The three bracket families depend on that pair in different ways:

    even-even  depends on neither c nor the convention;
    even-odd   its defect is c times the defect at c = 1;
    odd-odd    {Q_a, Q_b} is c^2 times its value at c = 1, while the
               right-hand side depends only on the convention.

Every bracket of block-diagonal and block-off-diagonal matrices is itself
block-structured, so it is evaluated as two N x N blocks; a residual is the
Frobenius norm of the whole 2N x 2N defect, the hypot of the two block
norms, and a family's residual is NaN if any of its brackets is.
``calibrate`` never forms a supermatrix: it takes the blocks J_i and Jbar_i
from ``su2rep._pairs`` (one pair at a time) and forms each product with
T_a = +-g^(1-a) and B_a = -gd_a once, from the doublet itself with the sign
taken exactly.  It then scores every (c, convention) candidate with O(N^2)
work, one anticommutator block and one odd-odd right-hand side at a time.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .matcore import _nan_max
from .su2rep import EPS3, EPS_LOWER, PAULI, _pairs

__all__ = [
    "EPS_LOWER",
    "CalibrationResult",
    "calibrate",
]

CONVENTIONS = ("eps_left", "eps_right")
FAMILIES = ("ee", "eo", "oo")

# T_a = _T_SIGN[a] g^(1 - a), exactly: eps_{ac} has one nonzero entry, +-1, per row
_T_SIGN = tuple(int(EPS_LOWER[a, 1 - a].real) for a in range(2))

# the odd-odd keys (a, b) with a <= b: {Q_a, Q_b} and the lowered symbols are
# symmetric in (a, b) exactly, so (1, 0) repeats (0, 1) bit for bit
_ODD_KEYS = ((0, 0), (0, 1), (1, 1))


def _sigma_lowered(i, convention):
    if convention == "eps_left":
        return EPS_LOWER @ PAULI[i].T
    if convention == "eps_right":
        return PAULI[i].T @ EPS_LOWER
    raise ValueError(f"unknown convention {convention!r}")


def _norm(upper, lower):
    """Frobenius norm of a 2N x 2N matrix from its two nonzero N x N blocks,
    given as the functions that form them: the upper block is formed,
    normed and dropped before the lower one is formed."""
    return math.hypot(np.linalg.norm(upper()), np.linalg.norm(lower()))


def _signed_sum(p, sp, q, sq):
    """sp p + sq q for signs sp, sq in {1, -1}, formed in the buffer of ``p``
    (a product), with each sign taken exactly: the value of
    (sp p) + (sq q), bit for bit."""
    if sp != sq:
        return np.subtract(p, q, out=p) if sp > 0 else np.subtract(q, p, out=p)
    np.add(p, q, out=p)
    return p if sp > 0 else np.negative(p, out=p)


class _Brackets:
    """Every matrix product of the graded brackets, evaluated once on blocks.

    Takes the blocks J_i, Jbar_i of ``E_i = diag(J_i, Jbar_i)`` and a doublet
    (g^c, gd_a) as four lists of N x N matrices; the odd generators are
    ``Q_a = [[0, T_a], [B_a, 0]]`` with T_a = eps_{ac} g^c = _T_SIGN[a]
    g^(1 - a) and B_a = -gd_a.  T_a and B_a are never formed: each product
    is formed from g and gd and takes its sign exactly, so every residual is
    that of the products with T_a and B_a to the last bit.  ``ee`` and
    ``eo`` are the even-even and even-odd residuals; ``odd_odd`` scores the
    odd-odd bracket with the odd generators multiplied by a further ``c``.

    Every bracket is formed one N x N block at a time in four buffers
    allocated here, with the operations, and their order, of the plain
    expressions in the comments, so each norm is theirs to the last bit
    (a partial sum may differ in the sign of a zero, never in a norm):
    fresh N x N temporaries are handed back to the system and faulted in
    again, which costs more than the arithmetic.
    """

    def __init__(self, j, jb, g, gd):
        self.even = (j, jb)
        self.doublet = (g, gd)
        self.buffers = [np.empty(j[0].shape, dtype=complex) for _ in range(4)]
        b0, b1, b2, _ = self.buffers

        def ee(x, i, k, m):
            # commutator(x[i], x[k]) - 2j * EPS3[i, k, m] * x[m]
            np.subtract(np.matmul(x[i], x[k], out=b0), np.matmul(x[k], x[i], out=b1), out=b0)
            return np.subtract(b0, np.multiply(2j * EPS3[i, k, m], x[m], out=b1), out=b0)

        def eo(x, y, z, terms):
            # x @ y - y @ z + sum(c * t for c, t in terms), of two terms
            (c0, t0), (c1, t1) = terms
            np.subtract(np.matmul(x, y, out=b0), np.matmul(y, z, out=b1), out=b0)
            np.add(np.multiply(c0, t0, out=b1), np.multiply(c1, t1, out=b2), out=b1)
            return np.add(b0, b1, out=b0)

        # [E_i, E_i] = 0 and [E_j, E_i] = -[E_i, E_j] hold exactly in
        # floating point, so three pairs carry the whole family
        self.ee = _nan_max(
            _norm(lambda: ee(j, i, k, m), lambda: ee(jb, i, k, m))
            for i, k, m in ((0, 1, 2), (0, 2, 1), (1, 2, 0))
        )

        # [E_i, Q_a] has blocks J_i T_a - T_a Jbar_i + sigma_i[a, d] T_d and
        # Jbar_i B_a - B_a J_i + sigma_i[a, d] B_d; a block times the sign of
        # its operand T_a or B_a has the same norm, and is formed from g^(1-a)
        # or gd_a with the signs folded into the exact sigma coefficients
        self.eo = _nan_max(
            _norm(
                lambda: eo(j[i], g[1 - a], jb[i], [
                    (_T_SIGN[a] * _T_SIGN[d] * PAULI[i][a, d], g[1 - d]) for d in range(2)
                ]),
                lambda: eo(jb[i], gd[a], j[i], [(PAULI[i][a, d], gd[d]) for d in range(2)]),
            )
            for i in range(3)
            for a in range(2)
        )

    def _anti(self, key, side):
        """Block ``side`` (0 upper, 1 lower) of {Q_a, Q_b} at (a, b) = ``key``,
        in the first buffer."""
        # {Q_a, Q_b} = diag(T_a B_b + T_b B_a, B_a T_b + B_b T_a), where
        # T_a B_b = -_T_SIGN[a] g^(1-a) gd_b and B_a T_b = -_T_SIGN[b] gd_a g^(1-b);
        # at a = b the two terms are one product
        g, gd = self.doublet
        p, q = self.buffers[:2]
        a, c = key
        sa, sc = -_T_SIGN[a], -_T_SIGN[c]
        if side == 0:
            np.matmul(g[1 - a], gd[c], out=p)
            return _signed_sum(p, sa, p, sa) if a == c else _signed_sum(
                p, sa, np.matmul(g[1 - c], gd[a], out=q), sc
            )
        np.matmul(gd[a], g[1 - c], out=p)
        return _signed_sum(p, sc, p, sc) if a == c else _signed_sum(
            p, sc, np.matmul(gd[c], g[1 - a], out=q), sa
        )

    def _rhs(self, convention, key, side):
        """Block ``side`` of -(sigma_i)_{ab} E_i at (a, b) = ``key``, with the
        lowered symbol read per ``convention``, in the second buffer."""
        # -sum(low[i] * e[i] for i in range(3))
        e = self.even[side]
        low = [_sigma_lowered(i, convention)[key] for i in range(3)]
        _, r, term, _ = self.buffers
        np.multiply(low[0], e[0], out=r)
        for i in (1, 2):
            np.add(r, np.multiply(low[i], e[i], out=term), out=r)
        return np.negative(r, out=r)

    def odd_odd(self, scales):
        """{convention: odd-odd residual at each scale c of ``scales``}, with
        the odd generators scaled by c.  Each anticommutator block is formed
        once, one key and block at a time, and scored under both conventions
        at every scale before the next is formed."""
        c2s = [c * c for c in scales]
        out = self.buffers[3]

        def defect(c2, anti, r):
            # c2 * anti - r
            np.multiply(c2, anti, out=out)
            return np.linalg.norm(np.subtract(out, r, out=out))

        scores = {convention: [[] for _ in scales] for convention in CONVENTIONS}
        for key in _ODD_KEYS:
            # (upper, lower) block norms per convention and scale
            norms = {convention: [[] for _ in scales] for convention in CONVENTIONS}
            for side in range(2):
                anti = self._anti(key, side)
                for convention in CONVENTIONS:
                    r = self._rhs(convention, key, side)
                    for c2, pair in zip(c2s, norms[convention]):
                        pair.append(defect(c2, anti, r))
            for convention in CONVENTIONS:
                for score, pair in zip(scores[convention], norms[convention]):
                    score.append(math.hypot(*pair))
        return {convention: [_nan_max(score) for score in scores[convention]]
                for convention in CONVENTIONS}


@dataclass(frozen=True)
class CalibrationResult:
    scale: float
    convention: str
    residuals: tuple  # (ee, eo, oo) at the optimum
    # (scale, convention) -> (ee, eo, oo) of every candidate scored
    scores: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def total(self):
        """The largest residual, NaN if any is NaN."""
        return _nan_max(self.residuals)

    def to_json(self):
        return {
            "schema": 1,
            "scale": self.scale,
            "convention": self.convention,
            "residuals": list(self.residuals),
        }


def calibrate(sol, scales=None, tol=1e-10):
    """Search a scale grid and both sigma conventions for graded closure.

    Every candidate is scored, and ``scores`` maps each (scale, convention)
    to its (ee, eo, oo); the first pair of least worst residual is returned.
    If even the best pair leaves a bracket family above ``tol``, or NaN,
    raises ``ArithmeticError`` naming that family (``ee``, ``eo`` or ``oo``)
    and its residual. An empty ``scales`` raises ``ValueError``.

    The brackets are evaluated on the N x N blocks: J_i and Jbar_i from
    ``su2rep._pairs`` and the doublet, from which each product with the
    odd blocks T_a = sum_c eps_{ac} g^c and B_a = -gd_a is formed with its
    exact sign; no 2N x 2N matrix, and no T_a or B_a, is formed.
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
    # row-major blocks, each copied as it is formed and its original dropped
    # before the next is formed: Jbar_1, Jbar_2 and gd_a can come out
    # column-major, and mixing layouts makes every O(N^2) update stride
    # across rows
    g, gd = sol.matrices, list(sol.daggers)
    j, jb = [], []
    for ji, jbi in _pairs(g, gd):
        j.append(np.ascontiguousarray(ji))
        jb.append(np.ascontiguousarray(jbi))
        del ji, jbi
    for a in range(2):
        gd[a] = np.ascontiguousarray(gd[a])
    br = _Brackets(j, jb, g, gd)
    oo = br.odd_odd(scales)
    scores = {
        (float(c), convention): (br.ee, abs(float(c)) * br.eo, res)
        for convention in CONVENTIONS
        for c, res in zip(scales, oo[convention])
    }
    # min keeps the first of equal totals, and a NaN total is never less
    (scale, convention), res = min(scores.items(), key=lambda item: _nan_max(item[1]))
    best = CalibrationResult(scale, convention, res, scores)
    if not best.total <= tol:
        worst = int(np.argmax(best.residuals))
        raise ArithmeticError(
            f"graded closure fails: best pair (scale {best.scale:.6g}, "
            f"{best.convention}) leaves the {FAMILIES[worst]} bracket at "
            f"{best.residuals[worst]:.3e}, not within tol {tol:.1e}"
        )
    return best
