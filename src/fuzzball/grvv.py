"""
Ground-state doublets of the cubic bifundamental matrix equation

    G^a = G^a Gd_b G^b - G^b Gd_b G^a        (sum over b = 1, 2)

together with block-diagonal (reducible) solutions, gauge dressing and the
residual evaluators that certify a candidate doublet.
"""

from dataclasses import dataclass, field

import numpy as np

from .matcore import (
    _block_rows,
    as_matrix,
    dagger,
    frobenius_norm,
    is_unitary,
    matrix_from_json,
    max_frobenius,
    plain_json,
)

__all__ = [
    "GrvvSolution",
    "ground_state",
    "block_solution",
    "gauge_dress",
    "grvv_residual",
    "require_solution",
    "sphere_constraints",
    "real_coordinates",
]


@dataclass(frozen=True)
class GrvvSolution:
    """A doublet (g1, g2) of N x N matrices plus block provenance.

    ``partition`` records the irreducible block sizes the solution was built
    from; gauge dressing hides the blocks in the matrices but keeps the
    metadata.
    """

    g1: np.ndarray
    g2: np.ndarray
    partition: tuple = field(default=())
    dressed: bool = False

    def __post_init__(self):
        g1 = as_matrix(self.g1)
        g2 = as_matrix(self.g2)
        if g1.shape != g2.shape:
            raise ValueError("g1 and g2 must share a shape")
        object.__setattr__(self, "g1", g1)
        object.__setattr__(self, "g2", g2)
        object.__setattr__(self, "partition", tuple(int(n) for n in self.partition))

    @property
    def size(self):
        return self.g1.shape[0]

    @property
    def matrices(self):
        return (self.g1, self.g2)

    @property
    def daggers(self):
        return (dagger(self.g1), dagger(self.g2))

    def is_irreducible(self):
        return len(self.partition) == 1

    def _record(self):
        """The JSON layout with the matrices left as arrays, for write_json."""
        return {
            "schema": 1,
            "partition": list(self.partition),
            "g1": self.g1,
            "g2": self.g2,
            "dressed": self.dressed,
        }

    def to_json(self):
        return plain_json(self._record())

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, dict):
            raise ValueError("malformed solution: not a JSON object")
        for key in ("g1", "g2"):
            if key not in obj:
                raise ValueError(f"malformed solution: missing key {key!r}")

        def matrix(key):
            try:
                return matrix_from_json(obj[key])
            except ValueError as exc:
                raise ValueError(f"malformed solution: {key}: {exc}") from exc

        return cls(
            g1=matrix("g1"),
            g2=matrix("g2"),
            partition=tuple(obj.get("partition", ())),
            dressed=bool(obj.get("dressed", False)),
        )


def _half_step(partition):
    """Diagonals of the half step T = sqrt((J + J_3)/2) of the canonical layout
    (the root of k - 1, ``_block_rows``), g1 of ``block_solution``, and of its
    pseudo-inverse T^+ (0 where k = 1); (Jbar + Jbar_3)/2 has the same."""
    k, _ = _block_rows(partition)
    t = np.sqrt(k - 1)
    return t, np.divide(1.0, t, out=np.zeros_like(t), where=k > 1)


def ground_state(n):
    """Irreducible solution of size n, ``block_solution((n,))``:

    (g1)_{m,m} = sqrt(m-1),  (g2)_{m,m+1} = sqrt(n-m)   (1-based m).
    """
    return block_solution((n,))


def block_solution(partition):
    """Direct sum of ground states: g1 is the half step (``_half_step``) and g2
    has sqrt(N_k - k) on the super-diagonal, 0 across each block join."""
    partition = tuple(int(n) for n in partition)
    k, size = _block_rows(partition)
    g1 = np.diag(_half_step(partition)[0].astype(complex))
    g2 = np.diag(np.sqrt(size - k)[:-1].astype(complex), 1)
    return GrvvSolution(g1=g1, g2=g2, partition=partition)


def gauge_dress(sol, u, uhat, tol=1e-10):
    """Apply g^a -> u . g^a . uhat^dagger with unitary u, uhat.  ``uhat``
    is dropped once its adjoint is formed, so a caller that passes a
    temporary does not hold both through the products."""
    u = as_matrix(u)
    uhat = as_matrix(uhat)
    if not is_unitary(u, tol):
        raise ValueError("left factor is not unitary within tolerance")
    if not is_unitary(uhat, tol):
        raise ValueError("right factor is not unitary within tolerance")
    uh = dagger(uhat)
    del uhat
    return GrvvSolution(
        g1=u @ sol.g1 @ uh,
        g2=u @ sol.g2 @ uh,
        partition=sol.partition,
        dressed=True,
    )


def grvv_residual(sol):
    """max_a || g^a - (g^a gd_b g^b - g^b gd_b g^a) ||_F, b summed over {1,2}."""
    g = sol.matrices
    gd = sol.daggers
    right = gd[0] @ g[0] + gd[1] @ g[1]
    left = g[0] @ gd[0] + g[1] @ gd[1]
    return max_frobenius(g[a] - (g[a] @ right - left @ g[a]) for a in range(2))


def require_solution(sol, tol=1e-8):
    """``grvv_residual`` of sol; raises ValueError unless it is at most tol
    times max(1, ||g^1|| + ||g^2||)."""
    res = grvv_residual(sol)
    scale = max(1.0, frobenius_norm(sol.g1) + frobenius_norm(sol.g2))
    if not res <= tol * scale:
        raise ValueError(f"input does not solve the cubic equation (residual {res:.3e})")
    return res


def sphere_constraints(sol):
    """Residuals of g^a gd_a = (N-1) 1 and gd_a g^a = N(1 - E_11) for one block."""
    if not sol.is_irreducible():
        raise ValueError("sphere constraints are stated for irreducible solutions")
    n = sol.size
    g = sol.matrices
    gd = sol.daggers
    left = g[0] @ gd[0] + g[1] @ gd[1]
    right = gd[0] @ g[0] + gd[1] @ g[1]
    left.flat[:: n + 1] -= n - 1
    right.flat[n + 1 :: n + 1] -= n
    return frobenius_norm(left), frobenius_norm(right)


def real_coordinates(sol):
    """Hermitian parts (x1, x2, x3, x4) with g1 = x1 + i x2, g2 = x3 + i x4."""
    g1, g2 = sol.matrices
    x1 = (g1 + dagger(g1)) / 2
    x2 = (g1 - dagger(g1)) / 2j
    x3 = (g2 + dagger(g2)) / 2
    x4 = (g2 - dagger(g2)) / 2j
    return x1, x2, x3, x4
