"""
Spin representations in the doubled normalization [J_i, J_j] = 2i eps_ijk J_k,
and the bilinear maps that extract them from a ground-state doublet.

Index conventions (used verbatim across the library):

    jmat[a][b] = g^a gd_b          upper index first
    jbar[a][b] = gd_a g^b          lower index first
    J_i    = sum_{a,b} sigma_i[b, a] jmat[b][a]
    Jbar_i = sum_{a,b} sigma_i[b, a] jbar[a][b]

i.e. both contractions use the transposed Pauli matrices; for Jbar the
dagger factor sits on the left.  jmat[1][0] and jbar[1][0] are the exact
adjoints of jmat[0][1] and jbar[0][1], so J_1, J_2 and their barred pair are
exactly Hermitian; the evaluators rely on that pairing.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .matcore import (
    _block_rows,
    _nan_max,
    as_matrix,
    commutator,
    dagger,
    frobenius_norm,
    matrix_from_json,
    max_frobenius,
    plain_json,
)

__all__ = [
    "PAULI",
    "EPS3",
    "EPS_LOWER",
    "Su2Representation",
    "BilinearSet",
    "irrep",
    "direct_sum",
    "weight_frame",
    "casimir",
    "su2_closure_residual",
    "bilinears",
    "u2_structure_residual",
    "doublet_covariance_residual",
    "intertwiner_residual",
]

PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

# antisymmetric doublet metric: i * sigma_2^T = [[0, -1], [1, 0]]
EPS_LOWER = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)

# Levi-Civita symbol on three indices
EPS3 = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    EPS3[_i, _j, _k] = 1.0
    EPS3[_j, _i, _k] = -1.0


def _contract(sig, entry):
    """sum_{a,b} sig[b, a] entry(b, a) over the two nonzero entries of sig,
    summed from 0 in this order; each entry is read at its own term."""
    total = 0
    for a in range(2):
        for b in range(2):
            if sig[b, a]:
                total = total + sig[b, a] * entry(b, a)
    return total


def pauli_contract(blocks):
    """sum_{a,b} sigma_i[b, a] blocks[b][a] for i = 1, 2, 3.

    Reading blocks[b][a] as a tensor with upper index b and lower index a,
    this contracts with the transposed Pauli matrices; the same helper serves
    J_i and Jbar_i, the caller supplies the matching block table.  Only the
    two nonzero entries of each sigma_i enter the sum.
    """
    return [_contract(sig, lambda b, a: blocks[b][a]) for sig in PAULI]


@dataclass(frozen=True)
class Su2Representation:
    """Generator triple (j1, j2, j3) with its irreducible block partition."""

    j1: np.ndarray
    j2: np.ndarray
    j3: np.ndarray
    partition: tuple = field(default=())

    def __post_init__(self):
        for name in ("j1", "j2", "j3"):
            object.__setattr__(self, name, as_matrix(getattr(self, name)))
        if not (self.j1.shape == self.j2.shape == self.j3.shape):
            raise ValueError("generators must share a shape")
        object.__setattr__(self, "partition", tuple(int(n) for n in self.partition))

    @property
    def dim(self):
        return self.j1.shape[0]

    @property
    def generators(self):
        return (self.j1, self.j2, self.j3)

    def _record(self):
        """The JSON layout with the matrices left as arrays, for write_json."""
        return {
            "schema": 1,
            "partition": list(self.partition),
            "j1": self.j1,
            "j2": self.j2,
            "j3": self.j3,
        }

    def to_json(self):
        return plain_json(self._record())

    @classmethod
    def from_json(cls, obj):
        return cls(
            j1=matrix_from_json(obj["j1"]),
            j2=matrix_from_json(obj["j2"]),
            j3=matrix_from_json(obj["j3"]),
            partition=tuple(obj.get("partition", ())),
        )


def irrep(n):
    """Irreducible generators of dimension n, J3 ascending along the diagonal,
    built by ``_canonical_sum((n,))``.  Ladder entries are twice the textbook
    alpha_{j,m} = sqrt((j+m)(j-m+1)), which gives the doubled structure constants."""
    return _canonical_sum((n,))


def _canonical_sum(partition):
    """direct_sum(irrep(n) for n in partition), bit for bit, written into three
    zero matrices from the row places (k, size) of ``_block_rows``: J_3 is
    diag(2k - size - 1), and J_1 + i J_2 has twice ``half`` on the sub-diagonal.
    Only nonzero band entries are written: a block join keeps +0.0, not -0.0."""
    k, size = _block_rows(partition)
    n = len(k)
    j1, j2, j3 = (np.zeros((n, n), dtype=complex) for _ in range(3))
    j3.flat[:: n + 1] = 2 * k - size - 1
    rows = np.flatnonzero(k > 1)
    half = np.sqrt((k - 1) * (size - k + 1))[rows]
    j1[rows, rows - 1] = j1[rows - 1, rows] = half
    j2.imag[rows, rows - 1] = -half
    j2.imag[rows - 1, rows] = half
    return Su2Representation(j1, j2, j3, partition=partition)


def direct_sum(reps):
    if not reps:
        raise ValueError("need at least one representation")
    total = sum(r.dim for r in reps)
    gens = [np.zeros((total, total), dtype=complex) for _ in range(3)]
    partition = []
    offset = 0
    for r in reps:
        n = r.dim
        for i, g in enumerate(r.generators):
            gens[i][offset : offset + n, offset : offset + n] = g
        partition.extend(r.partition)
        offset += n
    return Su2Representation(*gens, partition=tuple(partition))


# defect tolerated per unit of size, relative to the largest generator norm;
# the rotation itself leaves about one machine epsilon per unit of size
_EPS = np.finfo(float).eps
_FRAME_TOL = 1e3 * _EPS


def weight_frame(rep):
    """(V, canonical, defect): V^dag J_i V = direct_sum(irrep(n) for n in
    partition), blocks ascending in size, J_3 ascending within each block and
    J_+ with a positive sub-diagonal; ``canonical`` holds the rotated
    generators and the derived partition, ``defect`` their distance to the
    exact direct sum relative to max_i ||J_i||_F.

    One eigh of J_3 gives the integer weight spaces.  Walking the weights
    upwards, the open chain ends are raised by J_+, projected onto the next
    weight space and re-orthonormalised by a QR with a positive diagonal; the
    rest of that space (the complete-QR complement) starts new chains.
    Raises ValueError unless the defect is within _FRAME_TOL * N: an input
    that is not a representation is refused, never projected onto one.  The
    scale is floored at 1: the smallest nonzero irrep has ||J_3||_F =
    sqrt(2), so a smaller triple is zero up to rounding or no representation,
    and its tolerance must not shrink with its own rounding noise.
    """
    scale = max(1.0, *(frobenius_norm(g) for g in rep.generators))
    tol = _FRAME_TOL * rep.dim * scale
    w, u = np.linalg.eigh(rep.j3)
    weights = np.rint(w).astype(int)
    if np.any(np.abs(w - weights) > tol):
        raise ValueError(f"J_3 weights are not integers to {tol:.3e}: "
                         "not an su(2) representation")
    jp = rep.j1 + 1j * rep.j2
    chains = []  # [lowest weight, [vectors]]
    ends = {}  # weight -> (ids of the chains there, in ascending lowest weight; their vectors)
    values, starts = np.unique(weights, return_index=True)
    for wt, space in zip(values.tolist(), np.split(u, starts[1:], axis=1)):
        prev_ids, prev = ends.get(wt - 2, ([], u[:, :0]))
        ids = [cid for cid in prev_ids if chains[cid][0] <= -wt]  # a prefix of prev_ids
        q, r = np.linalg.qr(dagger(space) @ (jp @ prev[:, : len(ids)]), mode="complete")
        diag = np.diagonal(r)
        if len(ids) > len(q) or np.any(np.abs(diag) <= tol):
            raise ValueError(f"J_+ does not raise {len(ids)} independent chains into "
                             f"weight {wt}: not an su(2) representation")
        q[:, : len(ids)] *= diag / np.abs(diag)
        fresh = len(q) - len(ids)
        ids += range(len(chains), len(chains) + fresh)
        chains += [[wt, []] for _ in range(fresh)]
        vecs = space @ q
        for k, cid in enumerate(ids):
            chains[cid][1].append(vecs[:, k])
        ends[wt] = (ids, vecs)
    # a chain cut short gets a block whose weights miss, which the check refuses
    chains.sort(key=lambda chain: len(chain[1]))
    v = np.column_stack([vec for _, vecs in chains for vec in vecs])
    partition = tuple(len(vecs) for _, vecs in chains)
    gens = [dagger(v) @ g @ v for g in rep.generators]
    defect = max_frobenius(g - e for g, e in zip(gens, _canonical_sum(partition).generators))
    if not defect <= tol:
        raise ValueError(f"generators leave the canonical direct sum by {defect:.3e} "
                         f"(tolerance {tol:.3e}): not an su(2) representation")
    return v, Su2Representation(*gens, partition=partition), defect / scale


def casimir(rep):
    return sum(g @ g for g in rep.generators)


def su2_closure_residual(gens):
    """max_ij || [J_i, J_j] - 2i eps_ijk J_k ||_F, formed for i < j only: i = j
    gives exactly 0 and (j, i) the exact negation of (i, j)."""
    return max_frobenius(commutator(gens[i], gens[j]) - 2j * EPS3[i, j, k] * gens[k]
                         for i, j, k in ((0, 1, 2), (0, 2, 1), (1, 2, 0)))


@dataclass(frozen=True)
class BilinearSet:
    """All quadratic invariants of a doublet, plus their Pauli contractions."""

    jmat: tuple  # jmat[a][b] = g^a gd_b
    jbar: tuple  # jbar[a][b] = gd_a g^b
    j: tuple  # su(2) triple from jmat
    jbar_i: tuple  # su(2) triple from jbar
    trace_j: np.ndarray
    trace_jbar: np.ndarray


def _entries(x, y, swap=False):
    """Entry (row, col) of ``_table(x, y)``, or with ``swap`` of its
    transpose, formed when read: the (0, 1) product is kept for the (1, 0)
    entry, its adjoint."""
    off = []

    def entry(row, col):
        if swap:
            row, col = col, row
        if row == col:
            return x[row] @ y[row]
        if not off:
            off.append(x[0] @ y[1])
        return off[0] if row == 0 else dagger(off[0])

    return entry


def _table(x, y):
    """((x_0 y_0, x_0 y_1), ((x_0 y_1)^dag, x_1 y_1)) from 3 products: the
    (1, 0) entry is the exact adjoint of the (0, 1) entry when y_a = x_a^dag.
    ``_table(g, gd)`` is jmat and ``_table(gd, g)`` is jbar."""
    entry = _entries(x, y)
    return ((entry(0, 0), entry(0, 1)), (entry(1, 0), entry(1, 1)))


def _transposed(t):
    """The table with its two indices swapped: K^a_b = jbar[b][a] = gd_b g^a
    from jbar, the table whose Pauli contraction is Jbar_i."""
    return ((t[0][0], t[1][0]), (t[0][1], t[1][1]))


def _jmat(sol):
    """jmat, the table whose Pauli contraction is J_i."""
    return _table(sol.matrices, sol.daggers)


def _kbar(sol):
    """jbar with its indices swapped (K^a_b = gd_b g^a), the table whose
    Pauli contraction is Jbar_i."""
    return _transposed(_table(sol.daggers, sol.matrices))


def bilinears(sol):
    """Both tables and both triples from 6 products (adjoint-paired tables)."""
    jmat, jbar = _jmat(sol), _table(sol.daggers, sol.matrices)
    return BilinearSet(
        jmat=jmat,
        jbar=jbar,
        j=tuple(pauli_contract(jmat)),
        jbar_i=tuple(pauli_contract(_transposed(jbar))),
        trace_j=jmat[0][0] + jmat[1][1],
        trace_jbar=jbar[0][0] + jbar[1][1],
    )


def _tables(sol):
    """jmat, then K, formed one at a time: K is formed only when asked for,
    so a caller that drops jmat first (as ``map`` does) never holds both."""
    yield _jmat(sol)
    yield _kbar(sol)


def _pairs(g, gd):
    """(J_i, Jbar_i) of ``bilinears`` of the doublet g with adjoints gd, bit
    for bit, for i = 1, 2, 3 in turn.  Each generator is contracted from the
    table entries sigma_i reads, formed for it alone: J_1 and J_2 both form
    the off-diagonal product.  A caller that drops a pair before asking for
    the next holds two generators at a time."""
    for sig in PAULI:
        yield _contract(sig, _entries(g, gd)), _contract(sig, _entries(gd, g, swap=True))


def su2_from_bilinears(b, partition=(), barred=False):
    gens = b.jbar_i if barred else b.j
    return Su2Representation(*gens, partition=partition)


# the pairs (a, b) < (m, n) that are not the adjoint image of another one
_U2_PAIRS = (((0, 0), (0, 1)), ((0, 0), (1, 1)), ((0, 1), (1, 0)), ((0, 1), (1, 1)))


def _u2_table_residual(t):
    """Worst u(2) residual of one table T^a_b = t[a][b] over the four pairs
    of ``_U2_PAIRS``, after the guard of ``u2_structure_residual``."""
    low, up = t[1][0], t[0][1].T
    if not (np.array_equal(low.real, up.real, equal_nan=True)
            and np.array_equal(low.imag, -up.imag, equal_nan=True)):
        raise ValueError("bilinear table is not adjoint-paired: "
                         "its (1, 0) entry must be the adjoint of its (0, 1) entry")
    for a in range(2):
        d = t[a][a]
        # ||D - D^dag||_F from its real and imaginary parts, one at a time
        defect = math.hypot(np.linalg.norm(d.real - d.real.T),
                            np.linalg.norm(d.imag + d.imag.T))
        if defect > len(d) * _EPS * frobenius_norm(d):
            raise ValueError(f"bilinear table entry ({a}, {a}) is not Hermitian: "
                             f"||D - D^dag||_F = {defect:.3e} exceeds N eps ||D||_F")

    def defect(a, bb, m, n):
        # [T^a_b, T^m_n] - (d^m_b T^a_n - d^a_n T^m_b), each difference
        # formed in the buffer of its first operand
        rhs = (m == bb) * t[a][n]
        rhs -= (a == n) * t[m][bb]
        comm = commutator(t[a][bb], t[m][n])
        return np.subtract(comm, rhs, out=comm)

    return max_frobenius(defect(a, bb, m, n) for (a, bb), (m, n) in _U2_PAIRS)


def u2_structure_residual(b):
    """Worst residual of the two u(2) relations over all 16+16 index choices.

    With the upper index naming the undaggered factor in both tables,
    i.e. J^a_b = g^a gd_b and K^a_b = gd_b g^a, both copies satisfy

        [T^a_b, T^m_n] = d^m_b T^a_n - d^a_n T^m_b.

    Equal pairs give exactly 0 and swapped ones the exact negation, leaving
    6 pairs (a, b) < (m, n).  With T^b_a = (T^a_b)^dag both sides of pair
    ((a, b), (m, n)) are the adjoints of pair ((n, m), (b, a)), so
    ((0,0),(1,0)) and ((1,0),(1,1)) repeat the norms of ((0,0),(0,1)) and
    ((0,1),(1,1)) up to rounding: 4 pairs, 8 products per table.  This takes
    the diagonal entries as Hermitian, as g^a gd_a is up to rounding, and
    raises ValueError unless each table's (1, 0) entry is the exact adjoint
    of its (0, 1) entry, as ``bilinears`` builds them, and each diagonal entry
    D is Hermitian to ||D - D^dag||_F <= N eps ||D||_F, the rounding bound of
    its length-N inner products (the products leave about 1e-19 imaginary
    parts on the diagonal, so no exact check is possible): otherwise the
    skipped pairs would go unchecked.  NaN entries pass, so that an
    overflowing doublet reads NaN.
    """
    return _nan_max((_u2_table_residual(b.jmat), _u2_table_residual(_transposed(b.jbar))))


def _u2_residual(sol):
    """``u2_structure_residual(bilinears(sol))``, bit for bit, holding one
    table at a time."""
    return _nan_max(map(_u2_table_residual, _tables(sol)))


def doublet_covariance_residual(sol, b=None):
    """Residual of the doublet transformation laws of (g1, g2).

    Checks, for all free indices:
      (1) J_i g^a - g^a Jb_i           = sigma_i[b, a] g^b
      (2) gd_a J_i - Jb_i gd_a         = sigma_i[a, b] gd_b
      (3) J^a_b g^c - g^c Jb^a_b       = d^c_b g^a - d^a_b g^c
      (4) Jb^a_b gd_c - gd_c J^a_b     = -d^a_c gd_b + d^a_b gd_c
    where Jb^a_b denotes gd_b g^a.

    (3) reads g^a gd_b g^c - g^c gd_b g^a = ..., from jmat[a][b] @ g^c; its
    defect is exactly 0 at c = a and negated under a <-> c, leaving A_b at
    (0, b, 1).  Expanding J_i and Jb_i, (1) at (i, a) is exactly A_b, -A_b or
    -i A_b (b = a for sigma_1,2, 1 - a for sigma_3), so ||A_0||, ||A_1|| give
    the maximum over (1) and (3) to the last bit: 4 products.  J_i, Jb_i and
    sigma_i are Hermitian, so (2) and (4) are the adjoints of (1) and (3) and
    have the same norms up to rounding.  ``b`` must be ``bilinears(sol)``;
    without it only the jmat table is formed (3 products).  The two defects
    are formed and normed one at a time.
    """
    g = sol.matrices
    jmat = _jmat(sol) if b is None else b.jmat

    def defect(y):
        d = jmat[0][y] @ g[1] - jmat[1][y] @ g[0]
        return d + g[1] if y == 0 else d - g[0]

    return max_frobenius(defect(y) for y in range(2))


def intertwiner_residual(sol, b=None):
    """Residuals of gd_c J_i g^c = (N+1) Jb_i and g^c Jb_i gd_c = (N-2) J_i,
    each side formed directly: 4 products per side and generator, 24 in all.
    Without ``b`` the pair (J_i, Jb_i) of ``bilinears(sol)`` is formed for
    its two sides and dropped before the next i (``_pairs``)."""
    if not sol.is_irreducible():
        raise ValueError("intertwiner factors are only stated for one block")
    n = sol.size
    g = sol.matrices
    gd = sol.daggers

    def defects():
        for j, jb in _pairs(g, gd) if b is None else zip(b.j, b.jbar_i):
            yield sum(gd[c] @ j @ g[c] for c in range(2)) - (n + 1) * jb
            yield sum(g[c] @ jb @ gd[c] for c in range(2)) - (n - 2) * j
            del j, jb

    return max_frobenius(defects())
