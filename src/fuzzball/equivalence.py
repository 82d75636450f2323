"""
Executable maps between matrix doublets and spin representations.

Forward: contract the doublet bilinears into generator triples and certify
their closure.  Backward: from a canonical block-diagonal representation,
rebuild the doublet through the half-step square root

    T = sqrt((J + J3) / 2),   g1 = (J + J3) T^+ / 2,   g2 = (J1 - i J2) T^+ / 2.

In the canonical form of ``su2rep.weight_frame`` each matrix read here is a
closed form in the rows' places k in their blocks (``matcore._block_rows``):
the exact and barred triples (``su2rep._canonical_sum``), the diagonal u(1)
traces, and (J + J3)/2 = diag(k - 1) and its barred counterpart, so T and its
Moore-Penrose inverse are taken entrywise; T^+ is 0 on each lowest-weight
state, so the kernel column of the result vanishes, as in the ground state.
"""

from dataclasses import dataclass, field

import numpy as np

from .grvv import GrvvSolution, _half_step, grvv_residual, require_solution
from .matcore import (
    _block_rows,
    _nan_max,
    as_matrix,
    commutator,
    dagger,
    frobenius_norm,
    is_unitary,
    max_frobenius,
)
from .su2rep import (
    Su2Representation,
    _canonical_sum,
    _jmat,
    _kbar,
    casimir,
    pauli_contract,
    su2_closure_residual,
    weight_frame,
)

__all__ = [
    "grvv_to_su2",
    "canonicalize",
    "canonical_traces",
    "barred_generators",
    "su2_to_grvv",
    "compatibility_residual",
    "round_trip",
    "RoundTripReport",
]


def _forms(t, spectra=False):
    """What is read of one bilinear table: its Pauli contraction, its u(1)
    trace t[0][0] + t[1][1] and, with ``spectra`` (else None), the unitary
    invariants a gauge leaves alone: eigvalsh of the Hermitian entries
    t[a][a] and the singular values of t[0][1].  t[1][0] is its exact
    adjoint, with the same singular values, and a Hermitian entry's
    singular values are its |eigenvalues|; the off-diagonal entries are
    nilpotent, so their eigenvalues are numerically defective.  The table
    is dropped with the caller's reference."""
    spec = None
    if spectra:
        spec = (np.linalg.eigvalsh(t[0][0]), np.linalg.eigvalsh(t[1][1]),
                np.linalg.svd(t[0][1], compute_uv=False))
    return tuple(pauli_contract(t)), t[0][0] + t[1][1], spec


def grvv_to_su2(sol, tol=1e-8):
    """Extract (J_i, Jbar_i) from a doublet and certify both su(2) closures.

    Returns (rep, rep_bar, residuals) where residuals holds the closure
    defects max_ij ||[J_i, J_j] - 2i eps_ijk J_k||_F and the commutation of
    the u(1) traces with the triples.
    """
    res0 = require_solution(sol, tol)
    j, trace_j, _ = _forms(_jmat(sol))
    jb, trace_jb, _ = _forms(_kbar(sol))
    residuals = {
        "input": res0,
        "closure_j": su2_closure_residual(j),
        "closure_jbar": su2_closure_residual(jb),
        "trace_commutes": max(frobenius_norm(commutator(trace_j, m)) for m in j),
        "trace_bar_commutes": max(frobenius_norm(commutator(trace_jb, m)) for m in jb),
    }
    rep = Su2Representation(*j, partition=sol.partition)
    rep_bar = Su2Representation(*jb, partition=())
    return rep, rep_bar, residuals


def canonicalize(rep):
    """Rotate a representation to block-diagonal form with J3 ascending.

    Returns (canonical rep, V) with generators_canonical = V^dag generators V,
    the partition derived and blocks ascending in size (``su2rep.weight_frame``).
    Raises ValueError unless they equal the exact direct sum of irreps to
    1e3 * eps * N * max_i ||J_i||_F: a non-representation is refused, never
    projected.
    """
    v, canon, _ = weight_frame(rep)
    return canon, v


def canonical_traces(partition):
    """Diagonals of the u(1) parts J = (N_k - 1) 1 and Jbar = N_k (1 - E_11)
    on each block, as two real arrays: both matrices are diagonal."""
    k, size = _block_rows(partition)
    return size - 1, size * (k > 1)


def barred_generators(partition):
    """Blockwise triple with irrep(N_k - 1) on rows 2..N_k of each N_k block:
    the canonical sum of the partition that splits each block into 1, N_k - 1."""
    return _canonical_sum([m for n in partition for m in (1, n - 1) if m]).generators


def _require_canonical(rep, tol=1e-8):
    if not rep.partition:
        raise ValueError("rep not in canonical block form (no partition recorded); "
                         "run canonicalize first")
    if sum(rep.partition) != rep.dim:
        raise ValueError("partition does not match the dimension")
    exact = _canonical_sum(rep.partition).generators
    if max_frobenius(g - e for g, e in zip(rep.generators, exact)) > tol * max(1.0, rep.dim):
        raise ValueError("rep not in canonical block form; run canonicalize first")


@dataclass(frozen=True)
class Su2ToGrvvResult:
    solution: GrvvSolution
    ghat1: np.ndarray
    ghat2: np.ndarray
    residuals: dict


def _rebuild(rep):
    """The doublet g1 = (J + J3) T^+ / 2, g2 = (J1 - i J2) T^+ / 2 of a
    canonical representation; T^+ is diagonal and scales the columns."""
    _require_canonical(rep)
    _, tp = _half_step(rep.partition)
    g1 = rep.j3.copy()
    g1.flat[:: rep.dim + 1] += canonical_traces(rep.partition)[0]
    return GrvvSolution(g1=g1 * tp / 2, g2=(rep.j1 - 1j * rep.j2) * tp / 2,
                        partition=rep.partition)


def _kernel_columns(sol):
    """Largest norm of a column of g1 or g2 at a block's lowest-weight state."""
    starts = np.flatnonzero(_block_rows(sol.partition)[0] == 1)
    return max(float(np.linalg.norm(g[:, o])) for o in starts for g in sol.matrices)


def su2_to_grvv(rep):
    """Rebuild the doublet from a canonical block-diagonal representation."""
    sol = _rebuild(rep)
    jb = barred_generators(rep.partition)
    jb[2].flat[:: rep.dim + 1] += canonical_traces(rep.partition)[1]
    _, tp = _half_step(rep.partition)  # Ttilde^+ = T^+, diagonal: scales the rows
    ghat1 = tp[:, None] * jb[2] / 2
    ghat2 = tp[:, None] * (jb[0] - 1j * jb[1]) / 2
    del jb
    residuals = {
        "grvv": grvv_residual(sol),
        "j_rebuilt": max_frobenius(
            m - g for m, g in zip(pauli_contract(_jmat(sol)), rep.generators)),
        "kernel_columns": _kernel_columns(sol),
    }
    return Su2ToGrvvResult(solution=sol, ghat1=ghat1, ghat2=ghat2, residuals=residuals)


def compatibility_residual(rep, u, tol=1e-10):
    """Joint residual of the two compatibility relations for a given unitary.

    With Uhat = T U Ttilde^+ the first relation is tested as unitarity of
    Uhat on the support of Ttilde; the second compares Jbar_- against
    Ttilde^2 U^-1 T^+ J_- T^+ U, pseudo-inverses replacing inverses.
    """
    _require_canonical(rep)
    u = as_matrix(u)
    if not is_unitary(u, tol):
        raise ValueError("compatibility requires a unitary argument")
    jb = barred_generators(rep.partition)
    # T and Ttilde share their diagonal t, and so do their pseudo-inverses
    t, tp = _half_step(rep.partition)
    uhat = t[:, None] * u * tp
    support = t * tp  # diagonal of Ttilde Ttilde^+
    r1 = frobenius_norm(support[:, None] * (dagger(uhat) @ uhat) * support - np.diag(support))

    jm = rep.j1 - 1j * rep.j2
    jbm = jb[0] - 1j * jb[1]
    r2 = frobenius_norm(jbm - (t**2)[:, None] * (dagger(u) @ (tp[:, None] * jm * tp) @ u))
    return max(r1, r2)


@dataclass(frozen=True)
class RoundTripReport:
    steps: tuple
    tol: float
    passed: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(
            self, "passed", all(res <= self.tol for _, res in self.steps)
        )

    def worst(self):
        # np.max keeps a NaN step, which the builtin max drops unless it comes first
        return float(np.max([res for _, res in self.steps]))

    def to_json(self):
        return {
            "schema": 1,
            "tol": self.tol,
            "passed": self.passed,
            "steps": [
                {"name": name, "residual": res, "passed": res <= self.tol}
                for name, res in self.steps
            ],
        }


def _casimir_multiset(rep):
    w = np.linalg.eigvalsh(casimir(rep))
    return np.sort(w.real)


def round_trip(obj, tol=1e-10):
    """Both directions of the correspondence, reported step by step.

    A representation is pushed to a doublet and back; a doublet is pushed to
    its representation and rebuilt.  Equality is asserted on unitary
    invariants (Casimir spectra, bilinear spectra), never on raw entries.
    The ``canonical_frame`` step is the relative defect of the weight frame
    that canonicalizes the representation.
    """
    steps = []
    if isinstance(obj, Su2Representation):
        rep = obj
        steps.append(("input_closure", su2_closure_residual(rep.generators)))
        _, canon, defect = weight_frame(rep)
        steps.append(("canonical_frame", defect))
        jtr, jbtr = canonical_traces(canon.partition)
        jb = barred_generators(canon.partition)
        # [diag(d), G] entrywise, d_i G_ij - G_ij d_j
        steps.append(("trace_commutes", max(
            max(frobenius_norm(jtr[:, None] * g - g * jtr) for g in canon.generators),
            max(frobenius_norm(jbtr[:, None] * g - g * jbtr) for g in jb),
        )))
        steps.append(("barred_closure", su2_closure_residual(jb)))
        del jtr, jbtr, jb
        steps.append(("compatibility_u1", compatibility_residual(canon, np.eye(canon.dim))))
        sol = _rebuild(canon)
        steps.append(("grvv_algebra", grvv_residual(sol)))
        steps.append(("kernel_columns", _kernel_columns(sol)))
        j = pauli_contract(_jmat(sol))
        steps.append(("reextraction_closure", su2_closure_residual(j)))
        c1 = _casimir_multiset(rep)
        c2 = _casimir_multiset(Su2Representation(*j))
        steps.append(("casimir_multiset", float(np.max(np.abs(c1 - c2)))))
        return RoundTripReport(steps=tuple(steps), tol=tol)

    if isinstance(obj, GrvvSolution):
        sol = obj
        steps.append(("input_grvv", require_solution(sol)))
        j, spec1 = _forms(_jmat(sol), spectra=True)[::2]  # the u(1) trace is not read
        steps.append(("closure_j", su2_closure_residual(j)))
        steps.append(("closure_jbar", su2_closure_residual(pauli_contract(_kbar(sol)))))
        rep = Su2Representation(*j, partition=sol.partition)
        _, canon, defect = weight_frame(rep)
        steps.append(("canonical_frame", defect))
        c1 = _casimir_multiset(rep)
        sol = _rebuild(canon)
        del canon
        steps.append(("rebuilt_grvv", grvv_residual(sol)))
        # gauge moves the bilinears by unitary conjugation, so jmat keeps the
        # spectra ``_forms`` takes
        j, spec2 = _forms(_jmat(sol), spectra=True)[::2]
        steps.append(("bilinear_spectra",
                      _nan_max(float(np.max(np.abs(s1 - s2))) for s1, s2 in zip(spec1, spec2))))
        c2 = _casimir_multiset(Su2Representation(*j))
        steps.append(("casimir_multiset", float(np.max(np.abs(c1 - c2)))))
        return RoundTripReport(steps=tuple(steps), tol=tol)

    raise TypeError("round_trip expects a representation or a doublet solution")
