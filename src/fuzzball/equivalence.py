"""
Executable maps between matrix doublets and spin representations.

Forward: contract the doublet bilinears into generator triples and certify
their closure.  Backward: from a canonical block-diagonal representation,
rebuild the doublet through the half-step square root

    T = sqrt((J + J3) / 2),   g1 = (J + J3) T^+ / 2,   g2 = (J1 - i J2) T^+ / 2.

In the canonical form of ``su2rep.weight_frame``, (J + J3)/2 and its barred
counterpart are diag(0, 1, ..., N_k - 1) on each block, so T and its
Moore-Penrose inverse are taken entrywise; T^+ is 0 on each lowest-weight
state, so the kernel column of the result vanishes, as in the ground state.
"""

from dataclasses import dataclass, field

import numpy as np

from .grvv import GrvvSolution, grvv_residual, require_solution
from .matcore import (
    as_matrix,
    commutator,
    dagger,
    frobenius_norm,
    is_unitary,
)
from .su2rep import (
    Su2Representation,
    bilinears,
    casimir,
    direct_sum,
    irrep,
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


def grvv_to_su2(sol, tol=1e-8):
    """Extract (J_i, Jbar_i) from a doublet and certify both su(2) closures.

    Returns (rep, rep_bar, residuals) where residuals holds the closure
    defects max_ij ||[J_i, J_j] - 2i eps_ijk J_k||_F and the commutation of
    the u(1) traces with the triples.
    """
    res0 = require_solution(sol, tol)
    b = bilinears(sol)
    residuals = {
        "input": res0,
        "closure_j": su2_closure_residual(b.j),
        "closure_jbar": su2_closure_residual(b.jbar_i),
        "trace_commutes": max(
            frobenius_norm(commutator(b.trace_j, b.j[i])) for i in range(3)
        ),
        "trace_bar_commutes": max(
            frobenius_norm(commutator(b.trace_jbar, b.jbar_i[i])) for i in range(3)
        ),
    }
    rep = Su2Representation(*b.j, partition=sol.partition)
    rep_bar = Su2Representation(*b.jbar_i, partition=())
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
    """u(1) parts J = diag((N_k-1) 1) and Jbar = diag(N_k (1 - E_11))."""
    size = np.repeat(partition, partition).astype(complex)
    bar = size.copy()
    bar[np.cumsum((0,) + tuple(partition[:-1]))] = 0  # each block's first row
    return np.diag(size - 1), np.diag(bar)


def barred_generators(partition):
    """Blockwise triple with each N_k block carrying irrep(N_k - 1) on rows 2..N_k."""
    total = sum(partition)
    gens = [np.zeros((total, total), dtype=complex) for _ in range(3)]
    offset = 0
    for n in partition:
        if n > 1:
            sub = irrep(n - 1)
            for i, g in enumerate(sub.generators):
                gens[i][offset + 1 : offset + n, offset + 1 : offset + n] = g
        offset += n
    return tuple(gens)


def _half_step(partition):
    """Diagonals of T = sqrt(diag(k)) and of T^+, k = 0..N_k-1 on each block:
    the canonical (J + J3)/2 and its barred counterpart both."""
    k = np.concatenate([np.arange(n, dtype=float) for n in partition])
    t = np.sqrt(k)
    return t, np.divide(1.0, t, out=np.zeros_like(t), where=k > 0)


def _require_canonical(rep, tol=1e-8):
    if not rep.partition:
        raise ValueError("rep not in canonical block form (no partition recorded); "
                         "run canonicalize first")
    ref = direct_sum([irrep(n) for n in rep.partition])
    if ref.dim != rep.dim:
        raise ValueError("partition does not match the dimension")
    defect = max(
        frobenius_norm(g - gr) for g, gr in zip(rep.generators, ref.generators)
    )
    if defect > tol * max(1.0, rep.dim):
        raise ValueError("rep not in canonical block form; run canonicalize first")


@dataclass(frozen=True)
class Su2ToGrvvResult:
    solution: GrvvSolution
    ghat1: np.ndarray
    ghat2: np.ndarray
    residuals: dict


def su2_to_grvv(rep):
    """Rebuild the doublet from a canonical block-diagonal representation."""
    _require_canonical(rep)
    partition = rep.partition
    jtr, jbtr = canonical_traces(partition)
    jb = barred_generators(partition)
    _, tp = _half_step(partition)  # T^+ = Ttilde^+, diagonal: scales columns or rows
    g1 = (jtr + rep.j3) * tp / 2
    g2 = (rep.j1 - 1j * rep.j2) * tp / 2
    sol = GrvvSolution(g1=g1, g2=g2, partition=partition)

    ghat1 = tp[:, None] * (jbtr + jb[2]) / 2
    ghat2 = tp[:, None] * (jb[0] - 1j * jb[1]) / 2

    b = bilinears(sol)
    offsets = np.cumsum((0,) + partition[:-1])
    kernel_cols = max(
        float(np.linalg.norm(g[:, o])) for o in offsets for g in sol.matrices
    )
    residuals = {
        "grvv": grvv_residual(sol),
        "j_rebuilt": max(
            frobenius_norm(b.j[i] - rep.generators[i]) for i in range(3)
        ),
        "kernel_columns": kernel_cols,
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
        steps.append(
            (
                "trace_commutes",
                max(
                    max(frobenius_norm(commutator(jtr, g)) for g in canon.generators),
                    max(frobenius_norm(commutator(jbtr, g)) for g in jb),
                ),
            )
        )
        steps.append(("barred_closure", su2_closure_residual(jb)))
        steps.append(
            ("compatibility_u1", compatibility_residual(canon, np.eye(canon.dim)))
        )
        result = su2_to_grvv(canon)
        steps.append(("grvv_algebra", result.residuals["grvv"]))
        steps.append(("kernel_columns", result.residuals["kernel_columns"]))
        rep2, _, res2 = grvv_to_su2(result.solution)
        steps.append(("reextraction_closure", res2["closure_j"]))
        c1 = _casimir_multiset(rep)
        c2 = _casimir_multiset(rep2)
        steps.append(("casimir_multiset", float(np.max(np.abs(c1 - c2)))))
        return RoundTripReport(steps=tuple(steps), tol=tol)

    if isinstance(obj, GrvvSolution):
        sol = obj
        steps.append(("input_grvv", grvv_residual(sol)))
        rep, rep_bar, res = grvv_to_su2(sol)
        steps.append(("closure_j", res["closure_j"]))
        steps.append(("closure_jbar", res["closure_jbar"]))
        _, canon, defect = weight_frame(rep)
        steps.append(("canonical_frame", defect))
        result = su2_to_grvv(canon)
        steps.append(("rebuilt_grvv", result.residuals["grvv"]))
        b1 = bilinears(sol)
        b2 = bilinears(result.solution)
        # gauge moves the bilinears by unitary conjugation, so the Hermitian
        # tables keep their eigenvalues and every table keeps its singular
        # values; the off-diagonal tables are nilpotent, hence compared via
        # singular values (their eigenvalues are numerically defective)
        spec_dist = 0.0
        for a in range(2):
            e1 = np.linalg.eigvalsh(b1.jmat[a][a])
            e2 = np.linalg.eigvalsh(b2.jmat[a][a])
            spec_dist = max(spec_dist, float(np.max(np.abs(e1 - e2))))
            for c in range(2):
                s1 = np.linalg.svd(b1.jmat[a][c], compute_uv=False)
                s2 = np.linalg.svd(b2.jmat[a][c], compute_uv=False)
                spec_dist = max(spec_dist, float(np.max(np.abs(s1 - s2))))
        steps.append(("bilinear_spectra", spec_dist))
        c1 = _casimir_multiset(rep)
        c2 = _casimir_multiset(Su2Representation(*bilinears(result.solution).j))
        steps.append(("casimir_multiset", float(np.max(np.abs(c1 - c2)))))
        return RoundTripReport(steps=tuple(steps), tol=tol)

    raise TypeError("round_trip expects a representation or a doublet solution")
