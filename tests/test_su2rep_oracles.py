"""The spin-map evaluators against their all-index-choices originals.

The library evaluators form each distinct matrix product once, and each
adjoint pair once: ``bilinears`` takes the (1, 0) entry of each table as the
exact adjoint of its (0, 1) entry.  The oracles below are the direct forms,
which loop over every index choice.  su(2) closure and the Pauli triples
must agree with them to the last bit.  u(2) must agree to the last bit with
the index choices that are not adjoint images of another one, and covariance
with laws (1) and (3) formed from the 8 cubic monomials jmat[a][b] @ g^c;
both must agree with every index choice to rounding.  The identities that
justify the skipped half are checked on their own, on random doublets.
Random Gaussian doublets are far from any solution, so their residuals are
O(1): agreement there shows that no identity was dropped.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzball.grvv import GrvvSolution, block_solution, gauge_dress, ground_state
from fuzzball.matcore import commutator, dagger, frobenius_norm, random_unitary, spectral_norm
from fuzzball.su2rep import (
    EPS3,
    PAULI,
    BilinearSet,
    bilinears,
    doublet_covariance_residual,
    su2_closure_residual,
    u2_structure_residual,
)

EPS = np.finfo(float).eps
SIZES = [1, 2, 3, 5, 8, 16, 32]


def oracle_pauli_contract(blocks):
    out = []
    for sig in PAULI:
        out.append(sum(sig[b, a] * blocks[b][a] for a in range(2) for b in range(2)))
    return out


def oracle_su2_closure(gens):
    res = 0.0
    for i in range(3):
        for j in range(3):
            rhs = sum(2j * EPS3[i, j, k] * gens[k] for k in range(3))
            res = max(res, frobenius_norm(commutator(gens[i], gens[j]) - rhs))
    return res


# index pairs ((a, b), (m, n)) whose u(2) defect is the adjoint of that of
# ((n, m), (b, a)), another pair: [T^a_b, T^m_n]^dag = [T^n_m, T^b_a]
ADJOINT_IMAGES = {
    frozenset({(0, 0), (1, 0)}): frozenset({(0, 0), (0, 1)}),
    frozenset({(1, 0), (1, 1)}): frozenset({(0, 1), (1, 1)}),
}


def u2_defect_norms(b):
    """{(table, {(a, b), (m, n)}): ||[T^a_b, T^m_n] - rhs||_F} over every
    index choice; an equal pair gives 0 and a swapped pair the same norm."""
    kbar = tuple(tuple(b.jbar[bb][a] for bb in range(2)) for a in range(2))
    out = {}
    for side, table in (("jmat", b.jmat), ("kbar", kbar)):
        for a, bb, m, n in itertools.product(range(2), repeat=4):
            lhs = commutator(table[a][bb], table[m][n])
            rhs = (m == bb) * table[a][n] - (a == n) * table[m][bb]
            key = (side, frozenset({(a, bb), (m, n)}))
            out[key] = max(out.get(key, 0.0), frobenius_norm(lhs - rhs))
    return out


def oracle_u2_structure(b, kept_only=False):
    """The maximum over every index choice, or with kept_only over those that
    are not the adjoint image of another pair."""
    return max(v for (_, pair), v in u2_defect_norms(b).items()
               if not (kept_only and pair in ADJOINT_IMAGES))


def oracle_doublet_covariance(sol, b):
    g = sol.matrices
    gd = sol.daggers
    res = 0.0
    for i in range(3):
        for a in range(2):
            rhs = sum(PAULI[i][bb, a] * g[bb] for bb in range(2))
            res = max(res, frobenius_norm(b.j[i] @ g[a] - g[a] @ b.jbar_i[i] - rhs))
            rhs = sum(PAULI[i][a, bb] * gd[bb] for bb in range(2))
            res = max(res, frobenius_norm(gd[a] @ b.j[i] - b.jbar_i[i] @ gd[a] - rhs))
    for a in range(2):
        for bb in range(2):
            jbar_ab = b.jbar[bb][a]
            for c in range(2):
                lhs = b.jmat[a][bb] @ g[c] - g[c] @ jbar_ab
                rhs = (c == bb) * g[a] - (a == bb) * g[c]
                res = max(res, frobenius_norm(lhs - rhs))
                lhs = jbar_ab @ gd[c] - gd[c] @ b.jmat[a][bb]
                rhs = -(a == c) * gd[bb] + (a == bb) * gd[c]
                res = max(res, frobenius_norm(lhs - rhs))
    return res


def monomial_covariance(sol, b):
    """(laws (1) and (3), laws (2) and (4)): each family's maximum over every
    index choice, each side formed from the 8 cubic monomials jmat[a][b] @ g^c
    or the 8 jbar[a][b] @ gd_c."""
    g = sol.matrices
    gd = sol.daggers
    idx = list(itertools.product(range(2), repeat=3))
    m = {k: b.jmat[k[0]][k[1]] @ g[k[2]] for k in idx}  # g^a gd_b g^c
    e = {k: b.jbar[k[0]][k[1]] @ gd[k[2]] for k in idx}  # gd_a g^b gd_c
    res = [0.0, 0.0]
    for a, bb, c in idx:
        lhs = m[a, bb, c] - m[c, bb, a]
        res[0] = max(res[0], frobenius_norm(lhs - ((c == bb) * g[a] - (a == bb) * g[c])))
        lhs = e[bb, a, c] - e[c, a, bb]
        res[1] = max(res[1], frobenius_norm(lhs - (-(a == c) * gd[bb] + (a == bb) * gd[c])))
    pairs = list(itertools.product(range(2), repeat=2))
    for i in range(3):
        for a in range(2):
            # J_i = sigma_i[p, q] g^p gd_q and Jb_i = sigma_i[p, q] gd_q g^p
            lhs = sum(PAULI[i][p, q] * (m[p, q, a] - m[a, q, p]) for p, q in pairs)
            rhs = sum(PAULI[i][bb, a] * g[bb] for bb in range(2))
            res[0] = max(res[0], frobenius_norm(lhs - rhs))
            lhs = sum(PAULI[i][p, q] * (e[a, p, q] - e[q, p, a]) for p, q in pairs)
            rhs = sum(PAULI[i][a, bb] * gd[bb] for bb in range(2))
            res[1] = max(res[1], frobenius_norm(lhs - rhs))
    return tuple(res)


def dressed(sol, seed):
    rng = np.random.default_rng(seed + sol.size)
    n = sol.size
    return gauge_dress(sol, random_unitary(n, rng), random_unitary(n, rng))


def gaussian(n, seed):
    rng = np.random.default_rng(seed)
    g1, g2 = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for _ in range(2))
    return GrvvSolution(g1=g1, g2=g2, partition=(n,))


def doublets():
    out = []
    for n in SIZES:
        out += [
            (f"ground{n}", ground_state(n)),
            (f"dressed{n}", dressed(ground_state(n), 7)),
            (f"gaussian{n}", gaussian(n, n)),
        ]
    for part in [(1, 1), (2, 2, 3), (1, 4, 4, 1), (5, 5, 5), (8, 8, 16)]:
        out += [
            (f"blocks{part}", block_solution(part)),
            (f"dressed_blocks{part}", dressed(block_solution(part), 11)),
        ]
    return out


DOUBLETS = doublets()
IDS = [name for name, _ in DOUBLETS]
SOLS = [sol for _, sol in DOUBLETS]


def assert_rounding(new, old, sol, degree=3):
    """Residuals of products of ``degree`` factors agree to a few epsilon on
    the bound ||x||_2^(degree-1) ||x||_F of a product's norm; far from a
    solution the residual itself is the scale (1e-12 relative)."""
    s = max(spectral_norm(x) for x in sol.matrices)
    f = max(frobenius_norm(x) for x in sol.matrices)
    tol = max(16 * EPS * s ** (degree - 1) * max(f, 1.0), 1e-12 * old)
    assert abs(new - old) <= tol, (new, old, tol)


@pytest.mark.parametrize("sol", SOLS, ids=IDS)
def test_pauli_triples_bit_identical(sol):
    b = bilinears(sol)
    j = oracle_pauli_contract([[b.jmat[bb][a] for a in range(2)] for bb in range(2)])
    jb = oracle_pauli_contract([[b.jbar[a][bb] for a in range(2)] for bb in range(2)])
    for new, old in zip(b.j + b.jbar_i, j + jb):
        assert np.array_equal(new, old)


@pytest.mark.parametrize("sol", SOLS, ids=IDS)
def test_closure_and_u2_bit_identical(sol):
    b = bilinears(sol)
    assert su2_closure_residual(b.j) == oracle_su2_closure(b.j)
    assert su2_closure_residual(b.jbar_i) == oracle_su2_closure(b.jbar_i)
    res = u2_structure_residual(b)
    assert res == oracle_u2_structure(b, kept_only=True)
    assert_rounding(res, oracle_u2_structure(b), sol, degree=4)


@pytest.mark.parametrize("sol", SOLS, ids=IDS)
def test_covariance_matches_oracle(sol):
    b = bilinears(sol)
    res = doublet_covariance_residual(sol, b)
    assert res == monomial_covariance(sol, b)[0]
    assert_rounding(res, oracle_doublet_covariance(sol, b), sol)
    assert doublet_covariance_residual(sol) == res


@pytest.mark.parametrize("n", SIZES)
def test_gaussian_doublets_agree_to_1e12(n):
    # far from any solution every residual is O(1), so an identity dropped
    # from an evaluator would show here
    sol = gaussian(n, n)
    b = bilinears(sol)
    pairs = [
        (u2_structure_residual(b), oracle_u2_structure(b)),
        (su2_closure_residual(b.j), oracle_su2_closure(b.j)),
        (doublet_covariance_residual(sol, b), oracle_doublet_covariance(sol, b)),
    ]
    for new, old in pairs:
        assert old > 0.1
        assert abs(new - old) <= 1e-12 * old, (new, old)


def paired_tables(rng, scaled=()):
    """Random 4x4 bilinear tables shaped like those of a doublet: the (1, 0)
    entry the exact adjoint of the (0, 1) entry and the diagonal entries
    Hermitian, with the flat entries in ``scaled`` and their partners ten
    times larger."""
    entries = [rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) for _ in range(4)]
    entries[2] = dagger(entries[1])
    for x in (0, 3):
        entries[x] = entries[x] + dagger(entries[x])
    partner = {0: 0, 1: 2, 2: 1, 3: 3}
    for x in {*scaled, *(partner[x] for x in scaled)}:
        entries[x] = 10 * entries[x]
    return ((entries[0], entries[1]), (entries[2], entries[3]))


@pytest.mark.parametrize("side", ["jmat", "jbar"])
@pytest.mark.parametrize("pair", list(itertools.combinations(range(4), 2)))
def test_u2_checks_every_pair(side, pair):
    # adjoint-paired random tables whose entries at the two flat indices of
    # ``pair`` are ten times larger: a commutator of that pair (or its
    # adjoint image) dominates, so leaving it out of the evaluator would
    # lower the residual
    rng = np.random.default_rng(sum(pair))
    tables = {name: paired_tables(rng, pair if name == side else ()) for name in ("jmat", "jbar")}
    b = BilinearSet(jmat=tables["jmat"], jbar=tables["jbar"], j=(), jbar_i=(),
                    trace_j=None, trace_jbar=None)
    res = u2_structure_residual(b)
    assert res == oracle_u2_structure(b, kept_only=True)
    old = oracle_u2_structure(b)
    assert abs(res - old) <= 1e-12 * old, (res, old)


@pytest.mark.parametrize("side", ["jmat", "jbar"])
def test_u2_refuses_unpaired_tables(side):
    rng = np.random.default_rng(0)
    tables = {name: paired_tables(rng) for name in ("jmat", "jbar")}
    (t00, t01), (t10, t11) = tables[side]
    tables[side] = ((t00, t01), (t10 * (1 + 1e-15), t11))
    b = BilinearSet(jmat=tables["jmat"], jbar=tables["jbar"], j=(), jbar_i=(),
                    trace_j=None, trace_jbar=None)
    with pytest.raises(ValueError, match="adjoint-paired"):
        u2_structure_residual(b)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 16), dress=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_skipped_identities_are_adjoint_images(n, dress, seed):
    # Gaussian doublets solve nothing, so every defect is O(1): the skipped
    # u(2) pairs and covariance laws (2)/(4) match their kept images because
    # of the adjoint pairing alone, for any doublet
    sol = gaussian(n, seed)
    if dress:
        sol = dressed(sol, seed)
    b = bilinears(sol)
    for t in (b.jmat, b.jbar):
        assert np.array_equal(t[1][0], dagger(t[0][1]))
    for x in b.j[:2] + b.jbar_i[:2]:
        assert np.array_equal(x, dagger(x))
    norms = u2_defect_norms(b)
    for side in ("jmat", "kbar"):
        for image, kept in ADJOINT_IMAGES.items():
            new, old = norms[side, image], norms[side, kept]
            assert abs(new - old) <= 1e-12 * old, (side, image, new, old)
    kept, adjoint = monomial_covariance(sol, b)
    assert abs(adjoint - kept) <= 1e-12 * kept, (kept, adjoint)


@settings(max_examples=25, deadline=None)
@given(
    partition=st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=4),
    dress=st.booleans(),
    gauss=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_evaluators_match_oracles_on_partitions(partition, dress, gauss, seed):
    sol = block_solution(partition)
    if dress:
        sol = dressed(sol, seed)
    if gauss:
        # push the doublet off the solution set by a random amount
        noise = gaussian(sol.size, seed)
        sol = GrvvSolution(g1=sol.g1 + gauss * noise.g1, g2=sol.g2 + gauss * noise.g2,
                           partition=sol.partition)
    b = bilinears(sol)
    assert su2_closure_residual(b.j) == oracle_su2_closure(b.j)
    assert su2_closure_residual(b.jbar_i) == oracle_su2_closure(b.jbar_i)
    res = u2_structure_residual(b)
    assert res == oracle_u2_structure(b, kept_only=True)
    assert_rounding(res, oracle_u2_structure(b), sol, degree=4)
    res = doublet_covariance_residual(sol, b)
    assert res == monomial_covariance(sol, b)[0]
    assert_rounding(res, oracle_doublet_covariance(sol, b), sol)
