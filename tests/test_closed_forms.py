"""Closed-form coherent states and classical harmonics against the oracles
they replace.

The oracles are the batched dense eigensolve of x . J (the old
``coherent_state``) and scipy's ``lpmv`` with factorial normalization (the
old ``classical_ylm``).  Near the poles ``lpmv`` itself loses digits at high
l, so there an mpmath evaluation of Rodrigues' formula is the reference.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import lpmv

import fuzzball
from fuzzball.harmonics import _weight_frame, classical_ylm
from fuzzball.matcore import dagger, random_unitary
from fuzzball.spectra import coherent_state, symbol_map
from fuzzball.su2rep import Su2Representation, direct_sum, irrep

SIZES = [1, 2, 3, 5, 8, 12, 32]


def eigh_coherent_state(rep, theta, phi):
    """Top eigenvector of x . J at each point, one dense eigh per point."""
    x = np.stack(
        [
            np.sin(theta) * np.cos(phi),
            np.sin(theta) * np.sin(phi),
            np.cos(theta) * np.ones_like(phi),
        ],
        axis=-1,
    )
    h = np.einsum("...i,inm->...nm", x, np.stack(rep.generators))
    _, vecs = np.linalg.eigh(h)
    return vecs[..., :, -1]


def lpmv_ylm(l, m, theta, phi):
    ma = abs(m)
    norm = math.sqrt((2 * l + 1) * math.factorial(l - ma) / math.factorial(l + ma))
    val = norm * lpmv(ma, l, np.cos(theta)) * np.exp(1j * ma * phi)
    if m < 0:
        val = (-1) ** ma * np.conj(val)
    return val


def rotated_irrep(n, seed):
    u = random_unitary(n, np.random.default_rng(seed))
    return Su2Representation(
        *(u @ g @ dagger(u) for g in irrep(n).generators), partition=(n,)
    )


def points(seed, count=60):
    """Poles, interior points and angles outside [0, pi] x [0, 2 pi)."""
    rng = np.random.default_rng(seed)
    theta = np.concatenate(
        [[0.0, np.pi, 0.0, np.pi], rng.uniform(0, np.pi, count), rng.uniform(-7, 7, 20)]
    )
    phi = np.concatenate([[0.0, 0.0, 2.5, -1.0], rng.uniform(-7, 7, count + 20)])
    return theta, phi


# ---------------------------------------------------------------------------
# coherent states


@pytest.mark.parametrize("rotated", [False, True])
@pytest.mark.parametrize("n", SIZES)
def test_coherent_state_matches_eigh_oracle(n, rotated):
    rep = rotated_irrep(n, 200 + n) if rotated else irrep(n)
    theta, phi = points(n)
    psi = coherent_state(rep, theta, phi)
    ref = eigh_coherent_state(rep, theta, phi)
    overlap = np.abs(np.sum(ref.conj() * psi, axis=-1))
    assert np.max(np.abs(overlap - 1.0)) < 1e-12


def test_coherent_state_broadcasts_separable_angles():
    rep = rotated_irrep(5, 7)
    theta = np.linspace(0, np.pi, 6)
    phi = np.linspace(0, 2 * np.pi, 9, endpoint=False)
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    mesh = coherent_state(rep, tt, pp)
    assert mesh.shape == (6, 9, 5)
    assert_allclose(coherent_state(rep, theta[:, None], phi[None, :]), mesh, atol=1e-15)
    assert_allclose(coherent_state(rep, theta[2], phi[3]), mesh[2, 3], atol=1e-15)
    assert coherent_state(rep, 0.4, 1.3).shape == (5,)


@pytest.mark.parametrize("n", [64, 256, 512])
def test_coherent_state_large_sizes_finite_unit_norm(n):
    rep = rotated_irrep(n, n) if n == 64 else irrep(n)
    theta, phi = points(n, count=40)
    psi = coherent_state(rep, theta, phi)
    assert np.all(np.isfinite(psi))
    assert np.max(np.abs(np.linalg.norm(psi, axis=-1) - 1.0)) < 1e-12
    # the poles are the extreme weights, not 0 * log 0
    u, _ = _weight_frame(rep)
    assert abs(abs(np.vdot(u[:, -1], psi[0])) - 1.0) < 1e-12
    assert abs(abs(np.vdot(u[:, 0], psi[1])) - 1.0) < 1e-12


@pytest.mark.parametrize("n", [2, 5, 32])
def test_coherent_symbols_of_generators(n):
    """<J_3> = (N-1) cos(theta) and <J_+> = (N-1) sin(theta) e^{i phi} in the
    doubled normalization: a check of the closed form's phases that does not
    go through an eigensolve."""
    rep = rotated_irrep(n, 11)
    theta, phi = points(3)
    assert_allclose(symbol_map(rep.j3, rep, theta, phi), (n - 1) * np.cos(theta), atol=1e-12 * n)
    jp = rep.j1 + 1j * rep.j2
    assert_allclose(
        symbol_map(jp, rep, theta, phi),
        (n - 1) * np.sin(theta) * np.exp(1j * phi),
        atol=1e-12 * n,
    )


@pytest.mark.parametrize("dims", [(2, 3), (3, 3), (1, 1)])
def test_coherent_state_refuses_direct_sums(dims):
    with pytest.raises(ValueError):
        coherent_state(direct_sum([irrep(n) for n in dims]), 0.3, 0.2)


# ---------------------------------------------------------------------------
# classical harmonics


def test_classical_ylm_matches_lpmv_oracle():
    theta = np.linspace(0.0, np.pi, 25)  # includes both poles
    phi = np.linspace(0.0, 2 * np.pi, 7)
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    for l in range(61):
        for m in range(-l, l + 1):
            err = np.max(np.abs(classical_ylm(l, m, tt, pp) - lpmv_ylm(l, m, tt, pp)))
            assert err < 1e-12 * math.sqrt(2 * l + 1), (l, m, err)


def series_ylm(l, m, theta, mp):
    """Y_lm(theta, 0) from the explicit sum of Rodrigues' formula,

    P_l^m(x) = (-1)^m (1 - x^2)^(m/2) 2^-l
               sum_k (-1)^k C(l, k) C(2l - 2k, l) d^m/dx^m x^(l - 2k),

    in mpmath at enough digits to absorb the cancellation."""
    ma = abs(m)
    x, s = mp.cos(theta), mp.sin(theta)
    total = mp.mpf(0)
    for k in range(l // 2 + 1):
        p = l - 2 * k
        if p >= ma:
            total += (
                (-1) ** k * math.comb(l, k) * math.comb(2 * l - 2 * k, l)
                * mp.ff(p, ma) * x ** (p - ma)
            )
    val = (-1) ** ma * s**ma * total / mp.mpf(2) ** l
    val *= mp.sqrt(mp.mpf((2 * l + 1) * math.factorial(l - ma)) / math.factorial(l + ma))
    return (-1) ** ma * val if m < 0 else val


@pytest.mark.parametrize("l, m", [(60, 0), (60, 1), (60, -2), (40, 3), (60, 60)])
def test_classical_ylm_near_poles_matches_series(l, m):
    mp = pytest.importorskip("mpmath")
    theta = [1e-8, 1e-3, 0.7, np.pi - 1e-3, np.pi - 1e-8]
    with mp.workdps(100):
        ref = np.array([float(series_ylm(l, m, mp.mpf(t), mp)) for t in theta])
    got = classical_ylm(l, m, np.array(theta), 0.0)
    assert np.max(np.abs(got - ref)) < 1e-12 * math.sqrt(2 * l + 1)


def test_classical_ylm_scalar_and_shape():
    assert classical_ylm(2, 1, 0.4, 0.3) == pytest.approx(lpmv_ylm(2, 1, 0.4, 0.3), abs=1e-15)
    assert classical_ylm(3, -2, np.zeros((2, 3)), np.zeros((2, 3))).shape == (2, 3)


def test_converge_modes_does_not_import_scipy(tmp_path):
    src = os.path.dirname(os.path.dirname(fuzzball.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = tmp_path / "modes.csv"
    code = (
        "import sys\n"
        "from fuzzball.cli import main\n"
        "code = main(['converge', 'modes', '--n-list', '4,8,16', '--l', '2', '--m', '1',"
        f" '--out', {str(out)!r}])\n"
        "print(code, 'scipy' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert proc.stdout.split() == ["0", "False"]
    assert len(out.read_text().splitlines()) == 4
