"""Spectral diagnostics and the approach to the round sphere.

The adjoint Laplacian carries the exact classical spectrum at every size;
the kinetic operator's levels are labelled by the orbital l and the total
j; the coordinate commutators decay as 2/(N+1); coherent-state symbols of the
matrix harmonics converge to the classical Y_lm; and the spinorial
harmonics square to (l+1)^2 under the Dirac operator.
"""

from fuzzball.geometry import SphereGrid
from fuzzball.spectra import (
    commutator_decay,
    dirac_square_check,
    fuzzy_laplacian_spectrum,
    mode_convergence,
    scalar_kinetic_spectrum,
)
from fuzzball.su2rep import irrep

print("adjoint Laplacian, n = 4:", fuzzy_laplacian_spectrum(irrep(4)).round(8))

print("\ncoordinate noncommutativity:")
for n, value in commutator_decay([4, 8, 16, 32, 64, 128, 256]):
    print(f"  n={n:4d}  ||[x1,x2]|| = {value:.6f}   2/(n+1) = {2/(n+1):.6f}")

print("\nfluctuation kinetic operator, n = 3 (levels 3l(l+1) + j(j+1) - 1):")
ks = scalar_kinetic_spectrum(irrep(3))
for eig, mult, l, j, res in ks.groups:
    print(f"  eigenvalue {eig:6.2f} multiplicity {mult}  (l={l}, j={j})  residual {res:.1e}")
print("  generator triple eigenvalue:", ks.ji_triple_eigenvalue,
      "residual:", ks.ji_triple_residual)

print("\nsymbol convergence to the classical harmonics:")
for l in (1, 2, 3):
    table = mode_convergence([4, 8, 16, 32], l, 0)
    row = "  ".join(f"n={n}: {err:.4f}" for n, err in table)
    print(f"  l={l}:  {row}")

print("\nDirac-squared spinorial harmonics (expect (l+1)^2):")
grid = SphereGrid.make(40, 80)
for l in (0, 1, 2):
    r = dirac_square_check(l, +1, grid)
    print(f"  l={l}: eigenvalue {r.eigenvalue:.10f}, residual {r.residual:.2e}")
