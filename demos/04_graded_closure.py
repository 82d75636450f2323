"""Graded closure of the superalgebra built from a doublet, and its calibration.

Packaging diag(J_i, Jbar_i) as even generators and the doublet as odd ones
closes an orthosymplectic superalgebra, but only for one odd-generator
scale and one reading of the lowered two-index sigma symbol.  Rather than
trusting a printed normalization, ``calibrate`` scans a grid, reports what
actually closes and keeps the score of every candidate it tried.
"""

import numpy as np

from fuzzball import ground_state
from fuzzball.superalg import calibrate

sol = ground_state(3)
cal = calibrate(sol)
print("calibrated scale:", cal.scale)
print("calibrated convention:", cal.convention)
print("residuals (even-even, even-odd, odd-odd):", ["%.2e" % r for r in cal.residuals])

# the naive sqrt(N) scale does not close the odd-odd bracket
for scale in (1.0, np.sqrt(3), 2.0):
    ee, eo, oo = cal.scores[scale, "eps_left"]
    print(f"scale {scale:.3f}: even-even {ee:.2e}, even-odd {eo:.2e}, odd-odd {oo:.2e}")

# and the other index-lowering reading fails at any scale
print("eps_right odd-odd residual:", "%.2e" % cal.scores[1.0, "eps_right"][2])
right = [res[2] for (_, conv), res in cal.scores.items() if conv == "eps_right"]
print("eps_right best odd-odd residual over the grid:", "%.2e" % min(right))

# stability of the calibrated pair across sizes
for n in (2, 4, 8, 16):
    c = calibrate(ground_state(n))
    print(f"n={n:2d}: scale {c.scale}, convention {c.convention}, worst {c.total:.2e}")
