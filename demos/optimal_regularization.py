"""Pick the regularization parameter that minimizes the error constant.

The error constant C_delta trades a delta^2 growth term against a 1/log(delta)
tail.  Its minimizer solves a monotone scalar equation in delta; we find the
root, confirm it against a brute-force grid, and sweep the constant ratio over
two decades to show the optimum barely moves.
"""

import numpy as np

from slenderspec.experiments import cdelta_profile, optimal_delta
from slenderspec.tables import SQRT_E

for setting, lo in (("stokes", SQRT_E), ("laplace", 1.0)):
    print(f"--- {setting} (threshold delta > {lo:.4f}) ---")
    for ratio in (0.05, 0.1, 0.5, 1.0, 2.0, 10.0):
        d = optimal_delta(setting, ratio)
        print(f"  C2/C1 = {ratio:<6g} -> delta* = {d:.6f}")

    # brute-force cross-check at ratio 2
    c1, c2 = 1.0, 2.0
    grid = np.linspace(lo + 1e-3, 6.0, 200_001)
    vals = cdelta_profile(setting, grid, c1, c2)
    d_grid = grid[int(np.argmin(vals))]
    d_root = optimal_delta(setting, c2 / c1)
    print(f"  grid minimizer {d_grid:.5f} vs root {d_root:.5f} "
          f"(gap {abs(d_grid - d_root):.1e})\n")
