#!/usr/bin/env python3
"""Largest RDM weight of XXZ chains: the power law in the chain length.

Exact diagonalization of open XXZ chains, cut in the middle. On a
double-log plot the curves for different anisotropies are near-parallel
lines: w1 ~ L^(-c/12) with common c = 1, the anisotropy only shifting the
non-universal offset. Totals are kept at L = 1 mod 4 so the subsystem
parity does not alternate between points (the parity oscillation of S1
falls only like 1/L, and on a mixed grid it outweighs the smooth step).
"""

import numpy as np

from singlecopy import xxz_scan

deltas = [-0.9, -0.5, 0.0, 0.5, 0.9]
lengths = [9, 13, 17, 21]
points = xxz_scan(deltas, lengths)

print("=== ln w1 by anisotropy and size ===")
header = "  Delta " + "".join(f"    L={L:<4d}" for L in lengths)
print(header)
curves = {}
for d in deltas:
    row = [p.summary.w1 for p in points if p.delta == d]
    curves[d] = np.log(row)
    print(f"  {d:+.1f}  " + "".join(f"  {v:+.5f}" for v in curves[d]))

print("\nstrictly decreasing in L:",
      all(np.all(np.diff(c) < 0) for c in curves.values()))

print("\n=== offsets between curves (additive constants) ===")
base = curves[0.0]
for d in deltas:
    off = curves[d] - base
    print(f"  Delta={d:+.1f} vs 0.0: offsets {np.round(off, 4)}  "
          f"(spread {off.max() - off.min():.4f})")

print("\nlocal slope of ln w1 vs ln L, times -12 (central-charge estimate):")
lnL = np.log(lengths)
for d in deltas:
    c_loc = -12 * np.diff(curves[d]) / np.diff(lnL)
    print(f"  Delta={d:+.1f}: {np.round(c_loc, 3)}")
print("(slow 1/ln L convergence toward c = 1; see demo 03 for the"
      " extrapolation at free-fermion sizes)")
