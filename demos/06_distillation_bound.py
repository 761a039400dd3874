#!/usr/bin/env python3
"""How much entanglement fits in one copy: the rank bound M <= 1/w1.

Local operations and classical communication can turn one copy of a
state into a rank-M maximally entangled state only if the largest RDM
weight obeys w1 <= 1/M. Critical chains have w1 falling as a power of the
subsystem size, so the distillable rank grows without bound, if slowly.
"""

from singlecopy import (
    distillation_bound,
    many_body_spectrum,
    summary_from_single_particle,
    xx_interval_spectrum,
)

print("=== XX chain intervals ===")
print("    L        w1        S1 = -ln w1    M_max")
for L in (4, 16, 64, 256, 1024, 4096):
    spec = xx_interval_spectrum(L)
    s = summary_from_single_particle(spec)
    M = distillation_bound(s.w1).M_max
    print(f"{L:6d}   {s.w1:.6f}     {s.S1:8.5f}     {M:5d}")

print("\nw1 ~ L^(-1/6) here, so doubling M costs a 64-fold longer interval.")

print("\n=== the weight ladder behind the bound (L = 64) ===")
spec = xx_interval_spectrum(64)
rdm = many_body_spectrum(spec, 8)
print("top 8 many-body weights:", [f"{w:.5f}" for w in rdm.weights])
print("their sum:", f"{rdm.weight_sum:.5f}", "(truncated:", rdm.truncated, ")")
