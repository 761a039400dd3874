#!/usr/bin/env python3
"""Half-chain S1 of the disordered transverse-field Ising chain.

Off criticality S1 saturates, and for the Ising chain the saturation
value has an elliptic-integral closed form in the coupling k. The lattice
computation (open chain, middle cut, length a comfortable multiple of the
correlation length xi ~ 1/(1-k)) lands on the formula to many digits; the
near-critical logarithmic expansion takes over as k -> 1.
"""

import math

from singlecopy import (
    FermionModelSpec,
    ground_state_correlations,
    single_particle_energies,
    summary_from_single_particle,
    tfim_s1_half,
    tfim_s1_near_critical,
)

print("=== lattice vs closed form ===")
print("   k     L_total    S1 lattice      S1 formula      |diff|")
for k in (0.3, 0.5, 0.7, 0.9):
    xi = 1.0 / (1.0 - k)
    L = 2 * math.ceil(20 * xi)
    corr = ground_state_correlations(FermionModelSpec(kind="tfim", modulus=k, length=L),
                                     sites=L // 2)
    spec = single_particle_energies(corr)
    s1 = summary_from_single_particle(spec).S1
    formula = tfim_s1_half(k)
    print(f"  {k:.1f}   {L:7d}    {s1:.10f}   {formula:.10f}   {abs(s1 - formula):.1e}")

print("\n=== approach to criticality ===")
print("   k      closed form    log expansion    rel. diff")
for k in (0.9, 0.99, 0.999, 0.9999):
    exact = tfim_s1_half(k)
    approx = tfim_s1_near_critical(k)
    print(f" {k:7.4f}   {exact:.8f}     {approx:.8f}     {abs(approx - exact) / exact:.2%}")
print("\n(S1 diverges like (1/24) ln xi at the critical point; the expansion's")
print("subleading 1/ln term is absent from the entanglement entropy S.)")
