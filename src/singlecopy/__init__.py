"""Single-copy entanglement of quantum chains.

The largest eigenvalue w1 of a subsystem's reduced density matrix sets
how much entanglement a single copy of the state can deliver: a rank-M
maximally entangled state is reachable only if w1 <= 1/M, and
S1 = -ln w1 grows like (c/6) ln L in critical chains, at exactly half the
rate of the entanglement entropy. This package computes w1, S1, S and
Renyi traces exactly for free-fermion chains (XX, transverse-field Ising)
at large sizes and for XXZ chains by exact diagonalization at small
sizes, evaluates the closed-form predictions, and extracts the central
charge from scan data.
"""

from .analytic import (
    ConformalParams,
    FiniteChainCut,
    HalfInfiniteEnd,
    InfiniteLineInterval,
    conformal_renyi_trace,
    conformal_s1,
    elliptic_K,
    tfim_s1_half,
    tfim_s1_near_critical,
    xx_asymptotic_spectrum,
)
from .entanglement import (
    DistillationBound,
    EntanglementSummary,
    RdmSpectrum,
    distillation_bound,
    many_body_spectrum,
    renyi_ln_trace,
    summary_from_single_particle,
    summary_from_weights,
)
from .exact_diag import (
    GroundStateVector,
    XxzScanPoint,
    XxzSpec,
    rdm_weights,
    xxz_ground_state,
    xxz_scan,
)
from .free_fermion import (
    CorrelationData,
    EntanglementSpectrum,
    FermionModelSpec,
    ground_state_correlations,
    single_particle_energies,
    xx_correlations_infinite,
)
from .scaling import (
    CEstimateSeries,
    ScanPoint,
    extrapolate_c,
    fit_conformal_constants,
    local_c_estimates,
)

__version__ = "0.1.0"
