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

import importlib as _importlib

__version__ = "0.1.0"

# each submodule's __all__; the package exports these names too and imports a submodule
# only when one of its names, or the submodule itself, is first looked up
_EXPORTS = {
    "analytic": "InfiniteLineInterval HalfInfiniteEnd FiniteChainCut Geometry conformal_s1 "
    "conformal_renyi_trace xx_asymptotic_spectrum elliptic_K tfim_s1_half tfim_s1_near_critical",
    "entanglement": "EntanglementSummary RdmSpectrum DistillationBound renyi_ln_trace "
    "summary_from_single_particle summary_from_weights many_body_spectrum distillation_bound",
    "exact_diag": "XxzSpec GroundStateVector XxzScanPoint xxz_ground_state rdm_weights xxz_scan",
    "free_fermion": "OCCUPATION_FLOOR EPS_CAP ZERO_MODE_TOL FermionModelSpec CorrelationData "
    "EntanglementSpectrum xx_correlations_infinite xx_interval_spectrum "
    "ground_state_correlations tfim_block_spectrum single_particle_energies",
    "scaling": "ScanPoint CEstimateSeries local_c_estimates extrapolate_c fit_conformal_constants",
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = [*_EXPORTS, *_SOURCE]


def __getattr__(name):
    if name in _EXPORTS or name == "cli":
        return _importlib.import_module(f"{__name__}.{name}")
    if name in _SOURCE:
        return getattr(_importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
