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

from .analytic import *
from .entanglement import *
from .exact_diag import *
from .free_fermion import *
from .scaling import *

__version__ = "0.1.0"
