"""Markov chain analysis through the column-sum generalized inverse.

For an irreducible row-stochastic P with column-sum vector c, the matrix
H = (I - P + e c^T)^{-1} exists and carries the chain's key quantities:
c^T H is the stationary vector, (h_jj - h_ij + delta_ij)/pi_j the mean
first passage times, and 1 - 1/m + tr(H) Kemeny's constant.  The package
computes these, verifies the identity and inequality suite tying them to
the classical fundamental matrix, and scans random ensembles for
column-sum ordering counterexamples.
"""
from .chain import validate
from .report import analyze

__version__ = "0.1.0"

__all__ = ["analyze", "validate", "__version__"]
