"""Exact-arithmetic toolkit for the geometry of rank-2 logarithmic
connections on the projective line minus four points.

Everything is computed over Q: normal forms and their residue matrices,
quasiparabolic structures and their stability zones, scaling limits to
Higgs bundles, the birational symmetry group, the Picard lattice of the
natural compactification, and middle-convolution exponent calculus.
"""

__version__ = "0.1.0"
