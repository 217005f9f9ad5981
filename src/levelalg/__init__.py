"""Exact h-vector computations for level module quotients.

Modules of homogeneous forms in dual variables, their graded dimensions,
random generic quotients, and sharp entrywise lower bounds for quotient
h-vectors, all over GF(p) or the rationals with no floating point.

Names are imported from their submodules (fields, linalg, polynomials,
combinatorics, modules, bounds, families, manifest, cli); the root holds
only `__version__`, so a submodule loads only what it needs.
"""

__version__ = "0.1.0"
