"""Exact-arithmetic toolkit for diagonal flows on SL_n lattice quotients.

Everything here computes over exact scalars: rationals, quadratic field
elements a + b*sqrt(d), and log-affine values q + sum(e_k * log(nu_k)).
There is no floating-point tolerance anywhere in a decision path; floats
appear only in convenience output fields.

Callers import modules (`from cuspwatch import radicals`); the package
binds no function or class of its own. Importing it loads every module
whose functions perfbench's tracer wraps, `lp` through `bordered`, the one
module that builds an LP.
"""

__version__ = "0.1.0"

from . import (bordered, bruhat, chars, cover, divergence, errors, lattice, loglin,
               matrix, radicals, scalars, sl4q, wedge)
