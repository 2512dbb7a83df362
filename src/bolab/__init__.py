"""bolab: a desk-scale numerical laboratory for a quadratic nonlocal
dispersive wave equation, measuring how localized solutions decay in space.

Modules: the config schema and artifact writers every layer shares (files),
spectral discretization (grid, cutoffs, spectral), the normal-form
correction B_k as paraproducts on the frequency lattice (pseudoproduct),
time evolution (solver), the approximate-gauge transformation and its
residual verifier (normal_form), localized propagator kernels (kernels), the
decay-measurement harness (decay), and the random fields and verification
measurements shared by the acceptance tests and the verify commands
(testing).  The command-line front end (cli) imports them, and no module
imports it.  The oracles that only the tests evaluate, the dense lattice
sum of a bilinear symbol among them, are not part of the package: they
live in ``tests/oracles.py``.
"""

__version__ = "0.1.0"

from .grid import ComplexField, Field, Grid

__all__ = ["ComplexField", "Field", "Grid", "__version__"]
