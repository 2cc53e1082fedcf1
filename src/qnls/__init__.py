"""Numerical laboratory for quadratic Schrodinger interactions on the half-line.

Subpackage map: `grids` (sampled signals and fields, CSV tables),
`fractional` (Riemann-Liouville operators on sampled signals), `spectral`
(free group, Duhamel integral, Bourgain-type norms, cutoffs), `dispersion`
(resonance functions and lower bounds, regime/region classification, the
small ball and its edges, the regularity-region predicate, quadruple
sampling), `quadrature` (batched adaptive panels with tail completion),
`bilinear` (J-integral quadrature and bilinear norm ratios), `boundary`
(Duhamel boundary forcing operator class), `ibvp` (Crank-Nicolson half-line
solver, mass ledger, contraction map), `profiles` (stock data profiles),
`errors` (the package's exceptions), `cli` (seeded experiment runner).
"""

__version__ = "0.1.0"

from .grids import GridFunction, SpaceTimeField, TimeSeries

__all__ = ["GridFunction", "SpaceTimeField", "TimeSeries", "__version__"]
