"""Exact arithmetic for based rings: formal codegrees, categorification
obstruction batteries, and certified dimension-gap searches.

The submodules are the API: fgap.fusionring (rings and codegree spectra),
fgap.obstruct (the obstruction battery), fgap.gapsearch (the searches),
fgap.algnum (exact algebraic numbers), fgap.kernels (the integer kernels)
and fgap.cli (the command line).  Only the ring constructors are re-exported
here.
"""

from .fusionring import FusionRing, builtin_ring

__version__ = "0.1.0"

__all__ = ["FusionRing", "builtin_ring"]
