"""Exact arithmetic for based rings: formal codegrees, categorification
obstruction batteries, and certified dimension-gap searches.

The heavy integer kernels live in fgap.kernels; everything above them
decides in exact arithmetic (integers, Fractions, quadratic surds,
designated algebraic numbers).
"""

from .errors import (AmbiguityError, DegreeCapError, InvalidInputError,
                     UnsupportedRingError)
from .algnum import (AlgebraicNumber, IntPoly, RatInterval, Surd,
                     conjugate_stats, factor_over_integers, is_d_number,
                     isolate_real_roots, largest_integer_divisor,
                     power_char_poly)
from .fusionring import (CodegreeSpectrum, FusionRing, builtin_ring,
                         codegree_matrix, emit_ring_file, formal_codegrees,
                         fp_dimension_vector, parse_ring_file,
                         rep_g_codegrees, sum_identity_check)
from .obstruct import (ObstructionReport, ffib_fpdim_bound,
                       pseudo_unitary_inequality,
                       spherical_obstruction_report, threshold)
from .gapsearch import (Candidate, SearchConfig, SearchResult, K_of,
                        mainineq_enclosure_pair, mainineq_exact_quadratic,
                        orbit_inequality_exact, search_cubic, search_gap,
                        search_quadratic)

__version__ = "0.1.0"

__all__ = [
    "AlgebraicNumber", "AmbiguityError", "Candidate", "CodegreeSpectrum",
    "DegreeCapError", "FusionRing", "IntPoly", "K_of", "InvalidInputError",
    "ObstructionReport", "RatInterval", "SearchConfig", "SearchResult",
    "Surd", "UnsupportedRingError", "builtin_ring", "codegree_matrix",
    "conjugate_stats", "emit_ring_file", "factor_over_integers",
    "ffib_fpdim_bound", "formal_codegrees", "fp_dimension_vector",
    "is_d_number", "isolate_real_roots", "largest_integer_divisor",
    "mainineq_enclosure_pair", "mainineq_exact_quadratic",
    "orbit_inequality_exact", "parse_ring_file", "power_char_poly",
    "pseudo_unitary_inequality", "rep_g_codegrees", "search_cubic",
    "search_gap", "search_quadratic", "spherical_obstruction_report",
    "sum_identity_check", "threshold",
]
