"""quandelier: finite quandles, their coverings, fundamental groups,
and second (co)homology."""

from .errors import (BudgetExceeded, EmptyUnion, InfiniteGroup, NotACocycle,
                     NotAHomomorphism, NotAQuandle, NotRightInvertible,
                     ParseError, QuandelierError)
from .quandle import (FiniteQuandle, QuandleHom, alexander, conj_class,
                      core, dihedral, is_covering, pullback, q_mn, trivial,
                      union_coverings, validate)
from .fundamental import (enumerate_connected_coverings, fundamental_group,
                          monodromy, universal_cover)
from .cohomology import (Coeff, Extension, are_cohomologous,
                         are_equivalent_extensions, cocycle_from_extension,
                         extension_from_cocycle, h2_integral,
                         h2_with_coefficients, is_cocycle)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded", "EmptyUnion", "InfiniteGroup", "NotACocycle",
    "NotAHomomorphism", "NotAQuandle", "NotRightInvertible", "ParseError",
    "QuandelierError",
    "FiniteQuandle", "QuandleHom", "alexander", "conj_class", "core",
    "dihedral", "is_covering", "pullback", "q_mn", "trivial",
    "union_coverings", "validate",
    "enumerate_connected_coverings", "fundamental_group", "monodromy",
    "universal_cover",
    "Coeff", "Extension", "are_cohomologous",
    "are_equivalent_extensions", "cocycle_from_extension",
    "extension_from_cocycle", "h2_integral", "h2_with_coefficients",
    "is_cocycle",
]
