"""S-fence posets, their filter lattices, and the associated counting
polynomials, with census, recurrence, closed-form and generating-function
routes that can all be cross-checked against each other."""

from .census import (
    cube_polynomial,
    degree_polynomial,
    generic_cube_count,
    indegree_polynomial,
    maximal_cube_polynomial,
    outdegree_polynomial,
    poset_census,
    rank_polynomial,
)
from .errors import CapacityError
from .formulas import (
    binom,
    coeff_by_recurrence,
    d_coeff,
    dm_coeff,
    fib,
    h_coeff,
    padovan133,
    q_coeff,
    r_coeff,
    trinomial,
)
from .genfun import ALL_SERIES, RationalSeries
from .lattice import (
    Interval,
    LatticeDiagram,
    convex_expansion,
    deletion_cutting,
    filter_lattice,
    interval_diagram,
    is_cutting,
    join_irreducibles,
    to_dot,
    underlying_graph,
)
from .polynomials import IntPoly
from .poset import Poset, fence, poset_from_text, sfence
from .verify import VerificationReport, run_verification

__version__ = "0.1.0"
