"""Words over finite alphabets analyzed with respect to an involutive
antimorphism: generalized palindromic defect, complexity gaps, Rauzy-graph
criteria, return words, closure-based generators and richness decompositions.
"""

__version__ = "0.1.0"

from .core import (
    Alphabet,
    Antimorphism,
    InputError,
    Morphism,
    PreconditionError,
    Word,
    gamma,
    occurrences,
)
from .palindromes import (
    DefectProfile,
    PalIndex,
    defect,
    defect_profile,
    theta_pal_closure,
)
from .complexity import (
    ComplexityTable,
    check_inequality2,
    closed_under_theta,
    complexity_table,
    is_rich_by_T,
)
from .rauzy import (
    SuperReducedRauzyGraph,
    build_graph,
    check_proposition1,
    special_factors,
)
from .returns import (
    crw_palindromicity_scan,
    mirror_bounded_palindromicity,
    return_structure,
    unioccurrent_lps_scan,
)
from .generators import (
    ClosureSource,
    DirectiveSequence,
    PeriodicSource,
    ThueMorseSource,
    arnoux_rauzy_check,
    episturmian_source,
    fibonacci_source,
    tribonacci_source,
)
from .decompose import (
    DecomposeError,
    ReturnWordCoding,
    SimplePathCoding,
    richness_conditions_check,
    theorem1_decompose,
    theorem2_decompose,
    theorem3_pipeline,
    verify_eq3,
    verify_eq4,
)
