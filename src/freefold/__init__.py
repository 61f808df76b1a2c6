"""freefold: exact free-group computation and construction certificates.

The package splits along what the objects are:

* :mod:`freefold.words` - reduced words, conjugacy, roots, centralizers
* :mod:`freefold.graphs` - folded subgroup graphs, membership, bases
* :mod:`freefold.whitehead` - Whitehead moves, primitivity, basis extension
* :mod:`freefold.abelian` - exponent vectors, the abelian obstruction (no Smith normal form)
* :mod:`freefold.cosets` - conjugacy/coset equivalence relations, double cosets
* :mod:`freefold.chain` - the glued-surface witness groups and their checks
* :mod:`freefold.cli` - the ``freefold`` command
"""

from .abelian import exponent_vector, is_basis_extendable_abelian
from .chain import (
    SurfaceChain,
    SurfaceRewrite,
    VerificationReport,
    build_chain,
    cross_conjugacy_scan,
    dehn_twist_family,
    explicit_flag_decomposition,
    orbit_distinct_check,
    run_checks,
    surface_rewrite,
    verify_free_factor_chain,
    verify_not_decomposable,
    verify_relation_chain,
    verify_surface_rewrite,
)
from .cosets import CosetAutomaton, double_coset_member, e0, e1, e2, e3
from .graphs import (
    SubgroupGraph,
    fold_subgroup,
    is_basis_of_ambient,
)
from .whitehead import (
    Automorphism,
    BudgetExhausted,
    extends_to_basis,
    is_primitive,
    minimize_tuple,
)
from .words import (
    Alphabet,
    AlphabetMismatch,
    CyclicWord,
    DegenerateInput,
    Word,
    WordSyntaxError,
    centralizer_equal,
    commutator,
    conjugate,
    cyclic_canonical,
    cyclic_normal_form,
    format_word,
    invert,
    is_conjugate,
    multiply,
    parse_word,
    root,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
