"""Sparse product constructions and certified emptiness checking for NFA
intersections.

The package builds five product automata for the intersection of k NFA
(direct, nodding, echoing, catch-up, leapfrog), decides intersection
emptiness on a level-by-level closure of the sparsest of them, certifies
either answer (short pathsets for non-emptiness, staggered cuts for
emptiness, whose closure the verifier checks as the boolean matrix product
``Out . Δ <= In`` on packed tuple sets), and generates hard instances via
the clique reduction.  See README.md for a tour.
"""

from .automata import (
    EPSILON,
    EpsilonNfa,
    InstanceBundle,
    Nfa,
    RunViolation,
    accepts,
    adjacency_matrix,
    epsilon_accepts,
    is_deterministic,
    run_is_accepting,
    validate_run,
)
from .boolmatrix import BoolMatrix
from .certificates import (
    InOutMatrices,
    ShortPathset,
    StaggeredCut,
    Verdict,
    build_in_out,
    extract_short_pathset,
    extract_staggered_cut,
    parse_certificate,
    serialize_certificate,
    verify_short_pathset,
    verify_staggered_cut,
    verify_staggered_cut_naive,
)
from .decision import Decision, decide_direct_baseline, decide_empty, witness_word
from .fileformat import (
    FormatError,
    parse_automaton,
    parse_bundle,
    serialize_automaton,
    serialize_bundle,
)
from .hardness import (
    UndirectedGraph,
    brute_force_has_clique,
    clique_bundle,
    clique_to_dfas,
    random_bundle,
    random_graph,
    random_nfa,
)
from .oracle import (
    bounded_intersection_witness,
    check_interleaving_identity,
    interleave,
    k_stuttering,
    restriction,
)
from .products import (
    CONSTRUCTIONS,
    BudgetExceeded,
    SparsityStats,
    accessible_part,
    accessible_stats,
    m_leq_k,
)
from .relations import (
    MultiTapeAutomaton,
    decide_rs,
    equality_relation,
    ie_to_rs,
    multitape_accepts,
    rs_to_ie,
)

__version__ = "0.1.0"
