"""Exact computation of t-connected ideals of finite simple graphs.

Builds the Stanley-Reisner ideal of the t-independence complex of a
graph, computes its combinatorial invariants (matching numbers, minimal
primes, height and big height), computes graded Betti numbers by a
brute-force homological oracle, and verifies the combinatorial formulas
against the oracle on fixtures and random corpora.
"""

from .graphs import (
    ChordalityCertificate,
    Graph,
    GraphParseError,
    chordality,
    components,
    connected_subsets,
    disjoint_union,
    fixture,
    format_graph,
    graph_from_edges,
    induced_subgraph,
    is_connected_subset,
    neighborhood,
    parse_graph,
    random_chordal,
    random_graph,
    relabel,
    simplicial_vertices,
)
from .ideals import (
    CoverStats,
    SquareFreeIdeal,
    minimalize,
    t_clique_ideal,
    t_connected_ideal,
    variables_ideal,
)
from .matching import (
    MatchingResult,
    SearchSpaceError,
    hypergraph_induced_matching,
    hypergraph_induced_matching_number,
    is_t_induced_matching,
    nu_t,
)
from .homology import (
    BettiTable,
    FaceComplex,
    Field,
    GF2,
    GF3,
    QQ,
    HomologicalInvariants,
    HomologyAuditError,
    ResourceLimitError,
    audit_stats,
    betti_table_ideal,
    homological_invariants,
    reduced_homology_dims,
    reset_audit_stats,
    restricted_complex,
)
from .decomposition import (
    DecompositionLedger,
    DecompositionReport,
    FIG1_X5_T4_WORKED_ORDER,
    a_x_list,
    b_sets,
    ledger,
    verify_dominating_intersections,
    verify_identities,
)
from .harness import (
    CorpusConfig,
    CorpusReport,
    Predictions,
    VerificationReport,
    batch_verify,
    predict,
    verify_graph,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
