"""Exact computation of t-connected ideals of finite simple graphs.

Builds the Stanley-Reisner ideal of the t-independence complex of a
graph, computes its combinatorial invariants (matching numbers, minimal
primes, height and big height), computes graded Betti numbers by an
exact homological oracle (Hochster's formula), and verifies the combinatorial formulas
against the oracle on fixtures and random corpora.
"""

from .graphs import (
    ChordalityCertificate,
    Graph,
    GraphParseError,
    SearchSpaceError,
    chordality,
    connected_subsets,
    fixture,
    format_graph,
    graph_from_edges,
    induced_subgraph,
    parse_graph,
    random_chordal,
    simplicial_vertices,
)
from .ideals import (
    CoverStats,
    SquareFreeIdeal,
    t_clique_ideal,
    t_connected_ideal,
)
from .matching import (
    MatchingResult,
    nu_t,
)
from .homology import (
    BettiTable,
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
