"""Geodesic path enumeration and geodesic Leech labeling search for small graphs.

A geodesic Leech labeling assigns positive integers to a graph's edges so
that the weights of its geodesic (shortest) paths are exactly 1..t_gp, the
geodesic path number. This package enumerates geodesics, evaluates the
counting and divisibility conditions such labelings must satisfy, and runs
exhaustive pruned searches that either produce a labeling or certify that
none exists within proven bounds.
"""

from .errors import (
    CatalogMissingError,
    ConfigInvalidError,
    DuplicateEdgeError,
    EmptyGraphError,
    FormulaDomainError,
    LabelCountMismatchError,
    LeechLabError,
    NonPositiveLabelError,
    ParseError,
    SelfLoopError,
    TooSmallError,
    UnknownPresetError,
    VertexOutOfRangeError,
)
from .graph import (
    GeodesicCensus,
    GeodesicPath,
    Graph,
    build_graph,
    census,
    count_geodesics,
    distances,
    enumerate_geodesics,
)
from .labeling import ClassificationReport, Labeling, Verdict, classify
from .formulas import (
    BoundArgument,
    FeasibilityResult,
    LabelBound,
    cycle_feasibility,
    edge_transitive_feasibility,
    general_weighted_sum_identity,
    knn_feasibility,
    max_label_bound,
    tgp_complete,
    tgp_cycle,
    tgp_knn,
    tgp_wheel,
)
from .search import (
    CorpusRow,
    Mode,
    SearchConfig,
    SearchOutcome,
    Status,
    census_corpus,
    search,
    search_family_presets,
)

__version__ = "0.1.0"
