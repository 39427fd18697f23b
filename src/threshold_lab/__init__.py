"""threshold_lab: exact chromatic-threshold classification and experiments."""

from .errors import (
    Budget,
    BudgetExceededError,
    DomainError,
    GraphFormatError,
    ThresholdLabError,
)
from .graphs import Graph, is_bipartite
from .formats import parse_graph, parse_graph6, write_graph6, parse_edge_list, write_edge_list, write_dot
from .exact import (
    Embedding,
    canonical_form,
    chromatic_number,
    contains_subgraph,
    count_bicliques,
    embed_forest,
    two_density,
)

__all__ = [
    "Budget",
    "BudgetExceededError",
    "DomainError",
    "Embedding",
    "Graph",
    "GraphFormatError",
    "ThresholdLabError",
    "canonical_form",
    "chromatic_number",
    "contains_subgraph",
    "count_bicliques",
    "embed_forest",
    "is_bipartite",
    "parse_edge_list",
    "parse_graph",
    "parse_graph6",
    "two_density",
    "write_dot",
    "write_edge_list",
    "write_graph6",
]
