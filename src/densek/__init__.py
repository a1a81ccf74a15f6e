"""densek: find connected k-vertex subgraphs of high density.

Library layout:
  graph       immutable Graph, exact density, attachment/expansion primitives
  densest     exact densest subgraph: nested Dinkelbach flows on Goldberg's network
  algorithms  the approximation suite, its registry and dispatch, the combined selector
  oracle      brute-force exact optima for small instances
  generators  adversarial and random instance families
  cli         the `densek` command line tool
"""

from .algorithms import (
    Solution,
    alg1,
    alg3,
    alg4,
    alg4_base,
    alg5_hub,
    best_connected_k_subgraph,
    highest_degree_vertices,
    prc1,
    prc2,
    run_all_algorithms,
    run_named_algorithm,
    weighted_greedy,
)
from .densest import (
    DensestResult,
    densest_connected_subgraph,
    densest_subgraph,
    has_subgraph_denser_than,
)
from .generators import (
    GapInstance,
    Xorshift64Star,
    example1a,
    example1b,
    gnp,
    load_sidecar,
    planted,
    save_instance,
)
from .graph import (
    EdgeListError,
    Graph,
    components,
    cut_vertices,
    densest_component_after,
    density,
    expand_to_k,
    format_edge_list,
    induced_weight,
    is_connected,
    j_attachment,
    load_edge_list,
    parse_edge_list,
    save_edge_list,
)
from .oracle import OracleLimitError, OracleResult, brute_densest, brute_k

__version__ = "0.1.0"

__all__ = [
    "DensestResult",
    "EdgeListError",
    "GapInstance",
    "Graph",
    "OracleLimitError",
    "OracleResult",
    "Solution",
    "Xorshift64Star",
    "alg1",
    "alg3",
    "alg4",
    "alg4_base",
    "alg5_hub",
    "best_connected_k_subgraph",
    "brute_densest",
    "brute_k",
    "components",
    "cut_vertices",
    "densest_component_after",
    "densest_connected_subgraph",
    "densest_subgraph",
    "density",
    "example1a",
    "example1b",
    "expand_to_k",
    "format_edge_list",
    "gnp",
    "has_subgraph_denser_than",
    "highest_degree_vertices",
    "induced_weight",
    "is_connected",
    "j_attachment",
    "load_edge_list",
    "load_sidecar",
    "parse_edge_list",
    "planted",
    "prc1",
    "prc2",
    "run_all_algorithms",
    "run_named_algorithm",
    "save_edge_list",
    "save_instance",
    "weighted_greedy",
]
