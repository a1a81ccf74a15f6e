"""densek: find connected k-vertex subgraphs of high density.

Library layout:
  graph       immutable Graph, exact density, attachment/expansion primitives
  densest     exact densest subgraph: nested Dinkelbach flows on Goldberg's network
  algorithms  the approximation suite, its registry and dispatch, the combined selector
  oracle      brute-force exact optima for small instances
  generators  adversarial and random instance families
  cli         the `densek` command line tool

The top level exports the names the README lists under "Public names"; the
building blocks stay in their submodules.
"""

from .algorithms import (
    Solution,
    alg1,
    alg3,
    alg4,
    alg5_hub,
    best_connected_k_subgraph,
    run_all_algorithms,
    run_named_algorithm,
    weighted_greedy,
)
from .densest import densest_subgraph, has_subgraph_denser_than
from .generators import (
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
    density,
    format_edge_list,
    load_edge_list,
    parse_edge_list,
    save_edge_list,
)
from .oracle import OracleLimitError, brute_densest, brute_k

__all__ = [
    "EdgeListError",
    "Graph",
    "OracleLimitError",
    "Solution",
    "Xorshift64Star",
    "alg1",
    "alg3",
    "alg4",
    "alg5_hub",
    "best_connected_k_subgraph",
    "brute_densest",
    "brute_k",
    "densest_subgraph",
    "density",
    "example1a",
    "example1b",
    "format_edge_list",
    "gnp",
    "has_subgraph_denser_than",
    "load_edge_list",
    "load_sidecar",
    "parse_edge_list",
    "planted",
    "run_all_algorithms",
    "run_named_algorithm",
    "save_edge_list",
    "save_instance",
    "weighted_greedy",
]
