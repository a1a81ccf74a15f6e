"""Hypothesis strategies for small random graphs."""

import hypothesis.strategies as st

from densek.graph import Graph


@st.composite
def connected_graphs(
    draw, min_n=2, max_n=10, weighted=False, max_w=5, max_extra=None, weights=None
):
    """Connected graph: random spanning tree plus a random extra edge set.

    max_extra caps the extra edges; a small cap gives sparse graphs. A
    weighted graph draws each edge's weight from weights, a strategy that
    defaults to the integers 0..max_w.
    """
    n = draw(st.integers(min_n, max_n))
    edges = set()
    for v in range(1, n):
        edges.add((draw(st.integers(0, v - 1)), v))
    rest = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if (u, v) not in edges
    ]
    if rest:
        cap = len(rest) if max_extra is None else min(max_extra, len(rest))
        extra = draw(st.lists(st.sampled_from(rest), unique=True, max_size=cap))
        edges.update(extra)
    edge_list = sorted(edges)
    if not weighted:
        return Graph(n, edge_list)
    ws = draw(
        st.lists(
            st.integers(0, max_w) if weights is None else weights,
            min_size=len(edge_list),
            max_size=len(edge_list),
        )
    )
    return Graph(n, edge_list, ws)


@st.composite
def graphs_with_subset(draw, min_n=3, max_n=10):
    """(g, s, j) with s a nonempty proper subset and 1 <= j <= n - |s|."""
    g = draw(connected_graphs(min_n=min_n, max_n=max_n))
    size = draw(st.integers(1, g.n - 1))
    s = tuple(sorted(draw(st.permutations(range(g.n)))[:size]))
    j = draw(st.integers(1, g.n - size))
    return g, s, j


@st.composite
def simple_graphs(draw, min_n=1, max_n=14, weighted=False, max_w=4):
    """Any simple graph, connected or not: each vertex pair an edge or not."""
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [e for e, keep in zip(pairs, draw(
        st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs))
    )) if keep]
    if not weighted:
        return Graph(n, edges)
    ws = draw(
        st.lists(st.integers(0, max_w), min_size=len(edges), max_size=len(edges))
    )
    return Graph(n, edges, ws)
