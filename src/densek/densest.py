"""Exact densest-subgraph computation via parametric minimum cuts.

Feasibility of "is there a subgraph denser than num/den?" reduces to one
max flow on Goldberg's network of n+2 nodes with integer capacities, so the
search stays in exact arithmetic. Dinkelbach iteration raises the threshold
to the density of each witness found; every step strictly increases it, and
the first threshold with no witness is the optimum, certified by that cut.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .graph import Graph, components, density


class FlowNetwork:
    """Dinic max-flow on integer capacities, with residual-side extraction."""

    def __init__(self, n: int):
        self.n = n
        self.head: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add_edge(self, u: int, v: int, capacity: int) -> None:
        if capacity < 0:
            raise ValueError("capacity must be nonnegative")
        self.head[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(capacity)
        self.head[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0)

    def _levels(self, s: int) -> list[int]:
        level = [-1] * self.n
        level[s] = 0
        q = deque([s])
        while q:
            v = q.popleft()
            for e in self.head[v]:
                u = self.to[e]
                if self.cap[e] > 0 and level[u] < 0:
                    level[u] = level[v] + 1
                    q.append(u)
        return level

    def max_flow(self, s: int, t: int) -> int:
        if s == t:
            raise ValueError("source equals sink")
        to, cap, head = self.to, self.cap, self.head
        total = 0
        while True:
            level = self._levels(s)
            if level[t] < 0:
                return total
            it = [0] * self.n
            path: list[int] = []  # edge indices from s to the current vertex
            v = s
            while True:
                if v == t:
                    pushed = min(cap[e] for e in path)
                    for e in path:
                        cap[e] -= pushed
                        cap[e ^ 1] += pushed
                    total += pushed
                    for i, e in enumerate(path):
                        if cap[e] == 0:
                            del path[i:]
                            break
                    v = to[path[-1]] if path else s
                    continue
                advanced = False
                while it[v] < len(head[v]):
                    e = head[v][it[v]]
                    u = to[e]
                    if cap[e] > 0 and level[u] == level[v] + 1:
                        path.append(e)
                        v = u
                        advanced = True
                        break
                    it[v] += 1
                if not advanced:
                    if v == s:
                        break
                    level[v] = -1
                    e = path.pop()
                    v = to[e ^ 1]

    def source_side(self, s: int) -> set[int]:
        """Vertices reachable from s in the residual graph (a min cut side)."""
        seen = {s}
        q = deque([s])
        while q:
            v = q.popleft()
            for e in self.head[v]:
                u = self.to[e]
                if self.cap[e] > 0 and u not in seen:
                    seen.add(u)
                    q.append(u)
        return seen


@dataclass(frozen=True)
class DensestResult:
    subgraph: tuple[int, ...]
    density: Fraction
    connected_variant: tuple[int, ...]


def has_subgraph_denser_than(
    g: Graph, threshold: Fraction | int
) -> tuple[int, ...] | None:
    """A vertex set of density strictly above threshold, or None.

    Goldberg's network on n+2 nodes, for threshold num/den: the source feeds
    every vertex M = den*max(wdeg) + 1, each positive edge uv carries den*w
    both ways, and vertex v drains M + num - den*wdeg(v) to the sink. A cut
    with source side S has capacity M*n + num*|S| - 2*den*w(E(S)), so a max
    flow below M*n leaves a denser set on the source side. Reachability in
    the residual graph picks the smallest such set: the smallest maximizer
    of 2*den*w(E(S)) - num*|S|.
    """
    threshold = Fraction(threshold)
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    num, den = threshold.numerator, threshold.denominator
    wdeg = [g.weighted_degree(v) for v in range(g.n)]
    big = den * max(wdeg, default=0) + 1
    source, sink = g.n, g.n + 1
    net = FlowNetwork(g.n + 2)
    for i, (u, v) in enumerate(g.edges):
        w = g.weights[i] if g.weighted else 1
        if w:
            net.add_edge(u, v, den * w)
            net.add_edge(v, u, den * w)
    for v in range(g.n):
        net.add_edge(source, v, big)
        net.add_edge(v, sink, big + num - den * wdeg[v])
    if net.max_flow(source, sink) >= big * g.n:
        return None
    side = net.source_side(source)
    return tuple(v for v in range(g.n) if v in side)


def densest_subgraph(g: Graph) -> DensestResult:
    """The exact maximum-density vertex set, plus a connected one matching it.

    Dinkelbach iteration: starting from the witness at threshold 0, raise the
    threshold to the witness's own density until no denser set exists; that
    final None certifies optimality. Each witness is the smallest maximizer
    of (d(S) - t)*|S| at a threshold t below the optimum. The last one attains
    the optimum d*, so it is D*, the union of all maximum-density sets:
    those are closed under union, and one strictly containing the witness
    would score (d* - t) times a larger size, beating the witness.

    Every connected component of a maximizer is itself a maximizer, so the
    connected variant (the component holding the smallest vertex) has the
    same density.
    """
    witness = has_subgraph_denser_than(g, 0)
    if witness is None:
        raise ValueError("density maximization undefined at zero edges")
    while True:
        best = density(g, witness)
        found = has_subgraph_denser_than(g, best)
        if found is None:
            break
        witness = found
    connected = components(g, witness)[0]
    return DensestResult(subgraph=witness, density=best, connected_variant=connected)


def densest_connected_subgraph(g: Graph) -> tuple[int, ...]:
    """A connected vertex set attaining the global maximum density."""
    return densest_subgraph(g).connected_variant
