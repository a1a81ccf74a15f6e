"""Exact densest-subgraph computation via parametric minimum cuts.

Feasibility of "is there a subgraph denser than num/den?" reduces to one
max flow on Goldberg's network of n+2 nodes with integer capacities, so the
search stays in exact arithmetic. No big constant M is needed: each vertex
has only the part of its source or sink arc that is left once its direct
source-vertex-sink path is saturated. Before Dinic runs, flow is also
routed greedily from vertices with excess to vertices with deficit, first
over one edge and then over two, through any middle vertex. That starting
flow does not change the answer: every maximum flow leaves the same set of
nodes reachable from the source, the source side of the smallest minimum
cut, so the routing only spares Dinic augmenting paths. Dinkelbach
iteration raises the threshold to the density of each witness found; every
step strictly increases it, and the first threshold with no witness is the
optimum, certified by that cut. The smallest maximizer of 2*w(E(S)) - t*|S|
shrinks as t rises (2*w(E(S)) is supermodular), so each flow runs only on
the previous witness.

The first witness needs no flow. It is the set R left once removable
vertices are deleted, the least weighted degree first, ties to the smaller
id: v is removable from S when d_S(v)*|S| < w(S), the rule alg1 peels by.
Each deletion strictly raises the density, so a vertex deleted from S had
d_S(v) < density(S)/2 <= t/2 for every t >= density(R). Take a maximizer M
of 2*w(E(S)) - t*|S| at such a t, and the first deleted vertex v in it: M
lies in the S that v was deleted from, so dropping v from M changes the
score by t - 2*d_M(v) > 0. No maximizer contains a deleted vertex, so every
maximizer at the first threshold, density(R), lies in R, and D* does too.
When R is already densest, the one flow finds nothing and certifies R = D*;
on sparse gnp graphs that is the common case.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import repeat
from typing import Iterable

from .graph import Graph, _bfs, _member_set, _weighted_degrees, density


def _residual_source_side(
    head: list[list[int]], to: list[int], cap: list[int], s: int, t: int
) -> list[int]:
    """Dinic max flow from s to t; returns the residual reachability levels.

    cap is consumed as the residual capacity; arcs come in pairs e, e ^ 1.
    The returned list has level >= 0 exactly on the nodes reachable from s
    in the final residual graph, the smallest min-cut source side.
    """
    size = len(head)
    while True:
        level = [-1] * size
        level[s] = 0
        queue = [s]
        for v in queue:
            nxt = level[v] + 1
            for e in head[v]:
                u = to[e]
                if cap[e] and level[u] < 0:
                    level[u] = nxt
                    queue.append(u)
            # Nodes still unlabelled lie at t's level or beyond, off every
            # shortest augmenting path, so this phase needs no more levels.
            if level[t] >= 0:
                break
        else:
            return level
        it = [0] * size
        path: list[int] = []  # arcs from s to the current node
        v = s
        while True:
            if v == t:
                pushed = min(map(cap.__getitem__, path))
                for e in path:
                    cap[e] -= pushed
                    cap[e ^ 1] += pushed
                for i, e in enumerate(path):
                    if not cap[e]:
                        del path[i:]
                        break
                v = to[path[-1]] if path else s
                continue
            arcs = head[v]
            bound = len(arcs)
            nxt = level[v] + 1
            i = it[v]
            while i < bound:
                e = arcs[i]
                if cap[e] and level[to[e]] == nxt:
                    break
                i += 1
            it[v] = i
            if i < bound:
                path.append(e)
                v = to[e]
            elif v == s:
                break
            else:
                level[v] = -1
                v = to[path.pop() ^ 1]


@dataclass(frozen=True)
class DensestResult:
    subgraph: tuple[int, ...]
    density: Fraction
    connected_variant: tuple[int, ...]


def has_subgraph_denser_than(
    g: Graph, threshold: Fraction | int, within: Iterable[int] | None = None
) -> tuple[int, ...] | None:
    """A vertex set of density strictly above threshold, or None.

    Searches g[within] (default: all of g). Goldberg's network for threshold
    num/den without M, on the graph's own ids: nodes 0..n-1 are the
    vertices, n is the source and n+1 the sink, and only the view's members
    get arcs. Each positive edge uv of the view carries den*w both ways, and
    vertex v, of induced weighted degree wdeg(v), gets a source arc of
    capacity den*wdeg(v) - num when that is positive, else a sink arc of
    num - den*wdeg(v). A cut with source side S costs (sum of source arcs)
    + num*|S| - 2*den*w(E(S)), so a max flow below the source arcs' sum
    leaves a denser set on the source side. Reachability in the residual
    graph picks the smallest such set: the smallest maximizer of
    2*den*w(E(S)) - num*|S|.

    Two pre-saturations give Dinic a flow to start from: each excess vertex
    i sends what it can straight to deficit neighbours j, over source-i-j-
    sink, and then through one middle vertex x, over source-i-x-j-sink,
    with the reverse arcs credited so that Dinic can undo any of it. The
    set reachable from the source in the residual graph of a maximum flow
    is the same for every maximum flow, so the side returned does not
    depend on the flow the network starts from.

    As 2*w(E(S)) is supermodular, every maximizer at a higher threshold
    lies inside that set, so a search at a higher threshold within it
    returns what a search on all of g would.

    The threshold is a plain int or a Fraction; anything else, a float or a
    bool included, raises ValueError before the network is built.
    """
    # Fraction() would also take 1.4, "7/5" or True.
    if type(threshold) is not int and not isinstance(threshold, Fraction):
        raise ValueError(f"threshold {threshold!r} is not an int or a Fraction")
    threshold = Fraction(threshold)
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    num, den = threshold.numerator, threshold.denominator
    members = _member_set(g, within)
    source, sink = g.n, g.n + 1
    head: list[list[int]] = [[] for _ in range(g.n + 2)]
    to: list[int] = []
    cap: list[int] = []
    wdeg = [0] * g.n
    for (u, v), w in zip(g.edges, g.weights or repeat(1)):
        if w and u in members and v in members:
            head[u].append(len(to))
            head[v].append(len(to) + 1)
            to += (v, u)
            cap += (den * w, den * w)
            wdeg[u] += w
            wdeg[v] += w
    # Each vertex's direct source-v-sink path is saturated up front, leaving
    # its excess as a source arc (positive) or a sink arc (negative); so is
    # each source-i-j-sink path through one edge from an excess to a
    # deficit, and then each source-i-x-j-sink path through two.
    excess = [den * d - num for d in wdeg]
    for e in range(0, len(to), 2):
        j, i = to[e], to[e + 1]
        if excess[j] > 0 > excess[i]:
            i, j, e = j, i, e + 1
        elif not excess[i] > 0 > excess[j]:
            continue
        f = min(excess[i], -excess[j], cap[e])
        cap[e] -= f
        cap[e ^ 1] += f
        excess[i] -= f
        excess[j] += f
    # An arc x-j is passed over once it is full or j has no deficit left,
    # and x's scan resumes at spent[x], so the loop reads each arc about
    # once. A passed arc that later regains capacity is left to Dinic.
    spent = [0] * g.n
    for i in members:
        if excess[i] <= 0:
            continue
        for e in head[i]:
            if not cap[e]:
                continue
            mid = to[e]
            row = head[mid]
            p, bound = spent[mid], len(row)
            while p < bound:
                e2 = row[p]
                j = to[e2]
                if excess[j] < 0 and cap[e2]:
                    f = min(excess[i], -excess[j], cap[e], cap[e2])
                    cap[e] -= f
                    cap[e ^ 1] += f
                    cap[e2] -= f
                    cap[e2 ^ 1] += f
                    excess[i] -= f
                    excess[j] += f
                    if not excess[j] or not cap[e2]:
                        p += 1
                    if not excess[i] or not cap[e]:
                        break
                else:
                    p += 1
            spent[mid] = p
            if not excess[i]:
                break
    for i in members:
        x = excess[i]
        if x > 0:
            head[source].append(len(to))
            head[i].append(len(to) + 1)
            to += (i, source)
            cap += (x, 0)
        elif x < 0:
            head[i].append(len(to))
            head[sink].append(len(to) + 1)
            to += (sink, i)
            cap += (-x, 0)
    level = _residual_source_side(head, to, cap, source, sink)
    # The side holds a vertex iff the max flow is below the source arcs' sum.
    side = tuple(v for v in range(g.n) if level[v] >= 0)
    return side or None


def densest_subgraph(g: Graph) -> DensestResult:
    """The exact maximum-density vertex set, plus a connected one matching it.

    The start is the set R left once removable vertices, those of weighted
    degree d with d*|S| < w(S), are deleted, the least degree first and
    ties to the smaller id, until none is left; the module docstring proves
    that every maximizer at threshold density(R) lies in R.

    Dinkelbach iteration from there: raise the threshold to the witness's
    own density until no denser set exists; that final None certifies
    optimality. Each later witness is the smallest maximizer of
    (d(S) - t)*|S| at a threshold t below the optimum, and every maximizer
    at a higher threshold lies inside it, so the next search runs within
    it. The last witness attains the optimum d*, so it is D*, the union of
    all maximum-density sets: those are closed under union, each maximizes
    the score at t = d*, so lies in the witness, and the witness is one of
    them. When R is already densest, the first flow finds nothing and R is
    D*.

    Every connected component of a maximizer is itself a maximizer, so the
    connected variant (the component holding the smallest vertex) has the
    same density.
    """
    deg = {v: d for v, d in enumerate(_weighted_degrees(g)) if d}
    if not deg:
        raise ValueError("density maximization undefined at zero edges")
    # v is removable iff deleting it strictly raises the density:
    # 2(W - d(v))/(s - 1) > 2W/s  <=>  d(v) * s < W. The heap keeps one
    # entry per degree a vertex had; one that is no longer current is stale.
    size, weight = len(deg), sum(deg.values()) // 2
    adj, weight_of = g._adj, g._weight_of
    heap = [(d, v) for v, d in deg.items()]
    heapify(heap)
    while heap:
        d, v = heappop(heap)
        if deg.get(v) != d:
            continue
        if d * size >= weight:
            break
        del deg[v]
        size -= 1
        weight -= d
        for u in adj[v]:
            if u in deg and (w := weight_of[(u, v) if u < v else (v, u)]):
                deg[u] -= w
                heappush(heap, (deg[u], u))
    witness, best = tuple(sorted(deg)), Fraction(2 * weight, size)
    while (found := has_subgraph_denser_than(g, best, within=witness)) is not None:
        witness, best = found, density(g, found)
    connected = tuple(sorted(_bfs(g, {witness[0]}, set(witness))))
    return DensestResult(subgraph=witness, density=best, connected_variant=connected)
