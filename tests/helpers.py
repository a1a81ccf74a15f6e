"""Shared graph builders and seeded corpora for the test suite."""

import sys
from collections import deque
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations
from types import CodeType

import pytest

import densek.algorithms
from densek.algorithms import Solution, prc1, prc2
from densek.densest import DensestResult
from densek.generators import Xorshift64Star, gnp
from densek.graph import (
    Graph,
    components,
    cut_vertices,
    densest_component_after,
    density,
    expand_to_k,
    induced_weight,
)
from densek.oracle import brute_k


@contextmanager
def recording():
    """Subscribe to densek.algorithms.trace for the block; yields the list
    of (event, fields) pairs it receives, in emit order."""
    events = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            densek.algorithms,
            "trace",
            lambda event, **fields: events.append((event, fields)),
        )
        yield events


def code_objects(function):
    """function's code object and every one nested in it, comprehensions
    included: CPython before 3.12 runs a comprehension in a frame of its
    own."""
    codes = [function.__code__]
    for code in codes:
        codes += [c for c in code.co_consts if isinstance(c, CodeType)]
    return codes


def count_lines(codes, run):
    """Call run() and return the "line" events that frames of each code
    object in codes fire, as a dict in codes' order. A line count is exact
    on every machine, so a cost gate built on it needs no clock margin."""
    lines = dict.fromkeys(codes, 0)

    def count(frame, event, arg):
        if event == "line":
            lines[frame.f_code] += 1
        return count

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: count if frame.f_code in lines else None)
    try:
        run()
    finally:
        sys.settrace(previous)
    return lines


def fields_of(events, name):
    """The fields of every event called name, in emit order."""
    return [fields for event, fields in events if event == name]


def peel_log(events):
    """alg1's peel events as one density list per peeling phase, the shape
    alg1_reference's density_log takes."""
    log = []
    for event, fields in events:
        if event == "peel_phase":
            log.append([fields["density"]])
        elif event == "peel":
            log[-1].append(fields["density"])
    return log


def expand_log(events):
    """The expand events as (seed, out) pairs, the shape alg5_hub_reference's
    expansion_log takes."""
    return [(f["seed"], f["out"]) for f in fields_of(events, "expand")]


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n, weight=None):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if weight is None:
        return Graph(n, edges)
    return Graph(n, edges, [weight] * len(edges))


def star(leaves):
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def k4p():
    """K4 on {0,1,2,3} plus the pendant edge 3-4."""
    return Graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)])


def two_triangles_bridged():
    """Triangles {0,1,2} and {3,4,5} joined by the edge 2-3."""
    return Graph(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)])


def two_triangles_path3():
    """Triangles {0,1,2} and {5,6,7} joined by the path 2-3-4-5."""
    return Graph(
        8,
        [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (5, 7), (6, 7)],
    )


def triangles_through_cut():
    """Triangles {0,1,2} and {4,5,6} joined through vertex 3."""
    return Graph(
        7,
        [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (4, 6), (5, 6)],
    )


def barbell(clique, path_len):
    """Two cliques joined by a path with path_len edges; triggers prc2."""
    edges = []
    for u in range(clique):
        for v in range(u + 1, clique):
            edges.append((u, v))
            edges.append((clique + u, clique + v))
    inner = list(range(2 * clique, 2 * clique + path_len - 1))
    chain = [0] + inner + [clique]
    edges += [(min(a, b), max(a, b)) for a, b in zip(chain, chain[1:])]
    return Graph(2 * clique + path_len - 1, edges)


def hairy_clique(core, side):
    """K_core on 0..core-1; core vertex i carries the guard core + i, of
    degree 2, which holds a pendant K_side. The guards are the removable
    vertices, each a cut vertex in front of its K_side; triggers prc2 with a
    seed to prune."""
    edges = [(u, v) for u in range(core) for v in range(u + 1, core)]
    for i in range(core):
        guard = core + i
        first = 2 * core + i * side
        clique = range(first, first + side)
        edges += [(i, guard), (guard, first)]
        edges += [(u, v) for u in clique for v in clique if u < v]
    return Graph(2 * core + core * side, edges)


def clique_with_paths(core, length):
    """K_core on 0..core-1; core vertex i carries a pendant path of length
    vertices, on ids core + i * length onward."""
    edges = [(u, v) for u in range(core) for v in range(u + 1, core)]
    for i in range(core):
        first = core + i * length
        path = [i, *range(first, first + length)]
        edges += zip(path, path[1:])
    return Graph(core + core * length, edges)


def clique_chain(sizes):
    """Cliques of the given sizes on consecutive ids, in a path: a bridge
    joins the last vertex of each clique to the first of the next."""
    edges = []
    first = 0
    for size in sizes:
        if first:
            edges.append((first - 1, first))
        clique = range(first, first + size)
        edges += [(u, v) for u in clique for v in clique if u < v]
        first += size
    return Graph(first, edges)


def bridged(a, b, inner):
    """a and a copy of b on ids a.n.., joined by a path with inner vertices
    from vertex 0 of a to the copy of vertex 0 of b."""
    edges = list(a.edges) + [(u + a.n, v + a.n) for u, v in b.edges]
    chain = [0] + list(range(a.n + b.n, a.n + b.n + inner)) + [a.n]
    edges += [(min(x, y), max(x, y)) for x, y in zip(chain, chain[1:])]
    return Graph(a.n + b.n + inner, edges)


def connected_corpus(count, max_n, seed0, min_n=5):
    """Deterministic list of connected graphs with n <= max_n."""
    out = []
    seed = seed0
    rng_ps = (0.2, 0.3, 0.45, 0.6, 0.8)
    while len(out) < count:
        rng = Xorshift64Star(seed)
        n = min_n + rng.next_below(max_n - min_n + 1)
        p = rng_ps[rng.next_below(len(rng_ps))]
        seed += 1
        try:
            g = gnp(n, p, seed0 + 7919 * seed)
        except ValueError:
            continue
        if g.n >= min_n:
            out.append(g)
    return out


def gnp_reference(n, p, seed):
    """gnp as one bernoulli call per pair, the loop the batch draw replaced.
    Expects valid input; returns the same Graph gnp does."""
    rng = Xorshift64Star(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.bernoulli(p)]
    graph = Graph(n, edges)
    keep = max(components(graph), key=len)
    if len(keep) == n:
        return graph
    relabel = {v: i for i, v in enumerate(keep)}
    return Graph(len(keep), [
        (relabel[u], relabel[v]) for u, v in edges if u in relabel and v in relabel
    ])


def planted_reference(n, k, p_in, p_out, seed):
    """planted's graph as one bernoulli call per pair, with p_in exactly
    when v < k. Expects valid input."""
    rng = Xorshift64Star(seed)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.bernoulli(p_in if v < k else p_out):
                edges.append((u, v))
    comps = components(Graph(n, edges))
    edges += [(left[0], right[0]) for left, right in zip(comps, comps[1:])]
    return Graph(n, edges)


def weighted_version(g, seed, max_w=5):
    """Same edges as g with deterministic weights in 0..max_w."""
    rng = Xorshift64Star(seed)
    return Graph(g.n, list(g.edges), [rng.next_below(max_w + 1) for _ in g.edges])


def twice(g):
    """Disjoint union of g with a copy of itself on ids n..2n-1."""
    edges = list(g.edges) + [(u + g.n, v + g.n) for u, v in g.edges]
    return Graph(2 * g.n, edges, None if g.weights is None else g.weights * 2)


def densest_union(g):
    """D*, the union of every maximum-density vertex set, by enumeration."""
    best, union = None, set()
    for size in range(1, g.n + 1):
        for s in combinations(range(g.n), size):
            d = density(g, s)
            if best is None or d > best:
                best, union = d, set(s)
            elif d == best:
                union.update(s)
    return tuple(sorted(union))


def count_edges_between(g, a, b):
    """Number of edges with one end in a and the other in b (disjoint sets)."""
    aset, bset = set(a), set(b)
    if aset & bset:
        raise ValueError("edge boundary requires disjoint sets")
    return sum(1 for v in aset for u in g.neighbors(v) if u in bset)


def is_removable(g, v, within=None):
    """True iff deleting v strictly raises the density, i.e. d(v) < sigma/2.

    Both sides are compared by integer cross-multiplication:
    d(v) * |V| < w(E), using weighted degrees on weighted graphs.
    """
    members = set(range(g.n)) if within is None else set(within)
    if v not in members:
        raise ValueError(f"vertex {v} not in the graph")
    if len(members) < 2:
        raise ValueError("removability needs at least two vertices")
    deg = sum(g.edge_weight(v, u) for u in g.neighbors(v) if u in members)
    total = sum(g.edge_weight(a, b) for a, b in g.edges if a in members and b in members)
    return deg * len(members) < total


def walk2_counts(g, excluded=()):
    """Two-step walk counts between distinct vertex pairs, midpoints included.

    All three vertices of each counted walk must survive the exclusion.
    Keys are (u, v) with u < v; absent keys mean zero walks.
    """
    banned = set(excluded)
    counts = {}
    for mid in range(g.n):
        if mid in banned:
            continue
        around = [u for u in g.neighbors(mid) if u not in banned]
        for i, u in enumerate(around):
            for v in around[i + 1 :]:
                counts[(u, v)] = counts.get((u, v), 0) + 1
    return counts


def gap_ratio(g, k, limit=None):
    """Exact ratio between unconstrained and connected optimal k-densities."""
    unconstrained = brute_k(g, k, connected=False, limit=limit)
    connected = brute_k(g, k, connected=True, limit=limit)
    if connected.best_density == 0:
        raise ValueError("connected optimum has zero density; ratio undefined")
    return unconstrained.best_density / connected.best_density


class FlowNetwork:
    """Dinic max-flow on integer capacities, with residual-side extraction.

    The flow network that has_subgraph_denser_than_reference builds on,
    kept verbatim as the reference for the flow in densek.densest.
    """

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


def has_subgraph_denser_than_reference(g, threshold):
    """has_subgraph_denser_than on the whole graph, on the network with M.

    Goldberg's network on n+2 nodes, for threshold num/den: the source feeds
    every vertex M = den*max(wdeg) + 1, each positive edge uv carries den*w
    both ways, and vertex v drains M + num - den*wdeg(v) to the sink.
    """
    threshold = Fraction(threshold)
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    num, den = threshold.numerator, threshold.denominator
    wdeg = [sum(g.edge_weight(v, u) for u in g.neighbors(v)) for v in range(g.n)]
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


def densest_subgraph_reference(g):
    """densest_subgraph's Dinkelbach loop with a whole-graph flow per step,
    the threshold-0 one included."""
    witness = has_subgraph_denser_than_reference(g, 0)
    if witness is None:
        raise ValueError("density maximization undefined at zero edges")
    while True:
        best = density(g, witness)
        found = has_subgraph_denser_than_reference(g, best)
        if found is None:
            break
        witness = found
    connected = components(g, witness)[0]
    return DensestResult(subgraph=witness, density=best, connected_variant=connected)


def induced(g, s):
    """g[s] relabelled onto 0..|s|-1 in ascending id order, plus the ids."""
    ids = sorted(s)
    local = {v: i for i, v in enumerate(ids)}
    edges, weights = [], []
    for idx, (u, v) in enumerate(g.edges):
        if u in local and v in local:
            edges.append((local[u], local[v]))
            weights.append(g.weights[idx] if g.weighted else 1)
    return Graph(len(ids), edges, weights if g.weighted else None), ids


def alg1_reference(g, k, density_log=None):
    """alg1's peel loop as it was with a full articulation DFS on every step.

    The reference for the peel order: each step recomputes every cut vertex
    of the view before scanning. prc1, prc2 and densest_component_after come
    from the package. Expects valid input (connected, unweighted, even k).
    """

    def degrees_in(view):
        return {v: sum(1 for u in g.neighbors(v) if u in view) for v in view}

    def removable_in(view, deg, edges):
        return sorted(v for v in view if deg[v] * len(view) < edges)

    def solution(vertices):
        vs = tuple(sorted(vertices))
        return Solution(vertices=vs, density=density(g, vs), algorithm="ALG1", k=k)

    view = set(range(g.n))
    deg = {v: g.degree(v) for v in view}
    edges = g.m
    while True:
        if density_log is not None:
            density_log.append([Fraction(2 * edges, len(view))])
        while len(view) > k:
            size = len(view)
            articulation = set(cut_vertices(g, within=view))
            pick = None
            for v in sorted(view):
                if deg[v] * size < edges and v not in articulation:
                    pick = v
                    break
            if pick is None:
                break
            view.remove(pick)
            edges -= deg[pick]
            for u in g.neighbors(pick):
                if u in view:
                    deg[u] -= 1
            del deg[pick]
            if density_log is not None:
                density_log[-1].append(Fraction(2 * edges, len(view)))
        if len(view) == k:
            return solution(view)
        removable = removable_in(view, deg, edges)
        if not removable:
            return solution(prc1(g, k, within=view))
        descend = None
        for r in removable:
            comp = densest_component_after(g, r, within=view)
            if len(comp) >= k:
                descend = comp
                break
        if descend is None:
            return solution(prc2(g, k, within=view))
        view = set(descend)
        deg = degrees_in(view)
        edges = induced_weight(g, view)


def contraction_reference(g, view, removable):
    """prc2's contraction as it was, with a pending set and its min() per
    step: (surviving, block sizes) for the removable vertices of the view,
    the shape of the prc2 event's surviving and block_sizes."""
    side = {r: set(densest_component_after(g, r, within=view)) for r in removable}
    surviving = set(view)
    pending = set(removable)
    while pending:
        r = min(pending)
        surviving -= side[r]
        pending -= side[r]
        pending.discard(r)
    removable_set = set(removable)
    theta = {
        v: (len(side[v]) + 1 if v in removable_set else 1) for v in surviving
    }
    return tuple(sorted(surviving)), theta


def components_reference(g, s):
    """Components of g[s] by union-find over the edges inside s, each
    sorted, ordered by smallest member: the reference for the search."""
    members = set(s)
    parent = {v: v for v in members}

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for u, v in g.edges:
        if u in members and v in members:
            parent[find(u)] = find(v)
    groups = {}
    for v in sorted(members):
        groups.setdefault(find(v), []).append(v)
    return sorted(map(tuple, groups.values()))


def hub_groups_reference(g, k):
    """alg5_hub_reference's group per candidate hub, in scan order, as
    (hub, number of the hub's neighbours outside H, group, the hub's
    component of the group). Expects valid input (connected, unweighted,
    even k)."""
    half = k // 2
    hubs = set(highest_degree_vertices_reference(g, half))
    rest = [v for v in range(g.n) if v not in hubs]
    rest_set = set(rest)
    walks = walk2_counts(g, excluded=hubs)
    partners_of = {v: [] for v in rest}
    for (u, v), c in walks.items():
        partners_of[u].append((v, c))
        partners_of[v].append((u, c))
    for hub in rest:
        ranked = sorted(partners_of[hub], key=lambda t: (-t[1], t[0]))
        partners = set(u for u, _ in ranked[: half - 1])
        near = [u for u in g.neighbors(hub) if u in rest_set]
        near.sort(key=lambda u: (-sum(1 for x in g.neighbors(u) if x in partners), u))
        group = {hub} | partners | set(near[: min(len(near), half)])
        comp = next(c for c in components(g, group) if hub in c)
        yield hub, len(near), group, comp


def alg5_hub_reference(g, k, expansion_log=None):
    """alg5_hub's scan as it was, with whole-graph work per candidate hub.

    The reference for the hub scan: global walk2_counts and partner lists,
    components of every group, expand_to_k and induced_weight per hub.
    Expects valid input (connected, unweighted, even k).
    """
    best = None
    best_weight = -1
    for _, _, _, comp in hub_groups_reference(g, k):
        out = expand_to_k(g, comp, k)
        if expansion_log is not None:
            expansion_log.append((comp, out))
        weight = induced_weight(g, out)
        if weight > best_weight:
            best, best_weight = out, weight
    return Solution(vertices=best, density=density(g, best), algorithm="HUB", k=k)


def highest_degree_vertices_reference(g, count):
    """highest_degree_vertices as it was: one sort by (-degree, id)."""
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    return tuple(sorted(order[:count]))


def j_attachment_reference(g, s, j):
    """j_attachment on the whole graph as it was: a sort by (-count, id),
    then a breadth-first fill from s and every ranked vertex. Expects a
    nonempty s and 1 <= j <= n - |s|."""
    sset = set(s)
    counts = {}
    for v in range(g.n):
        if v in sset:
            continue
        c = sum(1 for u in g.neighbors(v) if u in sset)
        if c:
            counts[v] = c
    ranked = sorted(counts, key=lambda v: (-counts[v], v))
    if j <= len(ranked):
        return tuple(sorted(ranked[:j]))
    chosen = sset | set(ranked)
    target = len(chosen) + (j - len(ranked))
    queue = deque(sorted(chosen))
    while queue and len(chosen) < target:
        for u in g.neighbors(queue.popleft()):
            if u not in chosen:
                chosen.add(u)
                queue.append(u)
                if len(chosen) == target:
                    break
    return tuple(sorted(chosen - sset))


def attach_best_vertex_reference(g, vertices):
    """The odd-k extra vertex as it was picked: a scan in ascending id that
    keeps the first vertex with the most neighbours in vertices."""
    inside = set(vertices)
    best = None
    best_count = 0
    for v in range(g.n):
        if v in inside:
            continue
        count = sum(1 for u in g.neighbors(v) if u in inside)
        if count > best_count:
            best, best_count = v, count
    if best is None:
        raise ValueError("no vertex attaches to the solution")
    return best


def densest_part_reference(g, parts):
    """The densest of parts by a scan that keeps the first maximum, as
    alg4 and densest_component_after picked it."""
    best = parts[0]
    best_d = density(g, best)
    for part in parts[1:]:
        d = density(g, part)
        if d > best_d:
            best, best_d = part, d
    return best


def weighted_greedy_reference(g, k):
    """weighted_greedy's star loop, each star grown inside an explicit view.

    Passing within=range(n) sends expand_to_k through its vertex-set path,
    so this checks the whole-graph path against it. Expects valid input.
    """
    best = None
    best_weight = -1
    for v in range(g.n):
        ranked = sorted(g.neighbors(v), key=lambda u: (-g.edge_weight(v, u), u))
        star = {v, *ranked[: k - 1]}
        out = expand_to_k(g, star, k, within=range(g.n))
        weight = induced_weight(g, out)
        if weight > best_weight:
            best, best_weight = out, weight
    return Solution(
        vertices=best, density=density(g, best), algorithm="WGREEDY", k=k
    )


def assert_valid_solution(g, sol, k):
    from densek.graph import components, density

    assert len(sol.vertices) == k
    assert len(set(sol.vertices)) == k
    assert sol.vertices == tuple(sorted(sol.vertices))
    assert len(components(g, sol.vertices)) == 1
    assert sol.density == density(g, sol.vertices)
    assert sol.k == k


FRAC = Fraction
