"""Approximation algorithms for the densest connected k-subgraph.

Every routine returns exactly k vertices inducing a connected subgraph and
recomputes the achieved density as an exact Fraction. Deterministic
throughout: all ties break toward smaller vertex ids, and candidate scans
run in ascending id order.
"""

from __future__ import annotations

from bisect import bisect
from collections import Counter, deque
from dataclasses import dataclass, replace
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import chain
from typing import Callable, Container, Iterable

from .densest import densest_subgraph
from .graph import (
    Graph,
    _bfs,
    _check_range,
    _induced_weight,
    _member_set,
    _require_ints,
    _top,
    _view_degrees,
    _weighted_degrees,
    components,
    densest_component_after,
    density,
    expand_to_k,
    induced_weight,
    is_connected,
    j_attachment,
)

# The one registry of the suite, in run order: CLI name -> (accepts weighted
# graphs, function name). Every name list of the package and the CLI derives
# from it, and a solution's tag is its CLI name in capitals (COMBINED for the
# best of the suite). It names each function instead of holding it, so
# run_named_algorithm looks the function up in this module at call time and
# a function patched into the module is the one that runs.
ALGORITHMS = {
    "alg1": (False, "alg1"),
    "alg3": (False, "alg3"),
    "alg4": (False, "alg4"),
    "hub": (False, "alg5_hub"),
    "wgreedy": (True, "weighted_greedy"),
}

# The observation hook. When set, the solvers call trace(event, **fields);
# each reads it once per call, and while it is None no field is built.
#   peel_phase  alg1, phase start: density (Fraction) of the view
#   peel        alg1, each step: density (Fraction) after the peeled vertex
#   prc2        prc2, once per run: surviving, removable, seed,
#               seed_with_blocks, seed_with_attachment (sorted tuples) and
#               block_sizes (survivor -> view vertices in its block, a dict)
#   expand      alg3, alg4, alg5_hub per hub: seed, the connected set grown,
#               and out, its growth to k (sorted tuples)
trace: Callable[..., None] | None = None


class AlgorithmMismatchError(ValueError):
    """A weighted graph was paired with an unweighted-only algorithm."""


@dataclass(frozen=True)
class Solution:
    """A connected k-subgraph plus the algorithm tag that produced it."""

    vertices: tuple[int, ...]
    density: Fraction
    algorithm: str
    k: int


def _make_solution(g: Graph, vertices: Iterable[int], name: str, k: int) -> Solution:
    # Central validity gate: every algorithm's output passes through here.
    vs = tuple(sorted(vertices))
    if name not in ALGORITHMS:
        raise ValueError(f"unknown algorithm tag {name!r}")
    if len(vs) != k or len(set(vs)) != k:
        raise ValueError(f"expected {k} distinct vertices, got {vs}")
    # The ids are checked once; the search and the weight then trust them.
    members = _member_set(g, vs)
    if not vs or len(_bfs(g, {vs[0]}, members)) != k:
        raise ValueError("solution subgraph is not connected")
    weight = _induced_weight(g, members)
    return Solution(vertices=vs, density=Fraction(2 * weight, k),
                    algorithm=name.upper(), k=k)


def _check_even_input(g: Graph, k: int) -> None:
    if g.weighted:
        raise ValueError("this algorithm accepts unweighted graphs only")
    _check_range("k", k, 2, g.n)
    if k % 2:
        raise ValueError(f"k={k} must be even")
    if not is_connected(g):
        raise ValueError("input graph must be connected")


def _is_cut_vertex(g: Graph, view: Container[int], v: int) -> bool:
    # Whether the connected view minus v falls apart, by a local search: one
    # breadth-first search per in-view neighbour of v, with v removed, run in
    # lockstep, each live group expanding one vertex per round. Searches that
    # meet merge (union-find over search ids, frontiers joined). v is no cut
    # vertex once one group is left, and is one as soon as a group runs out
    # of frontier: that group has then found a whole component of view - v
    # without the other groups' start vertices. A side of s vertices runs
    # out within s rounds, so a cut vertex costs about deg(v) times its
    # smallest side, not the view (the parallel search of Even and Shiloach,
    # "An on-line edge-deletion problem", J. ACM 1981). A leaf needs none.
    adj = g._adj
    starts = [u for u in adj[v] if u in view]
    if len(starts) < 2:
        return False
    owner = {u: i for i, u in enumerate(starts)}
    owner[v] = -1
    parent = list(range(len(starts)))
    queues = [deque([u]) for u in starts]
    groups = len(starts)
    while True:
        for i, queue in enumerate(queues):
            if parent[i] != i:
                continue
            if not queue:
                return True
            for x in adj[queue.popleft()]:
                j = owner.get(x)
                if j is None:
                    if x in view:
                        owner[x] = i
                        queue.append(x)
                    continue
                if j < 0:
                    continue
                while parent[j] != j:
                    j = parent[j]
                if j == i:
                    continue
                parent[j] = i
                queue.extend(queues[j])
                queues[j] = None
                groups -= 1
                if groups == 1:
                    return False


def _stalled_view(
    g: Graph, k: int, within: Iterable[int] | None, name: str
) -> tuple[set[int], list[int]]:
    # The checks prc1 and prc2 share, in order, with the procedure's name in
    # each message: the view and its removable vertices, id-sorted. One walk
    # over the view checks that it is connected and counts its degrees.
    if g.weighted:
        raise ValueError(f"{name} accepts unweighted graphs only")
    _require_ints(k=k)
    if k < 2 or k % 2:
        raise ValueError(f"k={k} must be even and at least 2")
    view = _member_set(g, within)
    if len(view) <= k:
        raise ValueError(f"{name} needs a vertex view strictly larger than k")
    deg = _view_degrees(g, view)
    if deg is None:
        raise ValueError(f"{name} needs a connected vertex view")
    # v is removable iff deleting it strictly raises the density:
    # 2(m - d(v))/(s - 1) > 2m/s  <=>  d(v) * s < m.
    edges = sum(deg.values()) // 2
    return view, sorted(v for v, d in deg.items() if d * len(view) < edges)


def prc1(g: Graph, k: int, within: Iterable[int] | None = None) -> tuple[int, ...]:
    """Half-sized BFS seed plus a half-sized attachment, on peel-stable input.

    Requires a connected view larger than k with no removable vertex; the
    output keeps at least a k/(4*size) share of the view's density.
    """
    view, removable = _stalled_view(g, k, within, "prc1")
    if removable:
        raise ValueError("prc1 input must have no removable vertex")
    return _prc1_core(g, k, view)


def _prc1_core(g: Graph, k: int, view: set[int]) -> tuple[int, ...]:
    # prc1 without its checks. Every caller guarantees them: g unweighted,
    # k even and at least 2, view a set of g's ids with g[view] connected,
    # more than k vertices and no removable vertex. prc1 checks them on its
    # input; alg3's view is D*'s connected variant, a maximizer of the
    # density, and deleting a vertex from a maximizer never raises it.
    half = k // 2
    seed = _bfs(g, {min(view)}, view, half)
    attachment = j_attachment(g, seed, half, within=view)
    return tuple(sorted(seed.union(attachment)))


def prc2(g: Graph, k: int, within: Iterable[int] | None = None) -> tuple[int, ...]:
    """Contract dense sides behind their cut vertices, then rebuild k vertices.

    Requires a connected view larger than k where removable vertices exist
    but every one of them guards a dense side smaller than k.
    """
    emit = trace
    view, removable = _stalled_view(g, k, within, "prc2")
    if not removable:
        raise ValueError("prc2 needs at least one removable vertex")
    side: dict[int, set[int]] = {}
    for r in removable:
        comp = densest_component_after(g, r, within=view)
        if len(comp) >= k:
            raise ValueError("prc2 requires every dense side to have under k vertices")
        side[r] = set(comp)

    # Contraction, one pass in id order: a removable vertex still surviving
    # at its turn contracts its dense side into itself; one already inside
    # an earlier survivor's side is gone with it. The sides of the survivors
    # are then pairwise disjoint, so block sizes add up to the view size.
    surviving = set(view)
    for r in removable:
        if r in surviving:
            surviving -= side[r]
    claimed: set[int] = set()
    for r in filter(surviving.__contains__, removable):
        if side[r] & claimed:
            raise RuntimeError("prc2: dense sides of survivors must be disjoint")
        claimed |= side[r]
    theta = {v: len(side.get(v, ())) + 1 for v in surviving}
    if sum(theta.values()) != len(view):
        raise RuntimeError("prc2: block sizes must cover the whole view")

    # Grow a connected seed until its blocks cover k/2 vertices, then prune
    # it minimal; minimality caps the covered count at k and the seed at k/2.
    adj = g._adj
    half = k // 2
    start = min(surviving)
    chosen = {start}
    covered = theta[start]
    queue = deque([start])
    while covered < half:
        if not queue:
            raise RuntimeError("prc2: connected view must reach k/2 block weight")
        for u in adj[queue.popleft()]:
            if u in surviving and u not in chosen:
                chosen.add(u)
                queue.append(u)
                covered += theta[u]
                if covered >= half:
                    break
    while len(chosen) > 1:
        for v in sorted(chosen):
            if covered - theta[v] >= half and not _is_cut_vertex(g, chosen, v):
                break
        else:
            break
        chosen.remove(v)
        covered -= theta[v]

    j = min(half, len(surviving) - len(chosen))
    attachment = j_attachment(g, chosen, j, within=surviving)
    with_blocks = set(chosen)
    for r in chosen:
        with_blocks |= side.get(r, set())
    with_attachment = chosen | set(attachment)
    if emit is not None:
        emit(
            "prc2",
            surviving=tuple(sorted(surviving)),
            removable=tuple(removable),
            block_sizes=dict(theta),
            seed=tuple(sorted(chosen)),
            seed_with_blocks=tuple(sorted(with_blocks)),
            seed_with_attachment=tuple(sorted(with_attachment)),
        )
    pick = max(with_blocks, with_attachment, key=lambda s: induced_weight(g, s))
    return expand_to_k(g, pick, k, within=view)


def alg1(g: Graph, k: int) -> Solution:
    """Peel removable non-cut vertices; recurse into large dense sides.

    Each step deletes the smallest-id vertex v with d(v)*|V| < |E| that is
    not a cut vertex of the view. Within a peeling phase |E|/|V| strictly
    rises with each deletion and degrees only fall, so a removable vertex
    stays removable until it is peeled: the candidates are kept in a heap,
    built when a phase starts and fed as neighbours lose degree and as the
    threshold rises. A rise past degree L scans the view once for degree L;
    it happens only while the view has under m/L vertices, so the scans of
    a phase read at most m * (1 + ln maxdeg) entries. A step pops the smallest
    candidate until one is not a cut vertex, each tested by a local search
    from its neighbours whose cost is bounded by its degree times the
    smaller side; a leaf needs no search. Deleting a non-cut vertex keeps
    every cut vertex of the view a cut vertex, unless the deleted vertex
    was a leaf on it. So a popped cut vertex stays out of the heap for the
    rest of the phase, and returns to it only when a leaf on it is peeled.
    When peeling stalls above k vertices, hand over to prc1 (no removable
    vertex left) or prc2 (all dense sides small). The view is deg's keys.
    """
    emit = trace
    _check_even_input(g, k)
    adj = g._adj
    deg = dict(enumerate(map(len, adj)))
    edges = g.m
    while True:
        if emit is not None:
            emit("peel_phase", density=Fraction(2 * edges, len(deg)))
        size = len(deg)
        # A vertex is admitted (removable, so in the heap or `cuts`) exactly
        # when its degree is below `level`, the least d with d * size >=
        # edges. It is admitted when its degree falls to level - 1, or, as
        # the level rises past its degree, by a scan of the view's degrees.
        level = -(-edges // size)
        heap = [v for v, d in deg.items() if d < level]
        heapify(heap)
        # Admitted vertices found to be cut vertices, kept out of the heap.
        cuts: set[int] = set()
        while size > k:
            while heap:
                pick = heappop(heap)
                if not _is_cut_vertex(g, deg, pick):
                    break
                cuts.add(pick)
            else:
                break
            size -= 1
            lost = deg.pop(pick)
            edges -= lost
            for u in adj[pick]:
                if u in deg:
                    d = deg[u] = deg[u] - 1
                    if lost == 1 and u in cuts:
                        # pick was a leaf, perhaps the only other side of u
                        cuts.remove(u)
                        heappush(heap, u)
                    elif d == level - 1:
                        heappush(heap, u)
            while level * size < edges:
                for u, d in deg.items():
                    if d == level:
                        heappush(heap, u)
                level += 1
            if emit is not None:
                emit("peel", density=Fraction(2 * edges, size))
        if size == k:
            return _make_solution(g, deg, "alg1", k)
        # Stalled: the heap ran empty, so `cuts` holds every removable vertex.
        if not cuts:
            return _make_solution(g, prc1(g, k, within=deg), "alg1", k)
        for r in sorted(cuts):
            comp = densest_component_after(g, r, within=deg)
            if len(comp) >= k:
                break
        else:
            return _make_solution(g, prc2(g, k, within=deg), "alg1", k)
        # comp is a component of the view minus r: it loses its edges to r alone
        near = set(adj[r])
        deg = {v: deg[v] - (v in near) for v in comp}
        edges = sum(deg.values()) // 2


def alg3(g: Graph, k: int) -> Solution:
    """Start from a densest connected subgraph; expand or shrink it to k.

    A maximizer has no removable vertex, so shrinking hands it to prc1's
    core without prc1's re-check of the view.
    """
    emit = trace
    _check_even_input(g, k)
    dense = densest_subgraph(g).connected_variant
    if len(dense) <= k:
        out = expand_to_k(g, dense, k)
        if emit is not None:
            emit("expand", seed=dense, out=out)
        return _make_solution(g, out, "alg3", k)
    return _make_solution(g, _prc1_core(g, k, set(dense)), "alg3", k)


def highest_degree_vertices(g: Graph, count: int) -> tuple[int, ...]:
    """The count largest-degree vertices, ties toward smaller ids: the
    ranking rule of j_attachment, keyed by degree.
    """
    _check_range("count", count, 0, g.n)
    return tuple(sorted(_top(range(g.n), count, list(map(len, g._adj)).__getitem__)))


def alg4_base(g: Graph, k: int) -> tuple[int, ...]:
    """k/2 highest-degree vertices plus their k/2-sized attachment."""
    hubs = highest_degree_vertices(g, k // 2)
    attachment = j_attachment(g, hubs, k // 2)
    return tuple(sorted(set(hubs) | set(attachment)))


def alg4(g: Graph, k: int) -> Solution:
    """Attach half the budget to the k/2 highest-degree vertices."""
    emit = trace
    _check_even_input(g, k)
    best = max(components(g, alg4_base(g, k)), key=lambda c: density(g, c))
    out = expand_to_k(g, best, k)
    if emit is not None:
        emit("expand", seed=best, out=out)
    return _make_solution(g, out, "alg4", k)


def alg5_hub(g: Graph, k: int) -> Solution:
    """Best hub-and-partners candidate outside the high-degree core.

    Candidate hubs are the vertices outside the k/2 highest-degree set H,
    scanned in ascending id. A hub takes up to k/2-1 partners, ranked by
    their count of two-step walks from the hub through middle vertices
    outside H, and up to k/2 neighbours outside H, ranked by their number
    of neighbours among the partners; both rankings break ties toward the
    smaller id. The hub's component of that group is closed by set unions:
    every near vertex touches the hub, and a partner joins once it touches
    the component. A hub with at most k/2 neighbours outside H needs no
    search: all of them are near, and each partner's walk runs through one,
    so the component is the whole group. Its growth to k vertices in the
    whole graph comes from the breadth-first search that expand_to_k uses.
    The candidate with the most induced edges wins, each edge counted once
    from its smaller end; ties keep the earliest hub. Per hub the work is
    local: its two-step neighbourhood outside H and the growth to k, never a
    whole-graph pass. The scan reads Graph's neighbour tuples. Its per-call
    tables are H, the vertices outside H, their neighbour lists with H
    removed, and up, each vertex's larger neighbours: O(n + m) memory in
    all.
    """
    emit = trace
    _check_even_input(g, k)
    half = k // 2
    adj = g._adj
    hubs = set(highest_degree_vertices(g, half))
    rest = [v for v in range(g.n) if v not in hubs]
    free = [[u for u in row if u not in hubs] for row in adj]
    # the rows are sorted, so a row's larger neighbours are one slice
    up = [row[bisect(row, v):] for v, row in enumerate(adj)]
    best = None
    best_weight = -1
    for hub in rest:
        # Walks hub - mid - v with mid and v outside H, counted locally.
        walks = Counter(chain.from_iterable(map(free.__getitem__, free[hub])))
        walks.pop(hub, None)
        partners = _top(walks, half - 1, walks.__getitem__)
        near = _top(free[hub], half, lambda u: len(partners.intersection(adj[u])))
        # The hub's component of its group. Near vertices touch the hub, so
        # all of them are in it.
        comp = {hub} | near
        if len(free[hub]) <= half:
            # Every free neighbour is near, and a partner's walk runs
            # through one of them, so every partner touches the component.
            # This branch takes 7,022 of the 9,076 seed-1 auto-gnp hubs (77%);
            # a hub pass over them runs 231-240 ms, 252-267 without (2-core VM).
            comp |= partners
        else:
            # The partners that touch the vertices that joined last join
            # next, until none does.
            joined = comp
            left = partners - comp
            while left and joined:
                joined = left.intersection(chain.from_iterable(map(adj.__getitem__, joined)))
                comp |= joined
                left -= joined
        out = _bfs(g, comp, range(g.n), k)
        if emit is not None:
            emit("expand", seed=tuple(sorted(comp)), out=tuple(sorted(out)))
        weight = sum(map(out.__contains__, chain.from_iterable(map(up.__getitem__, out))))
        if weight > best_weight:
            best, best_weight = out, weight
    return _make_solution(g, best, "hub", k)


def weighted_greedy(g: Graph, k: int) -> Solution:
    """Keep each vertex's k-1 heaviest edges as a star; best star wins.

    Works on weighted and unweighted graphs alike and on any k from 1 to n.
    Each star is grown to k vertices in the whole graph by a breadth-first
    search in `_bfs`'s order, and its set is scored as it is grown. Twice
    the set's weight is the sum over its members of their edge weights into
    the set. Two exact facts keep that sum cheap:

    1. A member whose neighbour list the search scanned to the end has all
       its neighbours in the set, so its share is its weighted degree; only
       the other members have their neighbours checked.
    2. Twice the set's weight is at most its members' weighted degrees
       summed. When that sum is at most twice the best weight so far, the
       star cannot beat the best, and its checks are skipped.

    The heaviest set wins; a tie keeps the earlier star, whose center has
    the smaller id, so the skip in fact 2 never changes the answer.
    """
    _check_range("k", k, 1, g.n)
    if not is_connected(g):
        raise ValueError("input graph must be connected")
    adj, wadj = g._adj, g._wadj
    wdeg = _weighted_degrees(g)
    best = None
    best_twice = -1
    for center in range(g.n):
        row = adj[center]
        if len(row) < k:
            chosen = set(row)
        else:
            # The star ranks positions in the row by weight: the row is
            # sorted, so ties by position are ties by id.
            top = _top(range(len(row)), k - 1, wadj[center].__getitem__)
            chosen = set(map(row.__getitem__, top))
        chosen.add(center)
        # order is the search's queue, popped and not: order[:scanned] are
        # the members whose neighbour lists were scanned to the end.
        order = sorted(chosen)
        scanned = 0
        while len(chosen) < k:
            if scanned == len(order):
                raise RuntimeError("weighted_greedy: a connected graph must reach k vertices")
            row = adj[order[scanned]]
            for u in row:
                if u not in chosen:
                    chosen.add(u)
                    order.append(u)
                    if len(chosen) == k:
                        break
            # a list cut short at k was still read to the end when its last
            # neighbour was the one taken
            if len(chosen) < k or u == row[-1]:
                scanned += 1
        bound = sum(map(wdeg.__getitem__, chosen))
        if bound <= best_twice:
            continue
        twice = sum(map(wdeg.__getitem__, order[:scanned]))
        for x in order[scanned:]:
            weights = wadj[x]
            for i, u in enumerate(adj[x]):
                if u in chosen:
                    twice += weights[i]
        if twice > best_twice:
            best, best_twice = chosen, twice
    return _make_solution(g, best, "wgreedy", k)


def _attach_best_vertex(g: Graph, vertices: tuple[int, ...]) -> int:
    # The odd-k extra vertex: the outside vertex with the most neighbours in
    # the solution, ties toward the smaller id.
    return j_attachment(g, vertices, 1)[0]


def run_named_algorithm(g: Graph, k: int, name: str) -> Solution:
    """Run one algorithm by its CLI name: the package's one dispatch path.

    Checks the name, 3 <= k <= n, and that an unweighted-only algorithm
    gets an unweighted graph (AlgorithmMismatchError otherwise). Those
    algorithms take even k; an odd k runs the even core at k-1, then adds
    the outside vertex with the most neighbours in it.
    """
    if name not in ALGORITHMS:
        raise ValueError(
            f"unknown algorithm {name!r}; pick from {tuple(ALGORITHMS)}"
        )
    _check_range("k", k, 3, g.n)
    accepts_weighted, function = ALGORITHMS[name]
    run = globals()[function]
    if accepts_weighted:
        return run(g, k)
    if g.weighted:
        raise AlgorithmMismatchError(
            f"{name} accepts unweighted graphs only; this graph is weighted "
            f"(use wgreedy)"
        )
    if k % 2 == 0:
        return run(g, k)
    base = run(g, k - 1)
    extra = _attach_best_vertex(g, base.vertices)
    return _make_solution(g, base.vertices + (extra,), name, k)


def suite_names(g: Graph) -> list[str]:
    """CLI names of the algorithms whose weighted flag matches the graph.

    That is the greedy alone on weighted graphs, and the peeling,
    densest-core, high-degree and hub algorithms on unweighted ones.
    """
    return [name for name, (weighted, _) in ALGORITHMS.items()
            if weighted == g.weighted]


def run_all_algorithms(g: Graph, k: int) -> list[Solution]:
    """One Solution per algorithm of suite_names(g), in registry order."""
    return [run_named_algorithm(g, k, name) for name in suite_names(g)]


def densest_solution(solutions: Iterable[Solution]) -> Solution:
    """The densest of the solutions; ties keep the earliest."""
    return max(solutions, key=lambda sol: sol.density)


def best_connected_k_subgraph(g: Graph, k: int) -> Solution:
    """Densest output across the whole suite, retagged as the combined run.

    Ties keep the earliest algorithm in the fixed run order.
    """
    best = densest_solution(run_all_algorithms(g, k))
    return replace(best, algorithm="COMBINED")
