"""Undirected graph primitives shared by every solver in the package.

Vertex sets travel as sorted tuples so identical inputs give identical
outputs everywhere. Induced subgraphs are vertex masks (``within=``)
against a host Graph, not copies: the solvers re-induce constantly and
copying would dominate their runtime. A view is a set of graph ids, read
and checked in one place, `_member_set`; the whole graph, ``within=None``,
is ``range(g.n)``, which every function takes as it takes a set. Density
comparisons are exact rationals (`fractions.Fraction`); no float ever
drives a decision.

Every growth of a vertex set in the package to a vertex count runs in one
breadth-first order: the queue starts as the seed sorted by id, and each
vertex's neighbours are taken in ascending id. That order fixes which
vertices are added, and so the outputs of every solver. `_bfs` is that
search, for expand_to_k, j_attachment, prc1's half-sized seed and the hub
scan's growth; components, is_connected, the solution gate and the
densest subgraph's connected variant use it too. A component is a
set, so the order that finds it fixes no output: the hub scan closes each
hub's component by set unions, and takes the whole group with no search
when the hub has at most k/2 neighbours outside the high-degree set,
since each partner then touches one of them. Two searches of their own
run in the same order. prc2 grows its seed until the seed's blocks cover
k/2 vertices, a weight `_bfs` does not count. The weighted greedy grows
each star to k vertices and scores the set as it grows it: a vertex whose
neighbour list the search read to the end needs no membership checks, and
`_bfs` does not say which those are. The one other walk, `_view_degrees`,
checks a view and counts its degrees; it adds no vertex to anything, so
its order fixes no output.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter, deque
from fractions import Fraction
from itertools import chain, repeat
from typing import Callable, Iterable


class EdgeListError(ValueError):
    """Edge-list parse failure carrying a 1-based line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


class EdgeError(ValueError):
    """An edge Graph rejects, with its 0-based position in the input."""

    def __init__(self, index: int, message: str):
        self.index = index
        self.message = message
        super().__init__(f"edge {index}: {message}")


class Graph:
    """Immutable simple undirected graph, optionally integer-weighted.

    Edges are normalized to (u, v) with u < v and stored sorted. Adjacency
    lists are sorted tuples, which fixes every traversal order in the
    package (BFS visits neighbors in ascending id). The first invalid edge
    in input order, a non-pair included, raises EdgeError, a ValueError with
    its 0-based position; weights, when given, take one per edge.

    Edge weights are kept as rows beside the adjacency: ``_wadj[v][i]`` is
    the weight of the edge from v to ``_adj[v][i]``, so a loop over a row
    reads an edge's weight by its position and builds no edge key. An
    unweighted graph shares one all-ones row per distinct degree and so
    holds no weight per edge.
    """

    __slots__ = ("n", "edges", "weights", "_adj", "_wadj", "_connected")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]],
        weights: Iterable[int] | None = None,
    ):
        if type(n) is not int or n < 0:
            raise ValueError(f"vertex count {n!r} is not a nonnegative integer")
        if weights is None:
            pairs = zip(edges, repeat(1))
        else:
            edges, weights = list(edges), list(weights)
            if len(weights) != len(edges):
                raise ValueError(f"{len(weights)} weights for {len(edges)} "
                                 "edges; one weight per edge is needed")
            pairs = zip(edges, weights)
        # The one validation of every edge, in input order; the dict it
        # normalizes into catches duplicates. Every earlier edge is in the
        # dict, so its size is the position of the edge at hand.
        weight_of: dict[tuple[int, int], int] = {}
        for edge, w in pairs:
            try:
                u, v = edge
            except (TypeError, ValueError):
                fault = f"{edge!r} is not a pair of vertex ids"
                raise EdgeError(len(weight_of), fault) from None
            # Ids and weights are plain ints: a bool or a float passes the
            # range tests, but format_edge_list would write it as no integer.
            if not type(u) is type(v) is int:
                fault = f"vertex ids {u!r} {v!r} are not both plain integers"
            elif not (0 <= u < n and 0 <= v < n):
                bad = u if not 0 <= u < n else v
                fault = f"vertex id {bad} out of range for n={n}"
            elif u == v:
                fault = f"self-loop at vertex {u}"
            elif (key := (u, v) if u < v else (v, u)) in weight_of:
                fault = f"duplicate edge {key[0]} {key[1]}"
            elif type(w) is not int or w < 0:
                fault = f"weight {w!r} is not a nonnegative integer"
            else:
                weight_of[key] = w
                continue
            raise EdgeError(len(weight_of), fault)
        norm = sorted(weight_of)
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in norm:
            adj[u].append(v)
            adj[v].append(u)
        self.n = n
        self.edges = tuple(norm)
        # Already sorted: the edges come in ascending (u, v) order, so each
        # vertex gets its smaller neighbours first, ascending (as the v of
        # an edge), then its larger ones, ascending (as the u).
        self._adj = tuple(map(tuple, adj))
        if weights is None:
            self.weights = None
            ones = {d: (1,) * d for d in set(map(len, adj))}
            self._wadj = tuple(map(ones.__getitem__, map(len, adj)))
        else:
            # filled in the order the adjacency rows were
            self.weights = tuple(map(weight_of.__getitem__, norm))
            wadj: list[list[int]] = [[] for _ in range(n)]
            for (u, v), w in zip(norm, self.weights):
                wadj[u].append(w)
                wadj[v].append(w)
            self._wadj = tuple(map(tuple, wadj))
        self._connected = None  # is_connected(self), computed on first use

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def weighted(self) -> bool:
        return self.weights is not None

    # The public queries check each id by the view rule, _member_set's: a
    # plain int in 0..n-1, else ValueError. The package's own loops read
    # _adj and _wadj, so the checks cost no solve.
    def neighbors(self, v: int) -> tuple[int, ...]:
        _member_set(self, (v,))
        return self._adj[v]

    def degree(self, v: int) -> int:
        _member_set(self, (v,))
        return len(self._adj[v])

    def edge_weight(self, u: int, v: int) -> int:
        """Weight of edge uv (1 on unweighted graphs). Errors if absent."""
        # one id at a time: a set of both would take (1, True) as {1}
        _member_set(self, (u,))
        _member_set(self, (v,))
        row = self._adj[u]
        i = bisect_left(row, v)
        if i == len(row) or row[i] != v:
            raise ValueError(f"no edge {u}-{v}")
        return self._wadj[u][i]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n == other.n
            and self.edges == other.edges
            and self.weights == other.weights
        )

    def __hash__(self):
        return hash((self.n, self.edges, self.weights))

    def __repr__(self) -> str:
        tag = ", weighted" if self.weighted else ""
        return f"Graph(n={self.n}, m={self.m}{tag})"


def _member_set(g: Graph, within) -> set[int] | range:
    if within is None:
        return range(g.n)
    members = set(within)
    n = g.n
    for v in members:
        # a bool or a float passes the range test: the adjacency would take
        # True as 1, and 1.0 not at all
        if type(v) is not int:
            raise ValueError(f"vertex id {v!r} is not a plain integer")
        if not 0 <= v < n:
            raise ValueError(f"unknown vertex {v}")
    return members


def _require_ints(**values) -> None:
    """ValueError naming the first value that is not a plain int (a bool is
    not), Graph's rule for its vertex count and for every other count."""
    for name, value in values.items():
        if type(value) is not int:
            raise ValueError(f"{name} must be an int, not {value!r}")


def _check_range(name: str, value, low: int, high: int) -> None:
    # The package's one count check: a plain int in low..high, else ValueError.
    _require_ints(**{name: value})
    if not low <= value <= high:
        raise ValueError(f"{name}={value} out of range {low}..{high}")


def _weighted_degrees(g: Graph) -> list[int]:
    # Each vertex's summed edge weights over the whole graph, the one count
    # of them in the package.
    return list(map(sum, g._wadj))


def induced_weight(g: Graph, s: Iterable[int] | None = None) -> int:
    """Total weight of edges with both ends in s (edge count if unweighted).

    s is a view like any other: None is the whole graph, a repeated id
    counts once, and an id outside 0..n-1 raises ValueError.
    """
    return _induced_weight(g, _member_set(g, s))


def _induced_weight(g: Graph, members: set[int] | range) -> int:
    # induced_weight on a view _member_set has already checked.
    adj, wadj = g._adj, g._wadj
    total = 0
    for v in members:
        # each edge once, from its smaller end
        weights = wadj[v]
        for i, u in enumerate(adj[v]):
            if u > v and u in members:
                total += weights[i]
    return total


def density(g: Graph, s: Iterable[int] | None = None) -> Fraction:
    """Exact density 2*w(E(s))/|s| of the subgraph induced by s (default: all of g)."""
    members = _member_set(g, s)
    if not members:
        raise ValueError("empty subgraph has no density")
    return Fraction(2 * _induced_weight(g, members), len(members))


def components(g: Graph, s: Iterable[int] | None = None) -> list[tuple[int, ...]]:
    """Connected components of g[s], each sorted, ordered by smallest member."""
    members = _member_set(g, s)
    out = []
    unseen = set(members)
    for start in sorted(members):
        if start in unseen:
            comp = _bfs(g, {start}, unseen)
            unseen -= comp
            out.append(tuple(sorted(comp)))
    return out


def is_connected(g: Graph, s: Iterable[int] | None = None) -> bool:
    """Whether g[s] (default: all of g) is nonempty and connected.

    The answer for the whole graph is kept on the immutable Graph, so every
    solver can check its input without a search per check.
    """
    if s is None and g._connected is not None:
        return g._connected
    members = _member_set(g, s)
    connected = bool(members) and len(_bfs(g, {min(members)}, members)) == len(members)
    if s is None:
        g._connected = connected
    return connected


def cut_vertices(g: Graph, within: Iterable[int] | None = None) -> tuple[int, ...]:
    """Articulation vertices of the (connected) induced graph, sorted.

    Iterative lowlink DFS over the whole view (all of g by default), which
    skips each neighbour outside the view; errors if the induced graph is
    disconnected. The solvers do not call it: alg1's peel and prc2's
    pruning ask about one candidate at a time, and answer with a local
    search from the candidate's neighbours; alg1 keeps each "cut" answer
    for the rest of its peeling phase, unless it peels a leaf hanging on
    that vertex. It stays as the whole-view reference that the tests check
    that search against.
    """
    members = _member_set(g, within)
    if not members:
        raise ValueError("graph is empty")
    root = min(members)
    disc: dict[int, int] = {root: 0}
    low = {root: 0}
    cuts: set[int] = set()
    counter = 1
    root_children = 0
    adj = g._adj
    frames = [(root, -1, iter(adj[root]))]
    while frames:
        v, parent, it = frames[-1]
        pushed = False
        for u in it:
            if u == parent or u not in members:
                continue
            if u in disc:
                if disc[u] < low[v]:
                    low[v] = disc[u]
            else:
                disc[u] = low[u] = counter
                counter += 1
                if v == root:
                    root_children += 1
                frames.append((u, v, iter(adj[u])))
                pushed = True
                break
        if not pushed:
            frames.pop()
            if frames:
                pv = frames[-1][0]
                if low[v] < low[pv]:
                    low[pv] = low[v]
                if pv != root and low[v] >= disc[pv]:
                    cuts.add(pv)
    if len(disc) != len(members):
        raise ValueError("graph is disconnected")
    if root_children >= 2:
        cuts.add(root)
    return tuple(sorted(cuts))


def densest_component_after(
    g: Graph, v: int, within: Iterable[int] | None = None
) -> tuple[int, ...]:
    """Densest component of g - v: the dense side behind the cut vertex v.

    v must be a cut vertex of the (connected) graph; density ties go to the
    component containing the smallest vertex id.
    """
    rest = set(_member_set(g, within))
    if v not in rest:
        raise ValueError(f"vertex {v} not in the graph")
    _member_set(g, (v,))
    rest.remove(v)
    comps = components(g, rest)
    if len(comps) < 2:
        raise ValueError(f"vertex {v} is not a cut vertex")
    best = max(comps, key=lambda c: density(g, c))
    return best


def _top(ids: Iterable[int], count: int, key: Callable[[int], int]) -> set[int]:
    # The package's one ranking rule: the first count ids in (-key, id)
    # order. Stable sorts by id, then by key descending; no sort when every
    # id is taken anyway.
    ids = list(ids)
    if len(ids) <= count:
        return set(ids)
    return set(sorted(sorted(ids), key=key, reverse=True)[:count])


def _bfs(g: Graph, seed: set[int], members, limit: int | None = None) -> set[int]:
    # The package's one breadth-first search: seed grown inside members, the
    # queue starting sorted and neighbours taken in ascending id. It stops
    # once limit vertices are chosen (default: all of members), at once for
    # a seed that already holds them, and a limit it cannot reach is an error.
    adj = g._adj
    chosen = set(seed)
    target = len(members) if limit is None else limit
    queue = deque(sorted(chosen))
    while queue and len(chosen) < target:
        for u in adj[queue.popleft()]:
            if u in chosen or u not in members:
                continue
            chosen.add(u)
            queue.append(u)
            if len(chosen) >= target:
                break
    if limit is not None and len(chosen) < limit:
        raise ValueError("cannot grow the set to the requested size")
    return chosen


def _view_degrees(g: Graph, view: set[int] | range) -> dict[int, int] | None:
    # Each vertex of the nonempty view with its number of neighbours in the
    # view, or None when g[view] is disconnected. One walk from min(view),
    # a level at a time: the neighbour lists of a level are kept, and its
    # unseen neighbours in the view form the next level. A view vertex is
    # then listed once per neighbour reached, which is every neighbour in
    # the view when the walk misses none. A level costs a few list and set
    # calls, so the work per vertex runs in C; a long path, one vertex per
    # level, is the slow case.
    adj = g._adj
    start = min(view)
    unseen = set(view)
    unseen.remove(start)
    level = [start]
    listed: list[int] = []
    while level:
        reached = list(chain.from_iterable(map(adj.__getitem__, level)))
        listed += reached
        level = unseen.intersection(reached)
        unseen -= level
    if unseen:
        return None
    counts = Counter(listed)
    return dict(zip(view, map(counts.__getitem__, view)))


def expand_to_k(
    g: Graph, s: Iterable[int], k: int, within: Iterable[int] | None = None
) -> tuple[int, ...]:
    """Grow connected g[s] to exactly k vertices by BFS, ids ascending."""
    members = _member_set(g, within)
    sset = set(s)
    if not sset:
        raise ValueError("cannot expand an empty set")
    if not sset.issubset(members):
        raise ValueError("seed set leaves the graph")
    _member_set(g, sset)
    _require_ints(k=k)
    if len(sset) > k:
        raise ValueError(f"seed has {len(sset)} vertices, more than k={k}")
    if k > len(members):
        raise ValueError(f"k={k} exceeds the graph size {len(members)}")
    return tuple(sorted(_bfs(g, sset, members, k)))


def j_attachment(
    g: Graph, s: Iterable[int], j: int, within: Iterable[int] | None = None
) -> tuple[int, ...]:
    """j outside vertices maximizing the edge boundary into s.

    Vertices are ranked by neighbor count into s, ties toward the smaller
    id: the package's one ranking rule, shared with highest_degree_vertices,
    the hub scan and the weighted greedy's stars. When zero-count vertices
    are needed the remainder is grown breadth-first from everything picked
    so far, so each choice keeps a neighbor among s or the earlier picks:
    if g[s] is connected, so is the union. The result satisfies
    |members| * [s, picked] >= j * [s, everything outside s].
    """
    members = _member_set(g, within)
    sset = set(s)
    if not sset:
        raise ValueError("attachment needs a nonempty base set")
    if not sset.issubset(members):
        raise ValueError("base set leaves the graph")
    _member_set(g, sset)
    _check_range("j", j, 1, len(members) - len(sset))
    # Each vertex of the view with its neighbours in s, counted from s's side.
    adj = g._adj
    counts = Counter(u for v in sset for u in adj[v] if u in members)
    picked = _top(counts.keys() - sset, j, counts.__getitem__)
    if len(picked) < j:
        picked = _bfs(g, sset | picked, members, len(sset) + j) - sset
    return tuple(sorted(picked))


# The most digits an integer in a file, a sidecar or an option may have.
# Python refuses to read or write an int of over 4300 digits from 3.11 on,
# and 3.10 has no limit; below it, with room for the sums the CLI writes (a
# density's numerator is at most twice a sum of m weights), every version
# reads and writes the same integers.
_MAX_DIGITS = 4000


def _integers(text: str, tokens: list[str]) -> list[int]:
    # The tokens of text as integers of the file format, ASCII digits with
    # an optional sign and at most _MAX_DIGITS digits; ValueError otherwise.
    # int() alone also reads "1_0" as 10 and other scripts' digits, such as
    # "\u0661" as 1, so the whole text is checked first: two C-level scans,
    # no Python loop. Only a text longer than _MAX_DIGITS can hold a token
    # that long, so an ordinary line pays one len() for the digit count.
    if not text.isascii() or "_" in text:
        raise ValueError(f"{text!r} holds characters outside the integer format")
    if len(text) > _MAX_DIGITS and any(
        len(t.lstrip("+-")) > _MAX_DIGITS for t in tokens
    ):
        raise ValueError(f"an integer has more than {_MAX_DIGITS} digits")
    return [int(t) for t in tokens]


def _parse_header(line: str) -> tuple[int, int, bool]:
    """(n, m, weighted) from an edge list's first line; EdgeListError if bad."""
    head = line.split()
    if len(head) not in (2, 3) or (len(head) == 3 and head[2] != "weighted"):
        raise EdgeListError(1, "expected header 'n m' or 'n m weighted'")
    try:
        n, m = _integers(line, head[:2])
    except ValueError:
        raise EdgeListError(1, "vertex and edge counts must be integers") from None
    if n < 0 or m < 0:
        raise EdgeListError(1, "counts must be nonnegative")
    return n, m, len(head) == 3


def parse_edge_list(text: str) -> Graph:
    """Parse the package's edge-list format.

    Line 1 is ``n m`` or ``n m weighted``; the next m lines are ``u v`` or
    ``u v w`` with 0-based vertex ids and nonnegative integer weights.
    Violations raise EdgeListError with the offending line number, in this
    order: the header; the syntax of the m edge lines (field count,
    integers, a missing line); the first bad edge in file order (id out of
    range, self-loop, duplicate, negative weight); content after them.
    """
    lines = text.splitlines()
    n, m, weighted = _parse_header(lines[0] if lines else "")
    fields = 3 if weighted else 2
    edges: list[tuple[int, int]] = []
    weights: list[int] = []
    for i in range(m):
        lineno = i + 2
        if lineno > len(lines):
            raise EdgeListError(lineno, f"expected {m} edges, file ends after {i}")
        line = lines[lineno - 1]
        tok = line.split()
        if len(tok) != fields:
            raise EdgeListError(lineno, f"expected {fields} fields, got {len(tok)}")
        try:
            vals = _integers(line, tok)
        except ValueError:
            raise EdgeListError(lineno, "fields must be integers") from None
        edges.append((vals[0], vals[1]))
        if weighted:
            weights.append(vals[2])
    # Graph checks the edges themselves; edge i sits on line i + 2.
    try:
        g = Graph(n, edges, weights if weighted else None)
    except EdgeError as exc:
        raise EdgeListError(exc.index + 2, exc.message) from None
    for lineno in range(m + 2, len(lines) + 1):
        if lines[lineno - 1].strip():
            raise EdgeListError(lineno, f"unexpected content after {m} edges")
    return g


def format_edge_list(g: Graph) -> str:
    """Inverse of parse_edge_list; output round-trips to an equal Graph."""
    head = f"{g.n} {g.m} weighted" if g.weighted else f"{g.n} {g.m}"
    lines = [head]
    for idx, (u, v) in enumerate(g.edges):
        if g.weighted:
            lines.append(f"{u} {v} {g.weights[idx]}")
        else:
            lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


def _decode(data: bytes, first_line: bool = False) -> str:
    # data decoded as UTF-8. A byte that is not UTF-8 raises EdgeListError
    # with its line as splitlines() counts them; with first_line=True, one
    # on a later line than the first ends the text instead.
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        text = data[: exc.start].decode("utf-8")
        line = len((text + "x").splitlines())
        if first_line and line > 1:
            return text
        raise EdgeListError(line, "not UTF-8 text") from None


def load_edge_list(path, check: Callable[[int, int], None] | None = None) -> Graph:
    """parse_edge_list on a file, which must be UTF-8 text, opened once.

    The header is read from line 1 first, and check(n, m), if given, runs
    on it before any later byte is read: what it raises comes before every
    fault past the header, and a pipe can be read.
    """
    with open(path, "rb") as fh:
        first = fh.readline()
        text = _decode(first, first_line=True)
        # line 1 as parse_edge_list's splitlines() cuts it
        n, m, _ = _parse_header(text.splitlines()[0] if text else "")
        if check is not None:
            check(n, m)
        data = first + fh.read()
    return parse_edge_list(_decode(data))


def save_edge_list(g: Graph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_edge_list(g))
