"""Exhaustive exact optima for small instances.

Plain subset enumeration, deliberately free of algorithmic cleverness so it
can anchor every guarantee test. Size guards keep accidental blowups out of
CI; an explicit limit argument overrides them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .graph import Graph, _check_range, _require_ints

K_SUBGRAPH_LIMIT = 20
DENSEST_LIMIT = 16


class OracleLimitError(ValueError):
    """The instance exceeds the enumeration size guard."""


@dataclass(frozen=True)
class OracleResult:
    best_set: tuple[int, ...]
    best_density: Fraction
    k: int
    connected_required: bool


def _check_size(n: int, default: int, override: int | None) -> None:
    limit = default if override is None else override
    _require_ints(limit=limit)
    if n > limit:
        raise OracleLimitError(
            f"instance too large for oracle: n={n} exceeds limit {limit}"
        )


def _connected_mask(masks: list[int], smask: int) -> bool:
    start = smask & (-smask)
    seen = start
    frontier = start
    while frontier:
        nxt = 0
        m = frontier
        while m:
            low = m & (-m)
            nxt |= masks[low.bit_length() - 1]
            m ^= low
        frontier = nxt & smask & ~seen
        seen |= frontier
    return seen == smask


def check_brute_k(n: int, k: int, limit: int | None = None) -> None:
    """brute_k's input checks on n vertices, in its order, without a graph.

    ValueError when k is outside 1..n, then OracleLimitError when n exceeds
    the size guard, so a caller can check a file's header before building
    its graph.
    """
    _check_range("k", k, 1, n)
    _check_size(n, K_SUBGRAPH_LIMIT, limit)


def brute_k(
    g: Graph, k: int, connected: bool = True, limit: int | None = None
) -> OracleResult:
    """Exact best k-subgraph density by enumerating all C(n, k) subsets.

    The witness is the lexicographically smallest maximizer. Densities of
    equal-size sets are compared by induced weight alone.
    """
    check_brute_k(g.n, k, limit)
    masks = [0] * g.n
    for u, v in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    weighted = g.weighted
    adj, weight_of = g._adj, g._weight_of
    best_set = None
    best_w = -1
    for combo in combinations(range(g.n), k):
        smask = 0
        for v in combo:
            smask |= 1 << v
        if connected and not _connected_mask(masks, smask):
            continue
        w = 0
        if weighted:
            for v in combo:
                for u in adj[v]:
                    if u > v and (smask >> u) & 1:
                        w += weight_of[v, u]
        else:
            for v in combo:
                w += ((masks[v] & smask) >> v).bit_count()
        if w > best_w:
            best_w = w
            best_set = combo
    if best_set is None:
        raise ValueError(f"no connected {k}-subgraph exists")
    return OracleResult(
        best_set=best_set,
        best_density=Fraction(2 * best_w, k),
        k=k,
        connected_required=connected,
    )


def brute_densest(g: Graph, limit: int | None = None) -> OracleResult:
    """Exact max density over all nonempty subsets (connectivity not required).

    Induced weights are built by dynamic programming over subset masks in
    ascending order; the reported witness is the first maximizer in that
    order, compared by exact cross-multiplication.
    """
    if g.n < 1:
        raise ValueError("graph has no vertices")
    _check_size(g.n, DENSEST_LIMIT, limit)
    n = g.n
    incident: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for idx, (u, v) in enumerate(g.edges):
        w = g.weights[idx] if g.weighted else 1
        incident[u].append((1 << v, w))  # Graph stores each edge with u < v
    weight = [0] * (1 << n)
    best_mask = 1
    best_num = 0  # 2 * weight of the best subset
    best_den = 1  # its size
    for smask in range(1, 1 << n):
        low = smask & (-smask)
        rest = smask ^ low
        w = weight[rest]
        for bit, ew in incident[low.bit_length() - 1]:
            if rest & bit:
                w += ew
        weight[smask] = w
        size = smask.bit_count()
        if 2 * w * best_den > best_num * size:
            best_mask, best_num, best_den = smask, 2 * w, size
    members = tuple(v for v in range(n) if (best_mask >> v) & 1)
    return OracleResult(
        best_set=members,
        best_density=Fraction(best_num, best_den),
        k=len(members),
        connected_required=False,
    )

