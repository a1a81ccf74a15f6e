"""Instance generators with hand-checkable optima, plus a portable PRNG.

Every generator is deterministic in its arguments: the random families use
xorshift64* (update rule below) rather than a platform RNG, so a seed
reproduces the same instance anywhere, and the structured families lay
vertices out in a documented order.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, repeat
from pathlib import Path
from typing import Any

from .graph import Graph, _integers, _require_ints, components, density, save_edge_list

_MASK = (1 << 64) - 1
_MUL = 0x2545F4914F6CDD1D

# a 1 at the bottom of a 128-bit lane: _successes packs its lanes 16 bytes apart
_SLOT_ONE = (1).to_bytes(16, "little")


def _update(x: int) -> int:
    """The xorshift64* state update: linear over GF(2) in the 64 bits."""
    x ^= x >> 12
    x ^= x << 25 & _MASK
    return x ^ x >> 27


# _POWERS[i] is the update applied 2^i times, as the images of the 64 unit
# vectors: each entry squares the one before, once per process.
_POWERS = [[_update(1 << b) for b in range(64)]]


def _apply(columns: list[int], packed: int, ones: int) -> int:
    """The linear map with these 64 columns applied to each lane of packed.

    ones holds a 1 at the bottom of each 128-bit lane: bit b of every lane
    picks out column b there at once, and a lane of 64 bits times a column
    of 64 stays inside its lane.
    """
    out = 0
    for b, column in enumerate(columns):
        out ^= (packed >> b & ones) * column
    return out


def _power(i: int) -> list[int]:
    while len(_POWERS) <= i:
        last = _POWERS[-1]
        _POWERS.append([_apply(last, column, 1) for column in last])
    return _POWERS[i]


def _spread(state: int, stride: int, lanes: int) -> int:
    """lanes 128-bit lanes, lane j holding state moved j * stride updates on;
    each round copies the lanes so far, moved on by their own span, which
    for a power-of-two stride is one cached power of the update."""
    packed, have = state, 1
    i = stride.bit_length() - 1  # stride * have == 2^i
    while have < lanes:
        take = min(have, lanes - have)
        ones = int.from_bytes(_SLOT_ONE * take, "little")
        low = packed & ((1 << 128 * take) - 1)
        packed |= _apply(_power(i), low, ones) << 128 * have
        have += take
        i += 1
    return packed


def _require_probabilities(**values) -> None:
    # A bool passes 0 <= p <= 1, and True would draw as p = 1.
    for name, p in values.items():
        if type(p) is bool:
            raise ValueError(f"{name} must be a probability, not {p!r}")


class Xorshift64Star:
    """xorshift64* generator.

    State update, all arithmetic mod 2^64:
        x ^= x >> 12;  x ^= x << 25;  x ^= x >> 27
    and each step outputs x * 0x2545F4914F6CDD1D (mod 2^64). A zero seed is
    replaced by 0x9E3779B97F4A7C15 so the state never sticks at zero.

    The update is linear over GF(2), so t updates are one 64x64 bit matrix,
    and t = 2^i of them the i-th square of the one-update matrix, kept per
    process. _successes jumps ahead with them to run about sqrt(count)
    stretches of the one stream side by side.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int):
        _require_ints(seed=seed)
        self.state = (seed & _MASK) or 0x9E3779B97F4A7C15

    def next_u64(self) -> int:
        self.state = x = _update(self.state)
        return x * _MUL & _MASK

    def bernoulli(self, p: float) -> bool:
        """True with probability p: compares the top 53 bits to floor(p * 2^53)."""
        _require_probabilities(p=p)
        return (self.next_u64() >> 11) < int(p * (1 << 53))

    def _successes(self, p: float, count: int) -> list[int]:
        """The positions i < count, ascending, at which bernoulli(p) would
        say True.

        Takes exactly count draws and leaves the state count calls of
        bernoulli(p) would. A draw passes when its whole output is below
        floor(p * 2^53) * 2^11, the same test as the top 53 bits against
        floor(p * 2^53); the limit is clamped to [0, 2^64], which changes
        no outcome. The generators draw every vertex pair through it.

        The draws run in one block of about sqrt(count) lanes, each a
        128-bit slot of one int, every lane but the top one drawing stride
        times, a power of two near sqrt(count). Lane j starts where the
        stream stands after j * stride draws, reached by jump-ahead, so
        the draw at step s of lane j is position j * stride + s. A step
        moves every lane on by three masked shift-xors, multiplies (a
        64-bit lane times the 64-bit constant fills its slot), masks the
        outputs to 64 bits and subtracts them from 2^64 + limit - 1 in each
        lane: bit 64 of a lane is then set exactly when its output is below
        the limit. Byte 8 of each 16-byte slot holds that bit, read for all
        lanes by one to_bytes and slice. The top lane's state at its last
        draw is the state after the call.
        """
        if count <= 0:
            return []
        limit = min(max(int(p * (1 << 53)) << 11, 0), 1 << 64)
        stride = 1 << (count - 1).bit_length() // 2
        lanes = -(-count // stride)
        top = 128 * (lanes - 1)
        last = count - (lanes - 1) * stride - 1  # the top lane's last step
        ones = int.from_bytes(_SLOT_ONE * lanes, "little")
        low, cut = ones * _MASK, ones * (_MASK + limit)
        size = width = 16 * lanes
        sparse = limit < 1 << 61  # below one hit in eight draws
        hits = []
        x = _spread(self.state, stride, lanes)
        for s in range(stride):
            x ^= x >> 12 & low
            x ^= x << 25 & low
            x ^= x >> 27 & low
            flags = (cut - (x * _MUL & low)).to_bytes(size, "little")[8:width:16]
            if sparse:
                # a find per hit beats compress, which makes every lane's
                # position whether it hit or not
                j = flags.find(1)
                while j >= 0:
                    hits.append(s + j * stride)
                    j = flags.find(1, j + 1)
            else:
                hits += compress(range(s, count, stride), flags)
            if s == last:
                self.state = x >> top
                width -= 16  # the top lane is done
        hits.sort()  # the hits come step by step, not lane by lane
        return hits

    def next_below(self, bound: int) -> int:
        _require_ints(bound=bound)
        if bound <= 0:
            raise ValueError("bound must be positive")
        return self.next_u64() % bound


@dataclass(frozen=True)
class GapInstance:
    """A generated graph bundled with what is known about its optima.

    known_opt_density is the exact unconstrained optimum for the EX1A/EX1B
    families and a certified lower bound for PLANTED (the planted block's
    own density). A field that is None claims nothing: a GNP draw, which
    the CLI wraps in a GapInstance, suggests no k and claims no optimum,
    and PLANTED claims no connected optimum.
    """

    graph: Graph
    k: int | None
    known_opt_density: Fraction | None
    known_connected_density: Fraction | None
    family: str
    params: dict[str, Any]

    def save(self, path) -> Path:
        return save_instance(
            self.graph,
            path,
            family=self.family,
            params=self.params,
            k=self.k,
            known_opt=self.known_opt_density,
            known_connected=self.known_connected_density,
        )


def example1a(ell: int) -> GapInstance:
    """ell cliques of size ell chained by long paths; n = ell**3, k = ell**2.

    Clique i occupies ids [i*ell, (i+1)*ell); consecutive cliques are joined
    through a path with ell**2 interior vertices attached at each clique's
    lowest id. The densest k-subgraph gap between unconstrained (clique
    union) and connected solutions grows like ell/3.
    """
    _require_ints(ell=ell)
    if ell < 2:
        raise ValueError("ell must be at least 2")
    edges = []
    for i in range(ell):
        base = i * ell
        for u in range(ell):
            for v in range(u + 1, ell):
                edges.append((base + u, base + v))
    interior0 = ell * ell
    for i in range(ell - 1):
        inner = range(interior0 + i * ell * ell, interior0 + (i + 1) * ell * ell)
        chain = [i * ell, *inner, (i + 1) * ell]
        edges.extend(zip(chain, chain[1:]))
    graph = Graph(ell**3, edges)
    if ell == 2:
        # the clique union (two disjoint edges, density 1) is beaten by a
        # 4-vertex subtree with 3 edges; enumeration fixes the optimum
        known_opt = Fraction(3, 2)
    else:
        known_opt = Fraction(ell - 1)
    known_connected = Fraction(ell * (ell - 1) + 2 * (ell * ell - ell), ell * ell)
    return GapInstance(
        graph=graph,
        k=ell * ell,
        known_opt_density=known_opt,
        known_connected_density=known_connected,
        family="EX1A",
        params={"ell": ell},
    )


def example1b(ell: int) -> GapInstance:
    """Weighted spider: ell rays of ell edges; only the pendant edges weigh 1.

    n = ell**2 + 1, k = 2*ell. The heaviest k-subgraph is the set of pendant
    edges (weighted density 1); any connected k-subgraph reaches at most one
    pendant edge (weighted density 1/ell). Center is vertex 0; ray i runs
    through ids [1 + i*ell, 1 + (i+1)*ell).
    """
    _require_ints(ell=ell)
    if ell < 2:
        raise ValueError("ell must be at least 2")
    edges = []
    weights = []
    for i in range(ell):
        chain = [0, *range(1 + i * ell, 1 + (i + 1) * ell)]
        for a, b in zip(chain, chain[1:]):
            edges.append((a, b))
            weights.append(0)
        weights[-1] = 1  # pendant edge of the ray
    graph = Graph(ell * ell + 1, edges, weights)
    return GapInstance(
        graph=graph,
        k=2 * ell,
        known_opt_density=Fraction(1),
        known_connected_density=Fraction(1, ell),
        family="EX1B",
        params={"ell": ell},
    )


def _pairs(n: int, hits: list[int]) -> list[tuple[int, int]]:
    """The pairs (u, v) at ascending positions hits of the stream of pairs
    u < v < n in lexicographic order."""
    edges = []
    lo = start = 0
    for u in range(n - 1):
        stop = start + n - 1 - u
        hi = bisect_left(hits, stop, lo)
        edges += zip(repeat(u), map((u + 1 - start).__add__, hits[lo:hi]))
        lo, start = hi, stop
    return edges


def gnp(n: int, p: float, seed: int) -> Graph:
    """G(n, p) draw; a disconnected draw is truncated to its largest component.

    One xorshift64* stream from seed draws once for each pair u < v, in
    lexicographic order, and the pair is an edge when the top 53 bits of
    its draw are below floor(p * 2^53): n(n-1)/2 draws, so (n, p, seed)
    pins the instance. Truncation relabels vertices densely, preserving
    relative order; callers can detect it by the shrunken n. Raises if n or
    seed is not an int, before any draw, or if the result has no edges.
    """
    _require_ints(n=n, seed=seed)
    if n < 1:
        raise ValueError("n must be positive")
    _require_probabilities(p=p)
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    edges = _pairs(n, Xorshift64Star(seed)._successes(p, n * (n - 1) // 2))
    if not edges:
        raise ValueError("generated graph has no edges")
    graph = Graph(n, edges)
    comps = components(graph)
    if len(comps) == 1:
        return graph
    keep = max(comps, key=len)  # first maximum: lowest smallest-id wins ties
    relabel = {v: i for i, v in enumerate(keep)}
    kept_edges = [
        (relabel[u], relabel[v]) for u, v in graph.edges if u in relabel and v in relabel
    ]
    return Graph(len(keep), kept_edges)


def planted(n: int, k: int, p_in: float, p_out: float, seed: int) -> GapInstance:
    """G(n, p_out) background with a G(k, p_in) block on vertices 0..k-1.

    Draws as gnp does, once for each pair u < v in lexicographic order from
    one xorshift64* stream (n(n-1)/2 draws), with p_in exactly when v < k
    and p_out otherwise. The block's density is recorded as a certified
    lower bound on the best k-subgraph density (not claimed optimal). A
    disconnected draw is made connected by chaining one edge between
    component representatives, which cannot invalidate the bound. Raises
    if n, k or seed is not an int, before any draw.
    """
    _require_ints(n=n, k=k, seed=seed)
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    _require_probabilities(p_in=p_in, p_out=p_out)
    for p in (p_in, p_out):
        if not 0.0 <= p <= 1.0:
            raise ValueError("probabilities must lie in [0, 1]")
    # One stream read twice, at p_in up to the last pair inside the block
    # and at p_out throughout; each pair keeps the outcome at its own p.
    head = (k - 1) * (2 * n - k) // 2  # the pairs in rows 0..k-2
    inner = _pairs(n, Xorshift64Star(seed)._successes(p_in, head))
    outer = _pairs(n, Xorshift64Star(seed)._successes(p_out, n * (n - 1) // 2))
    edges = [(u, v) for u, v in inner if v < k] + [(u, v) for u, v in outer if v >= k]
    graph = Graph(n, edges)
    comps = components(graph)
    if len(comps) > 1:
        for left, right in zip(comps, comps[1:]):
            edges.append((left[0], right[0]))
        graph = Graph(n, edges)
    return GapInstance(
        graph=graph,
        k=k,
        known_opt_density=density(graph, range(k)),
        known_connected_density=None,
        family="PLANTED",
        params={"n": n, "k": k, "p_in": p_in, "p_out": p_out, "seed": seed},
    )


def sidecar_path(path) -> Path:
    return Path(path).with_suffix(".json")


def save_instance(
    graph: Graph,
    path,
    *,
    family: str,
    params: dict[str, Any],
    k: int | None = None,
    known_opt: Fraction | None = None,
    known_connected: Fraction | None = None,
) -> Path:
    """Write the edge-list file plus the JSON sidecar describing it.

    ValueError, before anything is written, when path is its own sidecar
    path (one ending in .json), or when k is neither None nor a plain int.
    """
    path = Path(path)
    side = sidecar_path(path)
    if side == path:
        raise ValueError(f"instance path {path} is its own sidecar path; "
                         "give it a suffix other than .json")
    if k is not None:
        _require_ints(k=k)
    save_edge_list(graph, path)
    meta = {"family": family, "params": params, "k": k}
    for name, value in (("known_opt", known_opt), ("known_connected", known_connected)):
        meta[f"{name}_num"] = None if value is None else value.numerator
        meta[f"{name}_den"] = None if value is None else value.denominator
    side.write_text(json.dumps(meta, indent=2) + "\n", encoding="utf-8")
    return side


def load_sidecar(path) -> tuple[str, int | None, Fraction | None] | None:
    """(family, k, known optimum) from the sidecar that save_instance wrote
    next to path; None when there is none. The one reader of the format:
    ValueError naming the sidecar when it is not JSON, holds an integer
    outside the file format's, or is of another shape.
    """
    side = sidecar_path(path)
    if not side.exists():
        return None
    try:
        meta = json.loads(side.read_text(encoding="utf-8"),
                          parse_int=lambda t: _integers(t, [t])[0])
    except ValueError as exc:
        raise ValueError(f"{exc} (sidecar {side.name})") from None
    if isinstance(meta, dict):
        family, k = meta.get("family", ""), meta.get("k")
        num, den = meta.get("known_opt_num"), meta.get("known_opt_den")
        if isinstance(family, str) and (k is None or type(k) is int) and (
            num is None and den is None or type(num) is type(den) is int and den > 0
        ):
            return family, k, None if num is None else Fraction(num, den)
    raise ValueError(
        "expected a JSON object with a string family, an integer or null k, "
        "and known_opt_num and known_opt_den both null or an integer over a "
        f"positive integer (sidecar {side.name})"
    )
