"""Answer checks that share no code with the package under test.

Connectivity and density are recomputed from the edge list the benchmark
generated, with a plain adjacency map and a BFS of its own.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from fractions import Fraction
from pathlib import Path


class Checker:
    """Verifies answers for one instance's edge list."""

    def __init__(self, n: int, edges, weights):
        self.n = n
        self.adj: dict[int, dict[int, int]] = {v: {} for v in range(n)}
        for i, (u, v) in enumerate(edges):
            w = 1 if weights is None else weights[i]
            self.adj[u][v] = w
            self.adj[v][u] = w

    def density_error(self, k: int, vertices, reported: Fraction) -> str | None:
        """Why (vertices, reported density) is not a valid answer, or None."""
        if not all(type(v) is int and 0 <= v < self.n for v in vertices):
            return f"vertex out of range 0..{self.n - 1}: {vertices}"
        chosen = set(vertices)
        if len(vertices) != k or len(chosen) != k:
            return f"expected {k} distinct vertices, got {len(vertices)}"
        start = next(iter(chosen))
        seen = {start}
        queue = deque([start])
        while queue:
            for u in self.adj[queue.popleft()]:
                if u in chosen and u not in seen:
                    seen.add(u)
                    queue.append(u)
        if len(seen) != k:
            return "answer is not connected"
        weight = sum(w for v in chosen for u, w in self.adj[v].items() if u in chosen)
        actual = Fraction(weight, k)  # each edge was counted from both ends
        if actual != reported:
            return f"reported density {reported} but the answer has {actual}"
        if actual <= 0:
            return "answer has zero density"
        return None

    def report_error(self, k: int, path: Path):
        """Check a `densek solve` JSON report; returns (error, best answer)."""
        try:
            report = json.loads(path.read_text(encoding="utf-8"))
            entries = report["entries"]
            best = report["best"]
            answers = [
                (tuple(e["vertices"]),
                 Fraction(e["density"]["num"], e["density"]["den"]))
                for e in [best, *entries]
            ]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return f"unreadable report: {exc!r}", None
        if report.get("k") != k or not entries:
            return "report has the wrong k or no entries", None
        for vertices, dens in answers:
            error = self.density_error(k, vertices, dens)
            if error:
                return error, None
        if answers[0][1] != max(d for _, d in answers[1:]):
            return "best entry is not the densest entry", None
        return None, answers[0]


def answers_digest(rows) -> str:
    """Hash of (instance digest, k, vertex tuple) over one pass, in order."""
    h = hashlib.sha256()
    for instance_digest, k, vertices in rows:
        h.update(f"{instance_digest}|{k}|{','.join(map(str, vertices))}\n".encode())
    return h.hexdigest()[:16]
