"""Spans around the package's layer entry points, patched in from outside.

Each traced function is replaced in every densek module that binds it (a
function imported with `from .graph import cut_vertices` lives on in
`densek.algorithms` as its own name), so internal calls are seen too.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (defining module, function, layer metric name)
TARGETS = (
    ("densek.densest", "densest_subgraph", "densest.densest_subgraph"),
    ("densek.densest", "has_subgraph_denser_than", "densest.flow"),
    ("densek.graph", "cut_vertices", "graph.cut_vertices"),
    ("densek.graph", "expand_to_k", "graph.expand_to_k"),
    ("densek.graph", "load_edge_list", "graph.parse"),
    ("densek.graph", "j_attachment", "graph.j_attachment"),
    ("densek.graph", "components", "graph.components"),
    ("densek.graph", "densest_component_after", "graph.densest_component_after"),
    ("densek.algorithms", "alg1", "algorithms.alg1"),
    ("densek.algorithms", "prc1", "algorithms.prc1"),
    ("densek.algorithms", "prc2", "algorithms.prc2"),
    ("densek.algorithms", "alg3", "algorithms.alg3"),
    ("densek.algorithms", "alg4", "algorithms.alg4"),
    ("densek.algorithms", "alg5_hub", "algorithms.alg5_hub"),
    ("densek.algorithms", "weighted_greedy", "algorithms.weighted_greedy"),
    ("densek.algorithms", "_attach_best_vertex", "algorithms.odd_attach"),
    ("densek.algorithms", "_make_solution", "algorithms.validate"),
    ("densek.algorithms", "run_all_algorithms", "algorithms.run_all"),
    ("densek.cli", "main", "cli.main"),
    ("densek.generators", "gnp", "generators.gnp"),
    ("densek.generators", "example1a", "generators.example1a"),
    ("densek.generators", "example1b", "generators.example1b"),
    ("densek.generators", "planted", "generators.planted"),
)


class Tracer:
    """Records spans (name, parent, start, end) and per-name totals.

    Totals (calls, inclusive seconds, self seconds) accumulate over every
    span; the spans themselves are kept only while `keep_spans` is true, so
    a long run holds a bounded list.
    """

    def __init__(self):
        self.totals: dict[str, list] = {}
        self.spans: list[tuple[str, int, float, float]] = []
        self.keep_spans = False
        self.on_return: dict[str, object] = {}
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            index = -1
            if self.keep_spans:
                index = len(self.spans)
                self.spans.append((name, parent, 0.0, 0.0))
            frame = [0.0, index]  # seconds spent in child spans, span index
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                total = self.totals.setdefault(name, [0, 0.0, 0.0])
                total[0] += 1
                total[1] += duration
                total[2] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if index >= 0:
                    self.spans[index] = (name, parent, start, end)
            hook = self.on_return.get(name)
            if hook is not None:
                hook(result)
            return result

        return traced

    def install(self) -> None:
        """Patch every target in; stop the run if one no longer exists, so a
        renamed entry point cannot read as a layer that costs nothing."""
        modules = [m for key, m in sys.modules.items()
                   if key == "densek" or key.startswith("densek.")]
        missing = [f"{module_name}.{attr}" for module_name, attr, _ in TARGETS
                   if not callable(getattr(importlib.import_module(module_name), attr, None))]
        if missing:
            raise SystemExit(f"perfbench trace: not found: {', '.join(missing)}; "
                             "update TARGETS in perfbench/tracer.py")
        for module_name, attr, name in TARGETS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key in [k for k, v in vars(module).items() if v is original]:
                    setattr(module, key, wrapper)
                    self._patches.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    def take_totals(self) -> dict[str, list]:
        totals, self.totals = self.totals, {}
        return totals
