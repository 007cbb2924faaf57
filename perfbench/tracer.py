"""In-memory span tracer that wraps rspmetric's layer functions from outside.

Nothing in the package is edited: ``Tracer.install`` replaces each target
function by a timing wrapper, both in its own module and wherever another
``rspmetric`` module imported the same object by name (``lab`` imports
``exact_tsp`` from ``heuristics``, for example).  Methods are replaced on
their class.  ``Tracer.uninstall`` puts the originals back.

A span is ``[name, start_ns, end_ns, parent]`` where ``parent`` is the
index of the span that was open when this one started, or -1.  Spans stay in
memory until the run ends; a span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (module, attribute path) of every function the benchmark wraps
TARGETS = (
    ("rng", "Seed.child"),
    ("rng", "UniformStream.u01_block"),
    ("graphs", "complete_graph"),
    ("graphs", "generate_erdos_renyi"),
    ("graphs", "is_connected"),
    ("graphs", "draw_weights"),
    ("graphs", "cut_parameters_exact"),
    ("metric", "build_metric"),
    ("metric", "tau_profile"),
    ("metric", "cluster_partition"),
    ("heuristics", "exact_tsp"),
    ("heuristics", "exact_matching"),
    ("heuristics", "nearest_neighbor_tour"),
    ("heuristics", "greedy_matching"),
    ("heuristics", "insertion_tour"),
    ("heuristics", "two_opt"),
    ("heuristics", "trivial_kmedian"),
    ("lab", "run_suite"),
    ("lab", "make_context"),
    ("lab", "run_trials"),
    ("lab", "summarize"),
    ("lab", "Report.render"),
)
MODULES = ("rng", "graphs", "metric", "heuristics", "lab")
SPAN_NAMES = tuple(f"{mod}.{path}" for mod, path in TARGETS)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        package = sys.modules["rspmetric"]
        holders = [package] + [
            mod for key, mod in sys.modules.items() if key.startswith("rspmetric.")
        ]
        for mod_name, path in TARGETS:
            name = f"{mod_name}.{path}"
            module = sys.modules[f"rspmetric.{mod_name}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                self._replace(cls, attr, self._wrap(name, original))
                continue
            original = getattr(module, path)
            wrapper = self._wrap(name, original)
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self._replace(holder, attr, wrapper)

    def _replace(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def self_times(self, start: int = 0, stop: int | None = None):
        """Calls and summed self time in ns, per span name, over spans[start:stop]."""
        if self._stack:
            raise RuntimeError("spans still open")
        child_ns = [0] * len(self.spans)
        for _, begin, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - begin
        calls: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        stop = len(self.spans) if stop is None else stop
        for i in range(start, stop):
            name, begin, end, _ = self.spans[i]
            calls[name] += 1
            self_ns[name] += end - begin - child_ns[i]
        return calls, self_ns

    def write(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("name,start_ns,end_ns,parent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name},{start},{end},{parent}\n")
