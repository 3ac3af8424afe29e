"""Spans and counters recorded at the call boundary of each mapf-lab layer.

The solver looks up ``shortest_path``, ``distances_to_goal``,
``iter_conflicts`` and ``find_first_conflict`` in the ``mapf_lab.highlevel``
module namespace on every call. ``patched`` swaps those names for timed
wrappers for the duration of a ``with`` block, so the package itself is not
modified. The benchmark calls the remaining layers (map loading, roadmap
build, betweenness, classification, validation, ``solve``) through a
``Layers`` object, which is either the plain functions or their traced
versions.

Spans stay in memory until the run ends. Each span records its name, start,
end, parent span and op id; a layer's self time is its span durations minus
the durations of its direct children.
"""

from __future__ import annotations

import contextlib
from array import array
from collections import Counter
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

from mapf_lab import conflicts, highlevel, lowlevel, mapio, roadmap, topology
from mapf_lab.lowlevel import SearchBudgetExceeded

# Span names, one per layer boundary.
OP = "op"
MAP_LOAD = "mapio.load"
ROADMAP_BUILD = "roadmap.build"
SOLVE = "highlevel.solve"
SEARCH = "lowlevel.search"
DIST = "lowlevel.dist"
SCAN = "conflicts.scan"
PAIRWISE = "conflicts.pairwise"
VALIDATE = "conflicts.validate"
BETWEENNESS = "topology.betweenness"
CLASSIFY = "topology.classify"


class Tracer:
    """In-memory span store plus per-op counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self._stack: list[int] = []
        self.op_id = -1
        self.counts: Counter[str] = Counter()

    def begin(self, name: str) -> int:
        code = self._codes.get(name)
        if code is None:
            code = self._codes[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(code)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.finish(idx)

    def take_counts(self) -> Counter[str]:
        """Counters accumulated since the last call; resets them."""
        out, self.counts = self.counts, Counter()
        return out

    def __len__(self) -> int:
        return len(self.start)

    def self_times(self, ops: set[int] | None = None) -> dict[str, float]:
        """Self seconds per span name, over spans of the given op ids."""
        n = len(self.start)
        own = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        out: dict[str, float] = {name: 0.0 for name in self.names}
        for i in range(n):
            if ops is None or self.op[i] in ops:
                out[self.names[self.name[i]]] += own[i]
        return out

    def total_times(self, ops: set[int] | None = None) -> dict[str, float]:
        """Inclusive seconds per span name, over spans of the given op ids."""
        out: dict[str, float] = {name: 0.0 for name in self.names}
        for i in range(len(self.start)):
            if ops is None or self.op[i] in ops:
                out[self.names[self.name[i]]] += self.end[i] - self.start[i]
        return out

    def write(self, path) -> None:
        """One CSV row per span: name, start, end, parent index, op id."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write("span,name,start,end,parent,op\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.names[self.name[i]]},{self.start[i]:.9f},"
                         f"{self.end[i]:.9f},{self.parent[i]},{self.op[i]}\n")


class _TimedScan:
    """Iterator over ``iter_conflicts`` that times each ``next()``.

    It consumes the underlying generator exactly as far as its caller does.
    """

    __slots__ = ("tracer", "inner")

    def __init__(self, tracer: Tracer, inner):
        self.tracer = tracer
        self.inner = inner

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self.tracer
        idx = tracer.begin(SCAN)
        try:
            item = next(self.inner)
        finally:
            tracer.finish(idx)
        tracer.counts["conflicts.scan_yielded"] += 1
        return item


def _timed(tracer: Tracer, name: str, fn: Callable) -> Callable:
    def call(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.finish(idx)
    return call


def _traced_layer_functions(tracer: Tracer) -> dict[str, Callable]:
    """Replacements for the names ``mapf_lab.highlevel`` imports."""
    def shortest_path(roadmap_, task, constraints=(), obstacles=(),
                      limits=None, dist=None):
        c = tracer.counts
        c["lowlevel.calls"] += 1
        c["lowlevel.obstacle_paths"] += len(obstacles)
        idx = tracer.begin(SEARCH)
        try:
            path = lowlevel.shortest_path(roadmap_, task, constraints,
                                          obstacles, limits, dist)
        except SearchBudgetExceeded:
            c["lowlevel.budget_raises"] += 1
            raise
        finally:
            tracer.finish(idx)
        if path is None:
            c["lowlevel.none"] += 1
        else:
            c["lowlevel.paths"] += 1
            c["lowlevel.path_states"] += len(path.states)
        return path

    timed_dist = _timed(tracer, DIST, lowlevel.distances_to_goal)
    timed_pairwise = _timed(tracer, PAIRWISE, conflicts.find_first_conflict)

    def distances_to_goal(roadmap_, goal):
        tracer.counts["lowlevel.dist_calls"] += 1
        return timed_dist(roadmap_, goal)

    def iter_conflicts(plan, roadmap_):
        # Pair checks a fully consumed scan makes: every agent pair at each
        # of the H+1 timesteps and each of the H transitions. Computed here
        # from agent count and path lengths, not counted inside the scan.
        n = len(plan.paths)
        if n >= 2:
            horizon = max(len(p.states) for p in plan.paths) - 1
            tracer.counts["conflicts.pair_checks_computed"] += \
                n * (n - 1) // 2 * (2 * horizon + 1)
        tracer.counts["conflicts.scan_calls"] += 1
        return _TimedScan(tracer, conflicts.iter_conflicts(plan, roadmap_))

    def find_first_conflict(plan, roadmap_):
        tracer.counts["conflicts.pairwise_calls"] += 1
        hit = timed_pairwise(plan, roadmap_)
        if hit is not None:
            tracer.counts["conflicts.pairwise_hits"] += 1
        return hit

    return {"shortest_path": shortest_path,
            "distances_to_goal": distances_to_goal,
            "iter_conflicts": iter_conflicts,
            "find_first_conflict": find_first_conflict}


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Route the solver's calls into the low level and conflict layer
    through traced wrappers; restores the original names on exit."""
    replacements = _traced_layer_functions(tracer)
    originals = {name: getattr(highlevel, name) for name in replacements}
    for name, fn in replacements.items():
        setattr(highlevel, name, fn)
    try:
        yield
    finally:
        for name, fn in originals.items():
            setattr(highlevel, name, fn)


@dataclass(frozen=True)
class Layers:
    """The layer entry points the benchmark calls directly."""

    load_map: Callable
    build_roadmap: Callable
    solve: Callable
    validate_plan: Callable
    betweenness: Callable
    classify: Callable


PLAIN = Layers(load_map=mapio.load_map, build_roadmap=roadmap.build_roadmap,
               solve=highlevel.solve, validate_plan=conflicts.validate_plan,
               betweenness=topology.betweenness, classify=topology.classify)


def traced_layers(tracer: Tracer) -> Layers:
    timed_betweenness = _timed(tracer, BETWEENNESS, topology.betweenness)
    timed_validate = _timed(tracer, VALIDATE, conflicts.validate_plan)

    def betweenness(adjacency, sample=None, seed=0):
        tracer.counts["topology.sources"] += \
            len(adjacency) if sample is None else sample
        return timed_betweenness(adjacency, sample=sample, seed=seed)

    def validate_plan(plan, roadmap_, instance):
        tracer.counts["conflicts.validate_calls"] += 1
        return timed_validate(plan, roadmap_, instance)

    return Layers(
        load_map=_timed(tracer, MAP_LOAD, mapio.load_map),
        build_roadmap=_timed(tracer, ROADMAP_BUILD, roadmap.build_roadmap),
        solve=_timed(tracer, SOLVE, highlevel.solve),
        validate_plan=validate_plan,
        betweenness=betweenness,
        classify=_timed(tracer, CLASSIFY, topology.classify))
