"""mapf-lab benchmark: run one workload and print its metrics.

    python3 benchmark/run.py --workload cbs-scan --seed 1 --seconds 40 --trace 0

Run from the repository root. The program under test is imported from
``src/`` and the maps are read from ``data/``. Inputs are drawn from
``--seed`` alone. A run sets the workload up several times, then times
passes over its op pool for ``--seconds`` seconds, and checks every result.
With ``--trace 0`` the last stdout line carries the end-to-end metrics. With
``--trace 1`` it carries the per-layer metrics, and the spans are written
to ``benchmark/out/``. See README.md in this directory for what each metric
means.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import random
import resource
import statistics
import sys
import traceback
from collections import Counter, deque
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DATA_DIR = ROOT / "data"
OUT_DIR = BENCH_DIR / "out"

if not (ROOT / "src" / "mapf_lab" / "__init__.py").is_file() \
        or not DATA_DIR.is_dir():
    sys.exit(f"run.py: expected the mapf-lab sources in {ROOT / 'src'} and "
             f"the maps in {DATA_DIR}; run it from a repository checkout")
sys.path.insert(0, str(ROOT / "src"))

from mapf_lab import lowlevel  # noqa: E402
from mapf_lab.conflicts import PlanValidationError  # noqa: E402
from mapf_lab.highlevel import Budget, Outcome, Strategy  # noqa: E402
from mapf_lab.roadmap import (AgentTask, GridRoadmap,  # noqa: E402
                              ProblemInstance)

import tracing  # noqa: E402

ANCHOR_LABELS = {
    "empty-16-16": "large_open",
    "random-32-32-10": "featureless",
    "maze-32-32-2": "narrow_dominated",
    "city-32-32": "mixed",
}
MAPS = tuple(ANCHOR_LABELS)
LOW_LEVEL_BUDGET = 200_000
SETUP_REPEATS = 7
# Candidate tail percentiles, highest first: the nines, then the quartiles.
# The reported tail is the first one that leaves at least TAIL_BEYOND
# samples above it.
TAIL_LADDER = (99.9, 99.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10
# Host speed. On the VM this benchmark was tuned on, the host switched
# between two speeds about 1.5x apart for minutes at a time, and raw op
# times spread by 20-50% from run to run whatever the seed. So a fixed
# probe runs before every op: one BFS over a PROBE_SIDE x PROBE_SIDE grid
# that this file builds, independent of mapf_lab. The op-time metrics are
# wall times scaled by PROBE_REF_S over the run's 10th-percentile probe
# time: the time an op would take on a host where the probe takes
# PROBE_REF_S. Their units are ref_ms and 1/ref_s.
PROBE_SIDE = 64
PROBE_REF_S = 1e-3


@dataclass(frozen=True)
class SolverWorkload:
    strategy: Strategy
    resolutions: tuple[int, ...]
    agent_counts: tuple[int, ...]
    draws: int        # instances per (map, resolution, agent count) stratum
    node_limit: int


@dataclass(frozen=True)
class TopologyWorkload:
    sample_at_r2: int = 256


WORKLOADS = {
    # Each child replans one agent under constraints only, so the full
    # conflict rescan in every generated node dominates.
    "cbs-scan": SolverWorkload(Strategy.CBS, (1, 2), (4, 8, 12, 16, 20, 24),
                               draws=4, node_limit=5),
    # Lower-priority agents replan around every higher path, so the low
    # level's obstacle checks dominate; conflicts are also checked pairwise.
    "cbswp-replan": SolverWorkload(Strategy.CBSWP, (2,), (4, 6, 8, 10, 12),
                                   draws=24, node_limit=2),
    # Roadmap and topology only: the control for every solver change.
    "topology": TopologyWorkload(),
}

END_TO_END_UNITS = {
    "setup_s": "s", "ops_per_s": "1/ref_s", "op_p50_ms": "ref_ms",
    "op_tail_ms": "ref_ms", "solved_frac": "frac", "cost_over_lb": "ratio",
}
PER_LAYER_UNITS = {
    "process.peak_rss_mb": "MB",
    "host.probe_ms": "ms",
    "wall.ops_per_s": "1/s",
    "mapio.load_s": "s",
    "roadmap.build_s": "s",
    "roadmap.vertices": "count",
    "lowlevel.calls": "count",
    "lowlevel.s": "s",
    "lowlevel.ms_per_call": "ms",
    "lowlevel.none_frac": "frac",
    "lowlevel.budget_raises": "count",
    "lowlevel.obstacle_paths": "count",
    "lowlevel.path_states": "count",
    "lowlevel.dist_s": "s",
    "conflicts.scan_calls": "count",
    "conflicts.scan_s": "s",
    "conflicts.scan_yielded": "count",
    "conflicts.pair_checks_computed": "count",
    "conflicts.pairwise_calls": "count",
    "conflicts.pairwise_s": "s",
    "conflicts.pairwise_hit_frac": "frac",
    "conflicts.validate_s": "s",
    "highlevel.nodes_expanded": "count",
    "highlevel.nodes_generated": "count",
    "highlevel.conflicts_resolved": "count",
    "highlevel.solve_s": "s",
    "highlevel.tree_s": "s",
    "topology.betweenness_s": "s",
    "topology.sources": "count",
    "topology.classify_s": "s",
    "share.lowlevel": "frac",
    "share.lowlevel_dist": "frac",
    "share.conflicts_scan": "frac",
    "share.conflicts_pairwise": "frac",
    "share.highlevel_tree": "frac",
    "share.topology_betweenness": "frac",
    "share.topology_classify": "frac",
    "trace.ops_per_s_untraced": "1/ref_s",
    "trace.ops_per_s_traced": "1/ref_s",
    "trace.overhead_ops_per_s": "1/ref_s",
    "trace.spans": "count",
}
# Self-time shares of the op, keyed by metric, from span names.
SHARES = {
    "share.lowlevel": tracing.SEARCH,
    "share.lowlevel_dist": tracing.DIST,
    "share.conflicts_scan": tracing.SCAN,
    "share.conflicts_pairwise": tracing.PAIRWISE,
    "share.highlevel_tree": tracing.SOLVE,
    "share.topology_betweenness": tracing.BETWEENNESS,
    "share.topology_classify": tracing.CLASSIFY,
}


# --------------------------------------------------------------------------
# Ops. ``fingerprint`` is what must repeat exactly every time the same op
# runs: its answer and its machine-independent counters.


@dataclass
class SolveOp:
    name: str
    stratum: str
    instance: ProblemInstance
    strategy: Strategy
    budget: Budget
    lower_bound: int | None = None

    def run(self, layers: tracing.Layers):
        return layers.solve(self.instance, self.strategy, self.budget)

    def check(self, result, layers: tracing.Layers) -> list[str]:
        if result.outcome is not Outcome.SOLVED:
            return []
        if self.lower_bound is None:
            # Called on the module, not through highlevel, so it is untraced.
            roadmap = self.instance.roadmap
            self.lower_bound = sum(
                int(lowlevel.distances_to_goal(roadmap, t.goal)[t.start])
                for t in self.instance.tasks)
        problems = []
        try:
            found = layers.validate_plan(result.plan, self.instance.roadmap,
                                         self.instance)
        except PlanValidationError as exc:
            problems.append(f"plan rejected: {exc}")
        else:
            if found:
                problems.append(f"plan has {len(found)} conflicts, "
                                f"first {found[0].to_json()}")
        if result.plan.cost < self.lower_bound:
            problems.append(f"cost {result.plan.cost} below the lower bound "
                            f"{self.lower_bound}")
        return problems

    def fingerprint(self, result) -> tuple:
        s = result.stats
        paths = None if result.plan is None else \
            tuple(tuple(p.states) for p in result.plan.paths)
        return (result.outcome.value, s.nodes_expanded, s.nodes_generated,
                s.conflicts_resolved, s.low_level_calls, paths)

    def counters(self, result) -> dict[str, int]:
        s = result.stats
        return {"highlevel.nodes_expanded": s.nodes_expanded,
                "highlevel.nodes_generated": s.nodes_generated,
                "highlevel.conflicts_resolved": s.conflicts_resolved}

    def solved(self, result) -> bool:
        return result.outcome is Outcome.SOLVED

    def cost_ratio(self, result) -> float:
        return result.plan.cost / self.lower_bound if self.lower_bound else 1.0


@dataclass
class TopologyOp:
    name: str
    map_name: str
    roadmap: GridRoadmap
    sample: int | None
    seed: int

    @property
    def stratum(self) -> str:
        return self.name

    def run(self, layers: tracing.Layers):
        field_ = layers.betweenness(self.roadmap.adjacency, sample=self.sample,
                                    seed=self.seed)
        return field_, layers.classify(self.roadmap, field_)

    def check(self, result, layers: tracing.Layers) -> list[str]:
        field_, label = result
        if len(field_.raw) != self.roadmap.vertex_count:
            return [f"field has {len(field_.raw)} entries for "
                    f"{self.roadmap.vertex_count} vertices"]
        if self.roadmap.resolution == 1 and \
                label.label.value != ANCHOR_LABELS[self.map_name]:
            return [f"label {label.label.value}, expected "
                    f"{ANCHOR_LABELS[self.map_name]}"]
        return []

    def fingerprint(self, result) -> tuple:
        field_, label = result
        return (label.label.value, tuple(sorted(label.evidence.items())),
                sum(field_.raw))

    def counters(self, result) -> dict[str, int]:
        return {}

    def solved(self, result) -> bool:
        return True  # a label was returned

    def cost_ratio(self, result) -> float:
        return 1.0  # labeling has no plan cost


# --------------------------------------------------------------------------
# Set-up: load the maps, build the roadmaps, draw the instances.


def _largest_component(adjacency) -> set[int]:
    seen = [False] * len(adjacency)
    best: list[int] = []
    for root in range(len(adjacency)):
        if seen[root]:
            continue
        seen[root] = True
        comp = [root]
        for v in comp:
            for u in adjacency[v]:
                if not seen[u]:
                    seen[u] = True
                    comp.append(u)
        if len(comp) > len(best):
            best = comp
    return set(best)


def draw_instance(roadmap, cells: list[int], agents: int,
                  rng: random.Random) -> ProblemInstance:
    """Distinct start cells, distinct goal cells, all in one component, so
    every goal is reachable from its start."""
    starts = rng.sample(cells, agents)
    goals = rng.sample(cells, agents)
    return ProblemInstance(roadmap, [AgentTask(a, s, g) for a, (s, g)
                                     in enumerate(zip(starts, goals))])


def set_up(workload_name: str, seed: int, layers: tracing.Layers
           ) -> tuple[list, list]:
    """The op pool and the roadmaps it runs on."""
    spec = WORKLOADS[workload_name]
    grids = {m: layers.load_map(DATA_DIR / f"{m}.map") for m in MAPS}
    resolutions = (1, 2) if isinstance(spec, TopologyWorkload) \
        else spec.resolutions
    roadmaps = {(m, r): layers.build_roadmap(grids[m], r)
                for r in resolutions for m in MAPS}
    if isinstance(spec, TopologyWorkload):
        return [TopologyOp(f"{m}/r{r}", m, roadmaps[m, r],
                           None if r == 1 else spec.sample_at_r2, seed)
                for r in resolutions for m in MAPS], list(roadmaps.values())

    budget = Budget(node_limit=spec.node_limit,
                    low_level_budget=LOW_LEVEL_BUDGET)
    strata = []
    for (m, r), rm in roadmaps.items():
        component = _largest_component(rm.adjacency)
        cells = [v for row in range(rm.grid.height)
                 for col in range(rm.grid.width)
                 if (v := rm.cell_vertex(col, row)) is not None
                 and v in component]
        for n in spec.agent_counts:
            rng = random.Random(f"{workload_name}:{seed}:{m}:{r}:{n}")
            strata.append([SolveOp(f"{m}/r{r}/n{n}/k{k}", f"{m}/r{r}/n{n}",
                                   draw_instance(rm, cells, n, rng),
                                   spec.strategy, budget)
                           for k in range(spec.draws)])
    # Interleave the strata, so that any prefix of a pass is a balanced mix.
    return ([stratum[k] for k in range(spec.draws) for stratum in strata],
            list(roadmaps.values()))


# --------------------------------------------------------------------------
# Measurement.


@dataclass
class Sample:
    op: int           # index into the op pool
    run_id: int       # global op sequence number, also the span op id
    traced: bool
    seconds: float
    ok: bool
    solved: bool = False
    cost_ratio: float | None = None


@dataclass
class Run:
    samples: list[Sample] = field(default_factory=list)
    probes: list[float] = field(default_factory=list)
    complete: list[tuple[bool, list[int]]] = field(default_factory=list)
    counts: dict[int, Counter] = field(default_factory=dict)  # run_id -> counts
    problems: list[str] = field(default_factory=list)


def _one_op(i: int, op, run_id: int, layers, traced: bool,
            tracer: tracing.Tracer, run: Run, seen: dict) -> None:
    tracer.op_id = run_id
    result = None
    t0 = perf_counter()
    try:  # an op that raises counts as failed; the run goes on
        with tracer.span(tracing.OP) if traced else contextlib.nullcontext():
            t0 = perf_counter()
            result = op.run(layers)
            dt = perf_counter() - t0
        problems = op.check(result, layers)
    except Exception:
        dt = perf_counter() - t0
        problems = ["raised:\n" + traceback.format_exc()]
    counts = tracer.take_counts() if traced else None
    if not problems:
        mark = op.fingerprint(result)
        if traced:
            counts.update(op.counters(result))
            run.counts[run_id] = counts
            mark = (mark, tuple(sorted(counts.items())))
        if seen.setdefault((i, traced), mark) != mark:
            problems.append("result or counters differ from an earlier run "
                            "of the same op")
    sample = Sample(i, run_id, traced, dt, not problems)
    if not problems:
        sample.solved = op.solved(result)
        if sample.solved:
            sample.cost_ratio = op.cost_ratio(result)
    else:
        run.problems.extend(f"{op.name}: {p}" for p in problems)
    run.samples.append(sample)


def measure(ops: list, seconds: float, trace: bool,
            tracer: tracing.Tracer) -> Run:
    """Time passes over the pool until ``seconds`` have elapsed.

    A run always completes at least one pass (two with tracing: one plain,
    one traced). With tracing, passes alternate between plain and traced.
    """
    run = Run()
    seen: dict = {}
    probe_graph = _grid(PROBE_SIDE)
    traced_layers = tracing.traced_layers(tracer)
    need = 2 if trace else 1
    deadline = perf_counter() + seconds
    run_id = 0
    pass_no = 0
    while True:
        traced = trace and pass_no % 2 == 1
        layers = traced_layers if traced else tracing.PLAIN
        ids = []
        stopped = False
        with tracing.patched(tracer) if traced else contextlib.nullcontext():
            for i, op in enumerate(ops):
                if len(run.complete) >= need and perf_counter() >= deadline:
                    stopped = True
                    break
                run.probes.append(host_probe(probe_graph))
                _one_op(i, op, run_id, layers, traced, tracer, run, seen)
                ids.append(run_id)
                run_id += 1
        if stopped:
            return run
        run.complete.append((traced, ids))
        pass_no += 1
        if len(run.complete) >= need and perf_counter() >= deadline:
            return run


def _grid(side: int) -> list[list[int]]:
    adjacency: list[list[int]] = [[] for _ in range(side * side)]
    for v in range(side * side):
        if v % side + 1 < side:
            adjacency[v].append(v + 1)
            adjacency[v + 1].append(v)
        if v + side < side * side:
            adjacency[v].append(v + side)
            adjacency[v + side].append(v)
    return adjacency


def host_probe(adjacency: list[list[int]]) -> float:
    """Seconds one BFS over the probe grid takes right now."""
    t0 = perf_counter()
    dist = [-1] * len(adjacency)
    dist[0] = 0
    queue = deque([0])
    while queue:
        v = queue.popleft()
        d = dist[v] + 1
        for u in adjacency[v]:
            if dist[u] < 0:
                dist[u] = d
                queue.append(u)
    return perf_counter() - t0


def host_scale(run: "Run") -> float:
    """Factor that turns this run's wall times into reference times."""
    return PROBE_REF_S / percentile(run.probes, 10.0)


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    k = (len(xs) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def tail_percentile(n: int) -> float | None:
    for p in TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= TAIL_BEYOND:
            return p
    return None


def best_times(samples: list[Sample], ops: list) -> list[float]:
    """Each op's best time over the passes that ran it.

    Every op is deterministic, so its runs differ only by what the host did
    meanwhile; the host's speed drifts over tens of seconds, and the best of
    several passes is the reading least disturbed by it.
    """
    best: dict[int, float] = {}
    for s in samples:
        best[s.op] = min(s.seconds, best.get(s.op, s.seconds))
    if len(best) < len(ops):
        raise RuntimeError("a pass did not cover the whole op pool")
    return [best[i] for i in range(len(ops))]


def ops_per_s(best: list[float], ops: list) -> float:
    """Ops per second of a pass in which every op takes its stratum's median
    best time.

    Stratum medians keep one search that runs up against its budget from
    swinging the figure from seed to seed; op_tail_ms reports those ops.
    """
    by_stratum: dict[str, list[float]] = {}
    for op, t in zip(ops, best):
        by_stratum.setdefault(op.stratum, []).append(t)
    return len(ops) / sum(len(v) * statistics.median(v)
                          for v in by_stratum.values())


def first_pass_quality(run: Run) -> tuple[float, float]:
    _, ids = run.complete[0]
    first = {s.run_id: s for s in run.samples}
    done = [first[i] for i in ids]
    solved = [s for s in done if s.solved]
    ratios = [s.cost_ratio for s in solved if s.cost_ratio is not None]
    return (len(solved) / len(done),
            statistics.fmean(ratios) if ratios else float("nan"))


def end_to_end(run: Run, ops: list, setup_times: list[float]) -> dict:
    wall = best_times([s for s in run.samples if not s.traced], ops)
    scale = host_scale(run)
    best = [t * scale for t in wall]
    p = tail_percentile(len(best))
    if p is None:  # too few ops for any tail; fall back to the median
        p = 50.0
    solved_frac, cost_over_lb = first_pass_quality(run)
    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": ops_per_s(best, ops),
        "op_p50_ms": statistics.median(best) * 1e3,
        "op_tail_ms": percentile(best, p) * 1e3,
        "solved_frac": solved_frac,
        "cost_over_lb": cost_over_lb,
    }, {"tail_percentile": p, "samples": len(best),
        "wall_ops_per_s": ops_per_s(wall, ops),
        "wall_op_p50_ms": statistics.median(wall) * 1e3,
        "wall_op_tail_ms": percentile(wall, p) * 1e3,
        "probe_ms": PROBE_REF_S / scale * 1e3}


def per_layer(run: Run, ops_pool: list, tracer: tracing.Tracer,
              setup_layers: dict) -> dict:
    traced_passes = [ids for traced, ids in run.complete if traced]
    k = len(traced_passes)
    ops = {i for ids in traced_passes for i in ids}
    own = tracer.self_times(ops)
    total = tracer.total_times(ops)
    c: Counter = Counter()
    for run_id in ops:
        c.update(run.counts.get(run_id, Counter()))
    op_time = total.get(tracing.OP, 0.0)

    def per_pass(x: float) -> float:
        return x / k

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    calls = c["lowlevel.calls"]
    out = dict(setup_layers)
    out.update({
        "process.peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "lowlevel.calls": per_pass(calls),
        "lowlevel.s": per_pass(own.get(tracing.SEARCH, 0.0)),
        "lowlevel.ms_per_call":
            ratio(total.get(tracing.SEARCH, 0.0), calls) * 1e3,
        "lowlevel.none_frac": ratio(c["lowlevel.none"], calls),
        "lowlevel.budget_raises": per_pass(c["lowlevel.budget_raises"]),
        "lowlevel.obstacle_paths": ratio(c["lowlevel.obstacle_paths"], calls),
        "lowlevel.path_states": ratio(c["lowlevel.path_states"],
                                      c["lowlevel.paths"]),
        "lowlevel.dist_s": per_pass(own.get(tracing.DIST, 0.0)),
        "conflicts.scan_calls": per_pass(c["conflicts.scan_calls"]),
        "conflicts.scan_s": per_pass(own.get(tracing.SCAN, 0.0)),
        "conflicts.scan_yielded": ratio(c["conflicts.scan_yielded"],
                                        c["conflicts.scan_calls"]),
        "conflicts.pair_checks_computed":
            per_pass(c["conflicts.pair_checks_computed"]),
        "conflicts.pairwise_calls": per_pass(c["conflicts.pairwise_calls"]),
        "conflicts.pairwise_s": per_pass(own.get(tracing.PAIRWISE, 0.0)),
        "conflicts.pairwise_hit_frac": ratio(c["conflicts.pairwise_hits"],
                                             c["conflicts.pairwise_calls"]),
        "conflicts.validate_s": per_pass(total.get(tracing.VALIDATE, 0.0)),
        "highlevel.nodes_expanded": per_pass(c["highlevel.nodes_expanded"]),
        "highlevel.nodes_generated": per_pass(c["highlevel.nodes_generated"]),
        "highlevel.conflicts_resolved":
            per_pass(c["highlevel.conflicts_resolved"]),
        "highlevel.solve_s": per_pass(total.get(tracing.SOLVE, 0.0)),
        "highlevel.tree_s": per_pass(own.get(tracing.SOLVE, 0.0)),
        "topology.betweenness_s": per_pass(own.get(tracing.BETWEENNESS, 0.0)),
        "topology.sources": per_pass(c["topology.sources"]),
        "topology.classify_s": per_pass(own.get(tracing.CLASSIFY, 0.0)),
        "trace.spans": per_pass(sum(1 for o in tracer.op if o in ops)),
    })
    for metric, name in SHARES.items():
        out[metric] = ratio(own.get(name, 0.0), op_time)
    scale = host_scale(run)
    wall = best_times([s for s in run.samples if not s.traced], ops_pool)
    plain = ops_per_s([t * scale for t in wall], ops_pool)
    traced = ops_per_s([t * scale for t in best_times(
        [s for s in run.samples if s.traced], ops_pool)], ops_pool)
    out["host.probe_ms"] = PROBE_REF_S / scale * 1e3
    out["wall.ops_per_s"] = ops_per_s(wall, ops_pool)
    out["trace.ops_per_s_untraced"] = plain
    out["trace.ops_per_s_traced"] = traced
    out["trace.overhead_ops_per_s"] = plain - traced
    return out


def _format(value: float) -> str:
    return f"{value:.6g}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    trace = bool(args.trace)

    tracer = tracing.Tracer()
    layers = tracing.traced_layers(tracer) if trace else tracing.PLAIN
    setup_times = []
    for rep in range(SETUP_REPEATS):
        tracer.op_id = -1 - rep
        t0 = perf_counter()
        ops, roadmaps = set_up(args.workload, args.seed, layers)
        setup_times.append(perf_counter() - t0)
    setup_layers = {}
    if trace:
        reps = [tracer.self_times({-1 - rep}) for rep in range(SETUP_REPEATS)]
        setup_layers = {
            "mapio.load_s": statistics.median(
                r[tracing.MAP_LOAD] for r in reps),
            "roadmap.build_s": statistics.median(
                r[tracing.ROADMAP_BUILD] for r in reps),
            "roadmap.vertices": sum(rm.vertex_count for rm in roadmaps),
        }
        tracer.take_counts()

    # The pool holds far more instances than one caller would; keep the
    # cyclic collector's full passes from scaling with it.
    gc.collect()
    gc.freeze()
    run = measure(ops, args.seconds, trace, tracer)
    attempted = len(run.samples)
    failed = sum(1 for s in run.samples if not s.ok)
    notes = []
    if trace:
        metrics = per_layer(run, ops, tracer, setup_layers)
        units = PER_LAYER_UNITS
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv"
        tracer.write(spans_path)
        notes.append(f"spans: {len(tracer)} written to "
                     f"{spans_path.relative_to(ROOT)}")
    else:
        metrics, tail = end_to_end(run, ops, setup_times)
        units = END_TO_END_UNITS
        notes.append(f"op_p50_ms and op_tail_ms (p{tail['tail_percentile']:g})"
                     f" are over the best times of {tail['samples']} ops")
        notes.append(f"wall clock: ops_per_s {_format(tail['wall_ops_per_s'])}"
                     f" 1/s, op_p50_ms {_format(tail['wall_op_p50_ms'])} ms,"
                     f" op_tail_ms {_format(tail['wall_op_tail_ms'])} ms;"
                     f" probe p10 {_format(tail['probe_ms'])} ms")
        if metrics["cost_over_lb"] != metrics["cost_over_lb"]:  # NaN
            run.problems.append("no op solved, so cost_over_lb is undefined")
            metrics["cost_over_lb"] = 0.0
            failed = max(failed, 1)

    for problem in run.problems[:10]:
        print(f"run.py: FAILED {problem}", file=sys.stderr)
    width = max(len(name) for name in units)
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} ops={len(ops)} passes={len(run.complete)}")
    for name in units:
        print(f"{name:<{width}}  {_format(metrics[name]):>12}  {units[name]}")
    print(f"{'failed_frac':<{width}}  {_format(failed / attempted):>12}  "
          f"frac  ({failed} of {attempted} ops)")
    for note in notes:
        print(f"# {note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
