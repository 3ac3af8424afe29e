"""Benchmark harness: escalation protocol, records, and aggregation.

For every (map, resolution, scenario, strategy) combination the harness
solves instances of growing size: start at ``agent_base`` agents, add
``agent_increment`` more after each solved instance, and stop the escalation
at the first instance that does not come back solved. Each attempt emits one
record; records append to disk as they complete so a crashed run keeps its
finished work. Scenarios come from benchmark scenario files when configured,
otherwise from a seeded generator that samples distinct, mutually reachable
start/goal cells.
"""

from __future__ import annotations

import csv
import json
import os
import random
from dataclasses import dataclass, field
from multiprocessing import Pool
from typing import Iterable, Iterator

from .highlevel import Budget, Outcome, Strategy, solve
from .mapio import GridMap, load_map, load_scenario
from .roadmap import (DEFAULT_ROBOT_WIDTH, GridRoadmap, build_roadmap,
                      instance_from_cells)

RECORD_FIELDS = ("map", "group", "resolution", "scenario", "agents",
                 "strategy", "outcome", "time_ms", "cost", "nodes_expanded")


class ConfigError(ValueError):
    """The experiment configuration is unusable."""


class AggregationError(ValueError):
    """The record set is inconsistent (duplicate keys from mixed runs)."""


@dataclass(frozen=True)
class MapSpec:
    path: str
    group: str
    scens: tuple[str, ...] = ()  # explicit scenario files; empty means generate

    @property
    def name(self) -> str:
        return os.path.splitext(os.path.basename(self.path))[0]


@dataclass
class ExperimentConfig:
    maps: list[MapSpec]
    resolutions: list[int] = field(default_factory=lambda: [1, 2, 4])
    scenario_count: int = 5
    agent_base: int = 4
    agent_increment: int = 4
    max_agents: int | None = None
    time_limit: float = 60.0
    node_limit: int | None = None
    low_level_budget: int = 1_000_000
    strategies: list[Strategy] = field(
        default_factory=lambda: [Strategy.CBS, Strategy.CBSWP])
    seed: int = 0
    robot_width: float = DEFAULT_ROBOT_WIDTH

    def __post_init__(self):
        if not self.maps:
            raise ConfigError("config lists no maps")
        if self.agent_base < 1 or self.agent_increment < 1:
            raise ConfigError("agent counts must be positive")
        if any(r < 1 for r in self.resolutions):
            raise ConfigError("resolutions must be positive")
        if self.scenario_count < 1:
            raise ConfigError("scenario_count must be positive")
        if not self.strategies:
            raise ConfigError("config lists no strategies")
        if not 0.0 < self.robot_width <= 1.0:
            raise ConfigError(f"robot_width must be in (0, 1], got "
                              f"{self.robot_width!r}")
        if self.time_limit is not None and not self.time_limit > 0:
            raise ConfigError(f"time_limit must be positive, got "
                              f"{self.time_limit!r}")
        for key in ("node_limit", "max_agents", "low_level_budget"):
            value = getattr(self, key)
            # Only the low-level budget has no unlimited (None) setting.
            if (value is None and key == "low_level_budget") or \
                    (value is not None and value < 1):
                raise ConfigError(f"{key} must be at least 1, got {value!r}")


def _parse_strategies(raw) -> list[Strategy]:
    out = []
    for item in raw:
        try:
            out.append(Strategy(item.strip() if isinstance(item, str) else item))
        except ValueError:
            raise ConfigError(f"unknown strategy {item!r}") from None
    return out


_SCALAR_KEYS = {
    "scenario_count": int, "agent_base": int, "agent_increment": int,
    "max_agents": int, "time_limit": float, "node_limit": int,
    "low_level_budget": int, "seed": int, "robot_width": float,
}


def config_from_dict(doc: dict, base_dir: str = ".") -> ExperimentConfig:
    if "maps" not in doc:
        raise ConfigError("config needs a 'maps' entry")
    entries = doc["maps"]
    if isinstance(entries, str):
        entries = [v for v in entries.split(",") if v.strip()]
    maps = []
    for entry in entries:
        if isinstance(entry, str):
            if ":" not in entry:
                raise ConfigError(f"map entry {entry!r} needs the form path:group")
            path, group = entry.rsplit(":", 1)
            scens: tuple[str, ...] = ()
        else:
            path, group = entry["path"], entry["group"]
            scens = tuple(entry.get("scens", ()))
        maps.append(MapSpec(resolve_data_path(path.strip(), base_dir), group.strip(),
                            tuple(resolve_data_path(s, base_dir) for s in scens)))
    kwargs: dict = {"maps": maps}
    for key, value in doc.items():
        if key == "maps":
            continue
        elif key == "resolutions":
            if isinstance(value, str):
                value = value.split(",")
            kwargs[key] = [int(v) for v in value]
        elif key == "strategies":
            if isinstance(value, str):
                value = value.split(",")
            kwargs[key] = _parse_strategies(value)
        elif key in _SCALAR_KEYS:
            kwargs[key] = None if value is None else _SCALAR_KEYS[key](value)
        else:
            raise ConfigError(f"unknown config key {key!r}")
    return ExperimentConfig(**kwargs)


def parse_kv_or_json(text: str) -> dict:
    """A JSON object when the text opens with '{', else key=value lines with
    '#' comments, keys and values stripped strings.

    Raises json.JSONDecodeError on malformed JSON and ValueError(line number,
    line) on a line without '='.
    """
    if text.lstrip().startswith("{"):
        return json.loads(text)  # text that opens with '{' parses to a dict
    doc = {}
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(ln, line)
        key, value = line.split("=", 1)
        doc[key.strip()] = value.strip()
    return doc


def load_config(path: str | os.PathLike) -> ExperimentConfig:
    """Read a config file: JSON, or key=value lines with '#' comments."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    try:
        doc = parse_kv_or_json(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"bad JSON config: {exc}") from None
    except ValueError as exc:
        ln, line = exc.args
        raise ConfigError(f"config line {ln}: expected key=value, "
                          f"got {line!r}") from None
    return config_from_dict(doc, os.path.dirname(os.path.abspath(path)))


def resolve_data_path(path: str, base_dir: str = ".") -> str:
    """Resolve a map or scenario path: as given, then relative to
    ``base_dir``, then under ``$MAPF_LAB_DATA``. Unresolved paths pass
    through so the caller reports the original name."""
    if os.path.isabs(path) or os.path.exists(path):
        return path
    candidate = os.path.join(base_dir, path)
    if os.path.exists(candidate):
        return candidate
    data_root = os.environ.get("MAPF_LAB_DATA")
    if data_root:
        candidate = os.path.join(data_root, path)
        if os.path.exists(candidate):
            return candidate
    return path


def validate_config(config: ExperimentConfig) -> dict[str, GridMap]:
    """Load every referenced file up front so bad configs fail before any run."""
    grids = {}
    for spec in config.maps:
        try:
            grid = load_map(spec.path)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"map {spec.path}: {exc}") from None
        for scen in spec.scens:
            try:
                load_scenario(scen, grid)
            except (OSError, ValueError) as exc:
                raise ConfigError(f"scenario {scen}: {exc}") from None
        grids[spec.path] = grid
    return grids


@dataclass(frozen=True)
class ExperimentRecord:
    map: str
    group: str
    resolution: int
    scenario: int
    agents: int
    strategy: str
    outcome: str
    time_ms: float
    cost: int | None
    nodes_expanded: int

    @property
    def key(self) -> tuple:
        return (self.map, self.resolution, self.scenario, self.agents,
                self.strategy)

    def to_row(self) -> list[str]:
        return [self.map, self.group, str(self.resolution), str(self.scenario),
                str(self.agents), self.strategy, self.outcome,
                f"{self.time_ms:.3f}",
                "" if self.cost is None else str(self.cost),
                str(self.nodes_expanded)]

    @classmethod
    def from_row(cls, row: dict[str, str]) -> "ExperimentRecord":
        return cls(map=row["map"], group=row["group"],
                   resolution=int(row["resolution"]),
                   scenario=int(row["scenario"]), agents=int(row["agents"]),
                   strategy=row["strategy"], outcome=row["outcome"],
                   time_ms=float(row["time_ms"]),
                   cost=int(row["cost"]) if row["cost"] else None,
                   nodes_expanded=int(row["nodes_expanded"]))


def generate_scenario_pairs(grid: GridMap, count: int, seed_key: str
                            ) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Sample up to ``count`` start/goal cell pairs: starts distinct, goals
    distinct, every goal reachable from its start. Deterministic in
    ``seed_key``."""
    if count <= 0:
        return []
    rng = random.Random(seed_key)
    labels = grid.component_labels()
    starts = sorted(labels)
    goals = sorted(labels)
    rng.shuffle(starts)
    rng.shuffle(goals)
    pairs = []
    used = [False] * len(goals)
    for start in starts:
        for k, goal in enumerate(goals):
            if not used[k] and labels[goal] == labels[start]:
                used[k] = True
                pairs.append((start, goal))
                break
        if len(pairs) == count:
            break
    return pairs


def _scenario_pairs(config: ExperimentConfig, spec: MapSpec, grid: GridMap,
                    scenario: int) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    if spec.scens:
        if scenario >= len(spec.scens):
            return []
        return load_scenario(spec.scens[scenario], grid)
    ceiling = config.max_agents if config.max_agents is not None \
        else grid.passable_count() // 3
    key = f"{config.seed}:{spec.name}:{scenario}"
    return generate_scenario_pairs(grid, ceiling, key)


def plan_file_name(map_name: str, resolution: int, scenario: int,
                   agents: int, strategy: str) -> str:
    return f"{map_name}-r{resolution}-s{scenario}-a{agents}-{strategy}.json"


def _write_plan(plans_dir: str, spec: MapSpec, roadmap: GridRoadmap,
                scenario: int, agents: int, strategy: Strategy,
                result) -> None:
    doc = result.to_json()
    doc.update({"map": spec.name, "map_path": os.path.abspath(spec.path),
                "resolution": roadmap.resolution,
                "robot_width": roadmap.robot_width, "scenario": scenario,
                "agents": agents})
    name = plan_file_name(spec.name, roadmap.resolution, scenario, agents,
                          strategy.value)
    with open(os.path.join(plans_dir, name), "w", encoding="ascii") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _escalate(config: ExperimentConfig, spec: MapSpec, grid: GridMap,
              resolution: int, scenario: int, strategy: Strategy,
              plans_dir: str | None = None) -> list[ExperimentRecord]:
    roadmap = build_roadmap(grid, resolution, config.robot_width)
    pairs = _scenario_pairs(config, spec, grid, scenario)
    budget = Budget(time_limit=config.time_limit, node_limit=config.node_limit,
                    low_level_budget=config.low_level_budget)
    records = []
    agents = config.agent_base
    while agents <= len(pairs) and \
            (config.max_agents is None or agents <= config.max_agents):
        try:
            instance = instance_from_cells(roadmap, pairs[:agents])
        except ValueError:
            break  # scenario prefix not realizable on this roadmap
        result = solve(instance, strategy, budget)
        records.append(ExperimentRecord(
            map=spec.name, group=spec.group, resolution=resolution,
            scenario=scenario, agents=agents, strategy=strategy.value,
            outcome=result.outcome.value,
            time_ms=result.stats.wall_time * 1000.0,
            cost=result.plan.cost if result.plan else None,
            nodes_expanded=result.stats.nodes_expanded))
        if plans_dir is not None and result.plan is not None:
            _write_plan(plans_dir, spec, roadmap, scenario, agents, strategy,
                        result)
        if result.outcome is not Outcome.SOLVED:
            break
        agents += config.agent_increment
    return records


def _tasks(config: ExperimentConfig) -> list[tuple]:
    tasks = []
    for spec in config.maps:
        for resolution in config.resolutions:
            for scenario in range(config.scenario_count):
                for strategy in config.strategies:
                    tasks.append((spec, resolution, scenario, strategy))
    return tasks


def _run_task(args) -> list[ExperimentRecord]:
    config, spec, resolution, scenario, strategy, plans_dir = args
    grid = load_map(spec.path)
    return _escalate(config, spec, grid, resolution, scenario, strategy,
                     plans_dir)


class _RecordWriter:
    """One records CSV per map, appended and flushed record by record."""

    def __init__(self, out_dir: str | None):
        self.out_dir = out_dir
        self.files: dict[str, tuple] = {}

    def write(self, record: ExperimentRecord) -> None:
        if self.out_dir is None:
            return
        entry = self.files.get(record.map)
        if entry is None:
            path = os.path.join(self.out_dir, f"records-{record.map}.csv")
            fh = open(path, "w", encoding="ascii", newline="")
            writer = csv.writer(fh)
            writer.writerow(RECORD_FIELDS)
            entry = (fh, writer)
            self.files[record.map] = entry
        fh, writer = entry
        writer.writerow(record.to_row())
        fh.flush()

    def close(self) -> None:
        for fh, _ in self.files.values():
            fh.close()


def run_experiment(config: ExperimentConfig, out_dir: str | None = None,
                   workers: int = 1) -> Iterator[ExperimentRecord]:
    """Run the escalation protocol; yield records as attempts finish.

    With ``out_dir`` set, the run directory receives one records CSV per map
    plus a plan JSON for every solved instance. With ``workers`` > 1,
    independent (map, resolution, scenario, strategy) combinations run in
    parallel processes; yield order stays canonical either way, so record
    files from repeated runs line up row for row.
    """
    validate_config(config)
    plans_dir = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        plans_dir = os.path.join(out_dir, "plans")
        os.makedirs(plans_dir, exist_ok=True)
    tasks = [(config, *t, plans_dir) for t in _tasks(config)]
    writer = _RecordWriter(out_dir)
    try:
        if workers <= 1:
            for batch in map(_run_task, tasks):
                for record in batch:
                    writer.write(record)
                    yield record
        else:
            with Pool(workers) as pool:
                for batch in pool.imap(_run_task, tasks):
                    for record in batch:
                        writer.write(record)
                        yield record
    finally:
        writer.close()


def read_records(path: str | os.PathLike) -> list[ExperimentRecord]:
    with open(path, "r", encoding="ascii", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or tuple(reader.fieldnames) != RECORD_FIELDS:
            raise AggregationError(f"unexpected record header in {path}")
        return [ExperimentRecord.from_row(row) for row in reader]


@dataclass(frozen=True)
class SuccessRate:
    group: str
    resolution: int
    strategy: str
    agents: int
    solved: int
    attempted: int

    @property
    def rate(self) -> float:
        return self.solved / self.attempted


@dataclass(frozen=True)
class RuntimeSeries:
    group: str
    resolution: int
    strategy: str
    times_ms: tuple[float, ...]  # sorted; one entry per solved instance


@dataclass(frozen=True)
class CostRatio:
    map: str
    resolution: int
    scenario: int
    agents: int
    cost_cbs: int
    cost_cbswp: int

    @property
    def ratio(self) -> float:
        return self.cost_cbswp / self.cost_cbs


@dataclass
class AggregateMetrics:
    success_rate: list[SuccessRate]
    runtime_instances: list[RuntimeSeries]
    cost_ratios: list[CostRatio]

    def to_json_dict(self) -> dict:
        return {
            "success_rate": [
                {"group": s.group, "resolution": s.resolution,
                 "strategy": s.strategy, "agents": s.agents,
                 "solved": s.solved, "attempted": s.attempted,
                 "rate": s.rate} for s in self.success_rate],
            "runtime_instances": [
                {"group": r.group, "resolution": r.resolution,
                 "strategy": r.strategy, "times_ms": list(r.times_ms)}
                for r in self.runtime_instances],
            "cost_ratios": [
                {"map": c.map, "resolution": c.resolution,
                 "scenario": c.scenario, "agents": c.agents,
                 "cost_cbs": c.cost_cbs, "cost_cbswp": c.cost_cbswp,
                 "ratio": c.ratio} for c in self.cost_ratios],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "AggregateMetrics":
        return cls(
            success_rate=[SuccessRate(s["group"], s["resolution"], s["strategy"],
                                      s["agents"], s["solved"], s["attempted"])
                          for s in doc["success_rate"]],
            runtime_instances=[RuntimeSeries(r["group"], r["resolution"],
                                             r["strategy"],
                                             tuple(r["times_ms"]))
                               for r in doc["runtime_instances"]],
            cost_ratios=[CostRatio(c["map"], c["resolution"], c["scenario"],
                                   c["agents"], c["cost_cbs"], c["cost_cbswp"])
                         for c in doc["cost_ratios"]],
        )


def aggregate(records: Iterable[ExperimentRecord]) -> AggregateMetrics:
    """Fold records into success rates, runtime series, and cost ratios.

    Cost ratios only cover (map, resolution, scenario, agents) cells where
    both strategies solved; a cell one strategy failed contributes nothing.
    """
    records = list(records)
    seen: set[tuple] = set()
    for record in records:
        if record.key in seen:
            raise AggregationError(
                f"duplicate record for {record.key}; mixed record sets?")
        seen.add(record.key)

    by_rate: dict[tuple, list[ExperimentRecord]] = {}
    by_series: dict[tuple, list[float]] = {}
    by_cell: dict[tuple, dict[str, ExperimentRecord]] = {}
    for record in records:
        by_rate.setdefault((record.group, record.resolution, record.strategy,
                            record.agents), []).append(record)
        if record.outcome == Outcome.SOLVED.value:
            by_series.setdefault((record.group, record.resolution,
                                  record.strategy), []).append(record.time_ms)
        cell = (record.map, record.resolution, record.scenario, record.agents)
        by_cell.setdefault(cell, {})[record.strategy] = record

    success = [SuccessRate(group, resolution, strategy, agents,
                           solved=sum(1 for r in recs
                                      if r.outcome == Outcome.SOLVED.value),
                           attempted=len(recs))
               for (group, resolution, strategy, agents), recs
               in sorted(by_rate.items())]
    series = [RuntimeSeries(group, resolution, strategy, tuple(sorted(times)))
              for (group, resolution, strategy), times
              in sorted(by_series.items())]
    ratios = []
    for cell in sorted(by_cell):
        pair = by_cell[cell]
        cbs = pair.get(Strategy.CBS.value)
        wp = pair.get(Strategy.CBSWP.value)
        if cbs and wp and cbs.outcome == Outcome.SOLVED.value \
                and wp.outcome == Outcome.SOLVED.value:
            ratios.append(CostRatio(cell[0], cell[1], cell[2], cell[3],
                                    cost_cbs=cbs.cost, cost_cbswp=wp.cost))
    return AggregateMetrics(success, series, ratios)


def export(metrics: AggregateMetrics, fmt: str, path: str | os.PathLike) -> list[str]:
    """Write metrics to disk. ``csv`` writes one file per table under ``path``
    (a directory); ``json`` writes a single file. Returns written paths."""
    if fmt == "json":
        with open(path, "w", encoding="ascii") as fh:
            json.dump(metrics.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return [str(path)]
    if fmt != "csv":
        raise ValueError(f"unknown export format {fmt!r}")
    os.makedirs(path, exist_ok=True)
    written = []
    tables = {
        "success_rate.csv": (
            ("group", "resolution", "strategy", "agents", "solved",
             "attempted", "rate"),
            [(s.group, s.resolution, s.strategy, s.agents, s.solved,
              s.attempted, f"{s.rate:.6f}") for s in metrics.success_rate]),
        "runtime_instances.csv": (
            ("group", "resolution", "strategy", "instances_solved", "time_ms"),
            [(r.group, r.resolution, r.strategy, i + 1, f"{t:.3f}")
             for r in metrics.runtime_instances
             for i, t in enumerate(r.times_ms)]),
        "cost_ratios.csv": (
            ("map", "resolution", "scenario", "agents", "cost_cbs",
             "cost_cbswp", "ratio"),
            [(c.map, c.resolution, c.scenario, c.agents, c.cost_cbs,
              c.cost_cbswp, f"{c.ratio:.6f}") for c in metrics.cost_ratios]),
    }
    for name, (header, rows) in tables.items():
        file_path = os.path.join(path, name)
        with open(file_path, "w", encoding="ascii", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        written.append(file_path)
    return written
