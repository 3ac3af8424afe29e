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
from contextlib import ExitStack
from dataclasses import asdict, astuple, dataclass, field, fields
from multiprocessing import Pool
from typing import Iterable, Iterator, get_args, get_type_hints

from .highlevel import Budget, Outcome, SolveResult, Strategy, solve
from .mapio import GridMap, load_map, load_scenario
from .roadmap import (DEFAULT_ROBOT_WIDTH, GridRoadmap, build_roadmap,
                      instance_from_cells)

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
        return map_name(self.path)


def map_name(path: str) -> str:
    """A map's name: its file name without directory or extension."""
    return os.path.splitext(os.path.basename(path))[0]


@dataclass
class ExperimentConfig:
    maps: list[MapSpec]
    resolutions: list[int] = field(default_factory=lambda: [1, 2, 4])
    scenario_count: int = 5
    agent_base: int = 4
    agent_increment: int = 4
    max_agents: int | None = None
    time_limit: float | None = 60.0
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
        names = [spec.name for spec in self.maps]
        for name in names:
            # Records CSVs and plan files are named after the map.
            if names.count(name) > 1:
                raise ConfigError(f"two maps are named {name!r}; map file "
                                  "names must be unique within a config")
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
        if self.max_agents is not None and self.max_agents < self.agent_base:
            raise ConfigError(f"max_agents {self.max_agents} is below "
                              f"agent_base {self.agent_base}")


def _items(value) -> list:
    """A JSON list as given, or a string's non-empty comma-separated pieces."""
    if isinstance(value, str):
        return [v for v in value.split(",") if v.strip()]
    return list(value)


def _map_spec(entry, base_dir: str) -> MapSpec:
    try:
        if isinstance(entry, str):
            path, group = entry.rsplit(":", 1)
            scens = ()
        else:
            path, group = entry["path"], entry["group"]
            scens = entry.get("scens", ())
        return MapSpec(resolve_data_path(path.strip(), base_dir), group.strip(),
                       tuple(resolve_data_path(s.strip(), base_dir)
                             for s in _items(scens)))
    except (AttributeError, KeyError, TypeError, ValueError):
        raise ConfigError(f"map entry {entry!r} needs the form path:group or "
                          "an object with 'path', 'group' and optional "
                          "'scens'") from None


def read_typed(hint, value):
    """``value`` read strictly as ``hint``, a dataclass field's annotation:
    ``int`` or ``float``, maybe ``| None``, or a list of one (read per item).
    A bool is no number, and a float is an int only when whole; raises
    ValueError for a value that does not read."""
    kind, *nullable = get_args(hint) or (hint,)
    if value is None and nullable:
        return None
    try:
        if isinstance(value, bool) or (kind is int and isinstance(value, float)
                                       and not value.is_integer()):
            raise ValueError
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"cannot read {value!r} as {kind.__name__}") from None


def config_from_dict(doc: dict, base_dir: str = ".") -> ExperimentConfig:
    if "maps" not in doc:
        raise ConfigError("config needs a 'maps' entry")
    hints = get_type_hints(ExperimentConfig)
    kwargs: dict = {}
    for key, value in doc.items():
        if key not in hints:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            if key == "maps":
                kwargs[key] = [_map_spec(e, base_dir) for e in _items(value)]
            elif key == "strategies":
                kwargs[key] = [Strategy(v.strip() if isinstance(v, str) else v)
                               for v in _items(value)]
            elif key == "resolutions":
                kwargs[key] = [read_typed(hints[key], v)
                               for v in _items(value)]
            else:
                kwargs[key] = read_typed(hints[key], value)
        except ConfigError:
            raise
        except (TypeError, ValueError):
            raise ConfigError(f"config key {key!r}: cannot read "
                              f"{value!r}") from None
    return ExperimentConfig(**kwargs)


def read_kv_or_json(path: str | os.PathLike) -> dict:
    """A UTF-8 file's JSON object when its text opens with '{', else its
    key=value lines with '#' comments, keys and values stripped strings.

    Raises ValueError with a finished message on undecodable bytes,
    malformed JSON or a line without '='.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        try:
            return json.loads(text)  # text that opens with '{' parses to a dict
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed JSON: {exc}") from None
    doc = {}
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {ln}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        doc[key.strip()] = value.strip()
    return doc


def load_config(path: str | os.PathLike) -> ExperimentConfig:
    """Read a config file: JSON, or key=value lines with '#' comments."""
    try:
        doc = read_kv_or_json(path)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except ValueError as exc:  # undecodable bytes or a malformed line
        raise ConfigError(str(exc)) from None
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
    goal_levels: int = 0
    pair_scans: int = 0

    @property
    def key(self) -> tuple:
        return (self.map, self.resolution, self.scenario, self.agents,
                self.strategy)

    def to_row(self) -> list[str]:
        return ["" if v is None else f"{v:.3f}" if isinstance(v, float)
                else str(v) for v in astuple(self)]


RECORD_FIELDS = tuple(f.name for f in fields(ExperimentRecord))


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


def write_plan(path: str, result: SolveResult, roadmap: GridRoadmap,
               map_path: str, **fields) -> None:
    """Write a solved result as a plan file: the result JSON with its paths,
    then the map and the roadmap geometry ``validate`` rebuilds, then
    ``fields`` in the order given."""
    doc = result.to_json()
    doc.update({"map": map_name(map_path),
                "map_path": os.path.abspath(map_path),
                "resolution": roadmap.resolution,
                "robot_width": roadmap.robot_width, **fields})
    with open(path, "w", encoding="ascii") as fh:
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
            nodes_expanded=result.stats.nodes_expanded,
            goal_levels=result.stats.goal_levels,
            pair_scans=result.stats.pair_scans))
        if plans_dir is not None and result.plan is not None:
            name = plan_file_name(spec.name, resolution, scenario, agents,
                                  strategy.value)
            write_plan(os.path.join(plans_dir, name), result, roadmap,
                       spec.path, scenario=scenario, agents=agents)
        if result.outcome is not Outcome.SOLVED:
            break
        agents += config.agent_increment
    return records


def _run_task(args) -> list[ExperimentRecord]:
    return _escalate(*args)


def run_experiment(config: ExperimentConfig, out_dir: str | None = None,
                   workers: int = 1) -> Iterator[ExperimentRecord]:
    """Run the escalation protocol; yield records as attempts finish.

    With ``out_dir`` set, the run directory, which must be new or empty,
    receives one records CSV per map plus a plan JSON for every solved
    instance. With ``workers`` > 1, independent (map, resolution, scenario,
    strategy) combinations run in parallel processes; yield order stays
    canonical either way, so record files from repeated runs line up row
    for row.
    """
    grids = validate_config(config)
    plans_dir = None
    if out_dir is not None:
        if os.path.isdir(out_dir) and os.listdir(out_dir):
            # An earlier run's records and plans would mix with this run's.
            raise ConfigError(f"run directory {out_dir} is not empty")
        plans_dir = os.path.join(out_dir, "plans")
        os.makedirs(plans_dir)
    tasks = [(config, spec, grids[spec.path], resolution, scenario, strategy,
              plans_dir)
             for spec in config.maps for resolution in config.resolutions
             for scenario in range(config.scenario_count)
             for strategy in config.strategies]
    with ExitStack() as stack:
        run = map if workers <= 1 else stack.enter_context(Pool(workers)).imap
        files = {}  # map name -> its open records CSV
        for batch in run(_run_task, tasks):
            for record in batch:
                if out_dir is not None:
                    fh = files.get(record.map)
                    if fh is None:
                        fh = files[record.map] = stack.enter_context(open(
                            os.path.join(out_dir, f"records-{record.map}.csv"),
                            "w", encoding="ascii", newline=""))
                        csv.writer(fh).writerow(RECORD_FIELDS)
                    csv.writer(fh).writerow(record.to_row())
                    fh.flush()  # a crashed run keeps its finished records
                yield record


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
        """The three tables as JSON rows, each success rate with its ``rate``
        and each cost ratio with its ``ratio``."""
        doc = asdict(self)
        for row in doc["runtime_instances"]:
            row["times_ms"] = list(row["times_ms"])
        for row, rate in zip(doc["success_rate"], self.success_rate):
            row["rate"] = rate.rate
        for row, ratio in zip(doc["cost_ratios"], self.cost_ratios):
            row["ratio"] = ratio.ratio
        return doc


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
