"""Command-line surface for the package.

Subcommands: ``solve`` a single instance, ``bench`` a full experiment
config, ``topology`` a map, ``validate`` a plan JSON, ``roadmap`` a map's
connectivity graph. Machine-readable JSON goes to stdout (or ``--out``),
diagnostics go to stderr. Exit codes: 0 on success, 1 on a domain failure
(infeasible, timeout, conflicts found), 2 on usage errors and on input
files that cannot be read, decoded or parsed.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import json
import os
import sys
import time
from collections import Counter
from pathlib import Path

from .bench import (ConfigError, aggregate, export, generate_scenario_pairs,
                    load_config, map_name, read_fields, read_kv_or_json,
                    resolve_data_path, run_experiment, write_plan)
from .conflicts import (AgentPath, PlanValidationError, TeamPlan,
                        check_path_shape, iter_conflicts)
from .highlevel import Budget, Outcome, Strategy, solve
from .mapio import MapFormatError, ScenarioFormatError, load_map, load_scenario
from .roadmap import DEFAULT_ROBOT_WIDTH, build_roadmap, instance_from_cells
from .topology import ClassifierConfig, betweenness, classify, emit_heatmap


class CliError(Exception):
    """User-facing failure; message goes to stderr, exit_code to the shell."""

    def __init__(self, message: str, exit_code: int = 2):
        super().__init__(message)
        self.exit_code = exit_code


def _load(what: str, path: str, load, *args):
    """``load(path, *args)``: every file a command reads comes in here, and
    a file that cannot be read, decoded or parsed exits 2 naming it."""
    try:
        return load(path, *args)
    except OSError as exc:
        raise CliError(f"cannot read {what} {path!r}: {exc.strerror or exc}")
    except ValueError as exc:  # format errors, UnicodeDecodeError, ConfigError
        raise CliError(f"bad {what} {path!r}: {exc}")


def _save(what: str, path: str, save, *args, **fields):
    """``save(path, *args, **fields)``, exiting 2 on a path it cannot write."""
    try:
        return save(path, *args, **fields)
    except OSError as exc:
        raise CliError(f"cannot write {what} {path!r}: {exc.strerror or exc}")


def _writable(path: str) -> None:
    """Raise the OSError that opening ``path`` for writing would, as far as
    that shows without creating or truncating the file."""
    if os.path.isdir(path):
        code = errno.EISDIR
    elif os.path.exists(path):
        code = 0 if os.access(path, os.W_OK) else errno.EACCES
    else:
        parent = os.path.dirname(path) or os.curdir
        code = errno.ENOENT if not os.path.isdir(parent) else \
            0 if os.access(parent, os.W_OK | os.X_OK) else errno.EACCES
    if code:
        raise OSError(code, os.strerror(code), path)


def _load_grid(path: str):
    return _load("map", resolve_data_path(path), load_map)


def _build_roadmap(grid, resolution: int, robot_width: float = DEFAULT_ROBOT_WIDTH):
    try:
        return build_roadmap(grid, resolution, robot_width)
    except ValueError as exc:
        raise CliError(str(exc))


# ---------------------------------------------------------------- solve


def cmd_solve(args) -> int:
    if args.agents < 1:
        raise CliError("--agents must be at least 1")
    if not args.time_limit > 0:
        raise CliError("--time-limit must be positive")
    grid = _load_grid(args.map)
    roadmap = _build_roadmap(grid, args.resolution)
    if args.scen:
        pairs = _load("scenario", resolve_data_path(args.scen), load_scenario,
                      grid)
    else:
        key = f"{args.seed}:{map_name(args.map)}:0"
        pairs = generate_scenario_pairs(grid, args.agents, key)
    if args.agents > len(pairs):
        raise CliError(f"requested {args.agents} agents but only "
                       f"{len(pairs)} start/goal pairs are available")
    try:
        instance = instance_from_cells(roadmap, pairs[:args.agents])
    except ValueError as exc:
        raise CliError(f"unusable start/goal pairs: {exc}")

    result = solve(instance, args.strategy, Budget(time_limit=args.time_limit))
    if result.plan is not None and args.out:
        _save("plan", args.out, write_plan, result, roadmap,
              resolve_data_path(args.map), agents=args.agents, scen=args.scen)
        print(f"plan written to {args.out}", file=sys.stderr)
    doc = result.to_json()
    doc.pop("paths", None)
    print(json.dumps(doc, indent=2))
    return 0 if result.outcome is Outcome.SOLVED else 1


# ---------------------------------------------------------------- bench


def cmd_bench(args) -> int:
    if args.workers < 1:
        raise CliError("--workers must be at least 1")
    config = _load("config", args.config, load_config)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.time_limit is not None:
        overrides["time_limit"] = args.time_limit
    if overrides:
        try:
            config = dataclasses.replace(config, **overrides)
        except ConfigError as exc:
            raise CliError(str(exc))

    records = []
    try:
        for record in run_experiment(config, out_dir=args.out,
                                     workers=args.workers):
            records.append(record)
            print(f"{record.map} r={record.resolution} s={record.scenario} "
                  f"{record.strategy} a={record.agents}: {record.outcome} "
                  f"({record.time_ms:.1f} ms)", file=sys.stderr)
    except (OSError, MapFormatError, ScenarioFormatError, ConfigError) as exc:
        raise CliError(f"benchmark aborted: {exc}")

    agg_path = os.path.join(args.out, "aggregate.json")
    export(aggregate(records), "json", agg_path)
    outcomes = Counter(record.outcome for record in records)
    print(json.dumps({"records": len(records), "outcomes": outcomes,
                      "out_dir": args.out, "aggregate": agg_path}, indent=2))
    return 0


# ---------------------------------------------------------------- topology


def _thresholds(args) -> ClassifierConfig:
    doc: dict = {}
    if args.thresholds:
        doc.update(_load("thresholds", args.thresholds, read_kv_or_json))
    for item in args.set or []:
        if "=" not in item:
            raise CliError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        doc[key.strip()] = value.strip()

    try:
        return ClassifierConfig(**read_fields(ClassifierConfig, doc,
                                              "threshold"))
    except ValueError as exc:  # ConfigError too
        raise CliError(str(exc))


def cmd_topology(args) -> int:
    grid = _load_grid(args.map)
    roadmap = _build_roadmap(grid, args.resolution)
    config = _thresholds(args)
    if args.out:  # before the betweenness run, which can take minutes
        _save("heatmap", args.out, _writable)
    try:
        started = time.perf_counter()
        field = betweenness(roadmap.adjacency, sample=args.sample,
                            seed=args.seed)
        betweenness_s = time.perf_counter() - started
        label = classify(roadmap, field, config)
    except ValueError as exc:
        raise CliError(str(exc))
    doc = label.to_json()
    doc["map"] = map_name(args.map)
    doc["resolution"] = args.resolution
    doc["betweenness_s"] = betweenness_s
    doc["sources"] = roadmap.vertex_count if args.sample is None \
        else args.sample
    if args.out:
        doc["heatmap"] = args.out
        doc["heatmap_rows"] = _save("heatmap", args.out, lambda path:
                                    emit_heatmap(roadmap, field, path))
    print(json.dumps(doc, indent=2))
    return 0


# ---------------------------------------------------------------- validate


def _is_int(value) -> bool:
    """A JSON integer: true and false read as Python ints, but are no ids."""
    return isinstance(value, int) and not isinstance(value, bool)


def _paths_from_doc(doc, source: str) -> list[AgentPath]:
    if not isinstance(doc, dict) or "paths" not in doc:
        raise CliError(f"{source}: plan JSON needs a 'paths' array")
    raw = doc["paths"]
    if not isinstance(raw, list) or not raw:
        raise CliError(f"{source}: 'paths' must be a non-empty array")
    paths = []
    for i, entry in enumerate(raw):
        if (not isinstance(entry, dict) or "agent" not in entry
                or "states" not in entry):
            raise CliError(f"{source}: paths[{i}] needs 'agent' and 'states'")
        agent, states = entry["agent"], entry["states"]
        if not _is_int(agent):
            raise CliError(f"{source}: paths[{i}].agent must be an integer")
        if (not isinstance(states, list) or not states
                or not all(map(_is_int, states))):
            raise CliError(f"{source}: paths[{i}].states must be a non-empty "
                           "array of vertex ids")
        if any(path.agent_id == agent for path in paths):
            raise CliError(f"{source}: paths[{i}] repeats agent {agent}")
        paths.append(AgentPath(agent, tuple(states)))
    return paths


def cmd_validate(args) -> int:
    grid = _load_grid(args.map)
    doc = _load("plan", args.plan,
                lambda path: json.loads(Path(path).read_text("utf-8-sig")))
    paths = _paths_from_doc(doc, args.plan)
    if "map" in doc and doc["map"] != map_name(args.map):
        raise CliError(f"{args.plan}: plan is for map {doc['map']!r}, but "
                       f"--map names {map_name(args.map)!r}")
    # Plans written before the fields existed were solved at the defaults.
    width = doc.get("robot_width", DEFAULT_ROBOT_WIDTH)
    if isinstance(width, bool) or not isinstance(width, (int, float)) \
            or not 0 < width <= 1:
        raise CliError(f"{args.plan}: robot_width must be a number in "
                       f"(0, 1], got {width!r}")
    if "resolution" not in doc:
        resolution = 1 if args.resolution is None else args.resolution
    else:
        resolution = doc["resolution"]
        if not _is_int(resolution) or resolution < 1:
            raise CliError(f"{args.plan}: resolution must be a positive "
                           f"integer, got {resolution!r}")
        if args.resolution is not None and args.resolution != resolution:
            raise CliError(f"{args.plan}: resolution is {resolution}, but "
                           f"--resolution {args.resolution} was given")
    roadmap = _build_roadmap(grid, resolution, width)
    try:
        for path in paths:
            check_path_shape(path, roadmap)
    except PlanValidationError as exc:
        raise CliError(f"{args.plan}: invalid plan: {exc}")
    # Overlapping endpoints surface here as vertex conflicts.
    plan = TeamPlan(tuple(paths))
    conflicts = list(iter_conflicts(plan, roadmap))
    report = {
        "map": map_name(args.map),
        "resolution": resolution,
        "robot_width": width,
        "agents": len(paths),
        "cost": plan.cost,
        "makespan": plan.makespan,
        "conflict_count": len(conflicts),
        "conflicts": [c.to_json() for c in conflicts],
    }
    print(json.dumps(report, indent=2))
    return 0 if not conflicts else 1


# ---------------------------------------------------------------- roadmap


def cmd_roadmap(args) -> int:
    grid = _load_grid(args.map)
    roadmap = _build_roadmap(grid, args.resolution, args.robot_width)
    text = json.dumps(roadmap.to_json_dict(), indent=2)
    if args.out:
        _save("roadmap", args.out, lambda path: Path(path).write_text(
            text + "\n", encoding="ascii"))
    else:
        print(text)
    return 0


# ---------------------------------------------------------------- parser


def _add_map_flags(sub, resolution_default: int | None = 1) -> None:
    sub.add_argument("--map", required=True, help="map file (.map); bare "
                     "names also resolve under $MAPF_LAB_DATA")
    # Without a default the flag only stands in for a missing file field.
    note = "(default %(default)s)" if resolution_default is not None \
        else "for plan files without a 'resolution' field (default 1)"
    sub.add_argument("--resolution", type=int, default=resolution_default,
                     metavar="R", help=f"roadmap vertices per cell side {note}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mapf-lab",
        description="Multi-agent pathfinding laboratory: solve instances, "
                    "run benchmark suites, analyze map topology, and audit "
                    "plans.")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command")

    p = sub.add_parser("solve", help="solve one instance and print the result")
    _add_map_flags(p)
    p.add_argument("--scen", help="scenario file (.scen); omit to sample "
                   "start/goal pairs with --seed")
    p.add_argument("--agents", type=int, required=True, metavar="N",
                   help="number of agents")
    p.add_argument("--strategy", choices=[s.value for s in Strategy],
                   default=Strategy.CBS.value,
                   help="conflict resolution strategy (default %(default)s)")
    p.add_argument("--time-limit", type=float, default=60.0, metavar="SEC",
                   help="wall-clock budget (default %(default)s)")
    p.add_argument("--seed", type=int, default=0,
                   help="pair-sampling seed when --scen is omitted")
    p.add_argument("--out", metavar="FILE",
                   help="write the full plan JSON here when solved")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bench", help="run an experiment config end to end")
    p.add_argument("config", help="experiment config file (JSON or key=value)")
    p.add_argument("--out", required=True, metavar="DIR",
                   help="run directory for records, plans, and aggregate.json")
    p.add_argument("--workers", type=int, default=1, metavar="N",
                   help="parallel worker processes (default %(default)s)")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--time-limit", type=float, metavar="SEC",
                   help="override the config per-attempt time limit")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("topology", help="label a map's structure from its "
                       "betweenness field")
    _add_map_flags(p)
    p.add_argument("--thresholds", metavar="FILE",
                   help="classifier thresholds (JSON or key=value)")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override one classifier threshold (repeatable)")
    p.add_argument("--sample", type=int, metavar="N",
                   help="estimate betweenness from N sampled sources")
    p.add_argument("--seed", type=int, default=0, help="sampling seed")
    p.add_argument("--out", metavar="FILE", help="write an x,y,bc heatmap CSV")
    p.set_defaults(func=cmd_topology)

    p = sub.add_parser("validate", help="audit a plan JSON for conflicts")
    _add_map_flags(p, resolution_default=None)
    p.add_argument("plan", help="plan JSON produced by solve or bench")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("roadmap", help="emit a map's roadmap as JSON")
    _add_map_flags(p)
    p.add_argument("--robot-width", type=float, default=DEFAULT_ROBOT_WIDTH,
                   metavar="W", help="square body width in cell units "
                   "(default %(default)s)")
    p.add_argument("--out", metavar="FILE",
                   help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_roadmap)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except CliError as exc:
        print(f"mapf-lab: error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
