"""Benchmark harness: configs, scenario generation, escalation, aggregation."""

import csv
import glob
import json
import os
import random

import pytest

from mapf_lab import build_roadmap, instance_from_cells, load_map
from mapf_lab.bench import (
    AggregationError,
    ConfigError,
    CostRatio,
    ExperimentConfig,
    ExperimentRecord,
    MapSpec,
    RECORD_FIELDS,
    RuntimeSeries,
    SuccessRate,
    aggregate,
    config_from_dict,
    export,
    generate_scenario_pairs,
    load_config,
    plan_file_name,
    resolve_data_path,
    run_experiment,
    validate_config,
)
from mapf_lab.cli import main as cli_main
from mapf_lab.conflicts import AgentPath, TeamPlan, validate_plan
from mapf_lab.highlevel import Strategy
from mapf_lab.mapgen import FIXTURES
from mapf_lab.mapio import load_scenario, write_scenario

from helpers import cell_components, grid_from


def write_fixture(tmp_path, name, rows):
    grid = grid_from(rows)
    path = tmp_path / f"{name}.map"
    path.write_text(grid.to_text())
    return grid, str(path)


# ------------------------------------------------------------------ configs

def test_json_and_keyvalue_configs_agree(tmp_path, data_dir):
    json_path = tmp_path / "exp.json"
    json_path.write_text(json.dumps({
        "maps": [{"path": f"{data_dir}/empty-8-8.map", "group": "empty"}],
        "resolutions": [1, 2],
        "scenario_count": 3,
        "agent_base": 2,
        "agent_increment": 2,
        "time_limit": 5,
        "strategies": ["cbs"],
        "seed": 9,
    }))
    kv_path = tmp_path / "exp.cfg"
    kv_path.write_text(
        f"# comment line\n"
        f"maps = {data_dir}/empty-8-8.map:empty\n"
        "resolutions = 1,2\n"
        "scenario_count = 3\n"
        "agent_base = 2\n"
        "agent_increment = 2\n"
        "time_limit = 5  # trailing comment\n"
        "strategies = cbs\n"
        "seed = 9\n")
    assert load_config(json_path) == load_config(kv_path)
    config = load_config(kv_path)
    assert config.resolutions == [1, 2]
    assert config.strategies == [Strategy.CBS]
    assert config.time_limit == 5.0
    assert config.maps[0].group == "empty"
    assert config.maps[0].name == "empty-8-8"
    # A key=value maps entry splits on commas, skipping empty pieces.
    two_maps = tmp_path / "two.cfg"
    two_maps.write_text(f"maps = {data_dir}/empty-8-8.map:empty, "
                        f"{data_dir}/maze-32-32-2.map:maze,\n")
    assert [(m.name, m.group) for m in load_config(two_maps).maps] == \
        [("empty-8-8", "empty"), ("maze-32-32-2", "maze")]


def test_config_paths_resolve_relative_to_file(tmp_path):
    _, map_path = write_fixture(tmp_path, "room", ["...", "...", "..."])
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("maps = room.map:rooms\n")
    config = load_config(cfg)
    assert config.maps[0].path == str(tmp_path / "room.map")
    assert validate_config(config)[config.maps[0].path].width == 3


def test_config_error_cases(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.cfg")
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{ nope")
    with pytest.raises(ConfigError):
        load_config(bad_json)
    with pytest.raises(ConfigError):
        config_from_dict({})
    with pytest.raises(ConfigError):
        config_from_dict({"maps": ["no-group-separator"]})
    with pytest.raises(ConfigError):
        config_from_dict({"maps": ["a.map:g"], "mystery_knob": 3})
    no_eq = tmp_path / "line.cfg"
    no_eq.write_text("maps a.map:g\n")
    with pytest.raises(ConfigError):
        load_config(no_eq)
    with pytest.raises(ConfigError):
        config_from_dict({"maps": []})


def test_config_rejects_out_of_range_values(tmp_path):
    # Each of these used to load and then crash or time out every attempt.
    for key, value in (("robot_width", 2), ("robot_width", 0),
                       ("time_limit", -1), ("time_limit", 0),
                       ("time_limit", float("nan")), ("node_limit", 0),
                       ("max_agents", 0), ("low_level_budget", 0),
                       ("low_level_budget", None)):
        with pytest.raises(ConfigError, match=key):
            config_from_dict({"maps": ["a.map:g"], key: value})
    wide = tmp_path / "wide.cfg"
    wide.write_text("maps = a.map:g\nrobot_width = 2\n")
    with pytest.raises(ConfigError, match="robot_width"):
        load_config(wide)
    # The limits that may be left unset still may be.
    config = config_from_dict({"maps": ["a.map:g"], "robot_width": 1,
                               "node_limit": None, "max_agents": None,
                               "time_limit": None})
    assert config.robot_width == 1 and config.time_limit is None


def test_config_rejects_max_agents_below_agent_base():
    # Escalation starts at agent_base, so no attempt would ever run.
    with pytest.raises(ConfigError, match="max_agents 2 is below agent_base 4"):
        config_from_dict({"maps": ["a.map:g"], "max_agents": 2})
    config = config_from_dict({"maps": ["a.map:g"], "max_agents": 4})
    assert config.max_agents == config.agent_base


def test_config_rejects_values_of_the_wrong_type(tmp_path):
    # Each of these used to escape as a ValueError, TypeError or KeyError.
    for doc, named in (({"maps": ["a.map:g"], "seed": "abc"}, "'seed'"),
                       ({"maps": ["a.map:g"], "resolutions": 5},
                        "'resolutions'"),
                       ({"maps": ["a.map:g"], "strategies": ["astar"]},
                        "'strategies'"),
                       ({"maps": 5}, "'maps'"),
                       ({"maps": [{"path": "a.map"}]}, "map entry"),
                       ({"maps": [{"path": "a.map", "group": 3}]},
                        "map entry"),
                       ({"maps": [7]}, "map entry")):
        with pytest.raises(ConfigError, match=named):
            config_from_dict(doc)
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("maps = a.map:g\nseed = abc\n")
    with pytest.raises(ConfigError, match="'seed'"):
        load_config(cfg)


def test_config_reads_json_numbers_strictly():
    # These used to read silently as another value (2.9 as 2, true as 1) or
    # escape as a TypeError or OverflowError.
    for key, value in (("agent_base", 2.9), ("max_agents", True),
                       ("robot_width", True), ("resolutions", [2.5]),
                       ("resolutions", [True]), ("agent_base", None),
                       ("seed", float("inf"))):
        with pytest.raises(ConfigError,
                           match=f"config key '{key}': cannot read"):
            config_from_dict({"maps": ["a.map:g"], key: value})
    # JSON ints for float fields and whole floats for int fields still read.
    config = config_from_dict({"maps": ["a.map:g"], "agent_increment": 2.0,
                               "robot_width": 1, "resolutions": [1, "2"]})
    assert config.agent_increment == 2 and config.resolutions == [1, 2]
    assert config.robot_width == 1.0 and isinstance(config.robot_width, float)


def test_config_error_messages_name_the_line(tmp_path):
    cfg = tmp_path / "exp.cfg"
    for data, message in ((b"maps = a.map:g\nwarm\n",
                           "line 2: expected key=value, got 'warm'"),
                          (b'{"maps": ', "malformed JSON: "),
                          (b"maps = a.map:caf\xe9\n", "can't decode")):
        cfg.write_bytes(data)
        with pytest.raises(ConfigError, match=message):
            load_config(cfg)


def test_config_rejects_maps_that_share_a_name():
    # Records CSVs and plan files are named after the map's file stem.
    with pytest.raises(ConfigError, match="'empty-8-8'"):
        config_from_dict({"maps": ["data/empty-8-8.map:small",
                                   "other/empty-8-8.map:big"]})
    with pytest.raises(ConfigError, match="'room'"):
        ExperimentConfig(maps=[MapSpec("room.map", "a"),
                               MapSpec("room.map", "b")])
    config = config_from_dict({"maps": ["a/room.map:g", "a/room-2.map:g"]})
    assert [spec.name for spec in config.maps] == ["room", "room-2"]


def test_validate_config_rejects_missing_inputs(tmp_path):
    config = ExperimentConfig(maps=[MapSpec(str(tmp_path / "ghost.map"), "g")])
    with pytest.raises(ConfigError):
        validate_config(config)
    grid, map_path = write_fixture(tmp_path, "ok", ["..", ".."])
    config = ExperimentConfig(
        maps=[MapSpec(map_path, "g", (str(tmp_path / "ghost.scen"),))])
    with pytest.raises(ConfigError):
        validate_config(config)


def test_data_path_resolution(tmp_path, monkeypatch):
    base = tmp_path / "base"
    store = tmp_path / "store"
    base.mkdir()
    store.mkdir()
    (base / "near.map").write_text("x")
    (store / "far.map").write_text("x")
    monkeypatch.setenv("MAPF_LAB_DATA", str(store))
    assert resolve_data_path("near.map", str(base)) == str(base / "near.map")
    assert resolve_data_path("far.map", str(base)) == str(store / "far.map")
    absolute = str(base / "near.map")
    assert resolve_data_path(absolute, "/nowhere") == absolute
    assert resolve_data_path("nowhere.map", str(base)) == "nowhere.map"
    monkeypatch.delenv("MAPF_LAB_DATA")
    assert resolve_data_path("far.map", str(base)) == "far.map"


# -------------------------------------------------------- scenario sampling

def test_generated_pairs_are_deterministic_and_valid():
    grid = grid_from(["....#...",
                      "..#.....",
                      "....##..",
                      "........"])
    pairs = generate_scenario_pairs(grid, 8, "0:demo:3")
    again = generate_scenario_pairs(grid, 8, "0:demo:3")
    assert pairs == again
    assert len(pairs) == 8
    starts = [p[0] for p in pairs]
    goals = [p[1] for p in pairs]
    assert len(set(starts)) == len(starts)
    assert len(set(goals)) == len(goals)
    labels = cell_components(grid)
    for start, goal in pairs:
        assert labels[start] == labels[goal]
    other = generate_scenario_pairs(grid, 8, "0:demo:4")
    assert other != pairs


def test_generated_pairs_respect_supply():
    grid = grid_from(["..", ".."])
    assert len(generate_scenario_pairs(grid, 99, "k")) == 4
    assert generate_scenario_pairs(grid, 0, "k") == []


def test_bundled_fixtures_regenerate_identically(data_dir):
    # The bundled maps and scenario files came from mapgen; regenerating
    # them must give the same maps (random_map retries until its free space
    # is one component) and the same scenario pairs.
    for name, make in FIXTURES.items():
        grid = make()
        with open(f"{data_dir}/{name}", encoding="ascii") as fh:
            assert grid.to_text() == fh.read(), name
        stem = name[:-len(".map")]
        pairs = generate_scenario_pairs(
            grid, min(grid.passable_count() // 3, 48), f"0:{stem}:scenfile")
        assert pairs == load_scenario(f"{data_dir}/{stem}.scen", grid), name


# --------------------------------------------------------------- escalation

def corridor_config(tmp_path, pairs, **overrides):
    """Corridor plus a sealed-off side room, scen file pinning agent order."""
    grid, map_path = write_fixture(tmp_path, "corridor", [".....#.."])
    scen_path = tmp_path / "corridor.scen"
    write_scenario(scen_path, "corridor", grid, pairs)
    defaults = dict(
        maps=[MapSpec(map_path, "tube", (str(scen_path),))],
        resolutions=[1], scenario_count=1, agent_base=2, agent_increment=2,
        strategies=[Strategy.CBS], time_limit=10.0)
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def test_escalation_stops_at_first_failure(tmp_path):
    # Two easy tasks first; the third agent's goal sits behind the wall, so
    # the 4-agent attempt is infeasible and no larger team is tried.
    config = corridor_config(tmp_path, [
        ((0, 0), (1, 0)), ((3, 0), (4, 0)),
        ((6, 0), (0, 0)), ((7, 0), (7, 0)),
    ])
    records = list(run_experiment(config))
    assert [(r.agents, r.outcome) for r in records] == [
        (2, "solved"), (4, "infeasible")]
    assert records[0].cost == 2
    assert records[0].strategy == "cbs"
    assert records[1].cost is None
    assert all(r.map == "corridor" and r.group == "tube" for r in records)


def test_escalation_records_nothing_beyond_a_failed_base(tmp_path):
    config = corridor_config(tmp_path, [
        ((0, 0), (6, 0)), ((1, 0), (1, 0)),
        ((3, 0), (3, 0)), ((4, 0), (4, 0)),
    ])
    records = list(run_experiment(config))
    assert [(r.agents, r.outcome) for r in records] == [(2, "infeasible")]


def test_escalation_honors_max_agents(tmp_path):
    config = corridor_config(
        tmp_path,
        [((0, 0), (0, 0)), ((4, 0), (4, 0)), ((2, 0), (2, 0)),
         ((1, 0), (1, 0))],
        max_agents=3, agent_base=1, agent_increment=1)
    records = list(run_experiment(config))
    assert [r.agents for r in records] == [1, 2, 3]
    assert all(r.outcome == "solved" for r in records)


# ----------------------------------------------------- full runs and output

def small_run_config(data_dir, **overrides):
    defaults = dict(
        maps=[MapSpec(f"{data_dir}/empty-8-8.map", "empty")],
        resolutions=[1], scenario_count=2, agent_base=2, agent_increment=2,
        max_agents=4, time_limit=10.0, seed=5)
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def test_run_layout_and_plan_files(tmp_path, data_dir):
    config = small_run_config(data_dir)
    out = tmp_path / "run"
    records = list(run_experiment(config, out_dir=str(out)))
    assert records  # both strategies over 2 scenarios

    with open(out / "records-empty-8-8.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [list(RECORD_FIELDS)] + [r.to_row() for r in records]
    # time_ms keeps millisecond precision; an unsolved attempt has no cost.
    assert ExperimentRecord("m", "g", 2, 1, 8, "cbswp", "timeout", 1234.5678,
                            None, 42, 3, 17).to_row() == \
        ["m", "g", "2", "1", "8", "cbswp", "timeout", "1234.568", "", "42",
         "3", "17"]

    solved = [r for r in records if r.outcome == "solved"]
    plan_paths = sorted(glob.glob(str(out / "plans" / "*.json")))
    assert len(plan_paths) == len(solved)

    grid = load_map(f"{data_dir}/empty-8-8.map")
    for record in solved:
        name = plan_file_name(record.map, record.resolution, record.scenario,
                              record.agents, record.strategy)
        with open(out / "plans" / name) as fh:
            doc = json.load(fh)
        assert doc["outcome"] == "solved"
        assert doc["cost"] == record.cost
        assert doc["agents"] == record.agents == len(doc["paths"])
        assert doc["robot_width"] == config.robot_width
        # Replaying the stored paths against the rebuilt instance must be clean.
        roadmap = build_roadmap(grid, record.resolution, doc["robot_width"])
        pairs = generate_scenario_pairs(
            grid, grid.passable_count() // 3,
            f"{config.seed}:{record.map}:{record.scenario}")
        instance = instance_from_cells(roadmap, pairs[:record.agents])
        plan = TeamPlan([AgentPath(p["agent"], p["states"])
                         for p in doc["paths"]])
        assert validate_plan(plan, roadmap, instance) == []


def test_plan_files_revalidate_at_their_robot_width(tmp_path, data_dir,
                                                    capsys):
    config = small_run_config(data_dir, robot_width=0.8, max_agents=2,
                              strategies=[Strategy.CBS])
    out = tmp_path / "run"
    assert any(r.outcome == "solved"
               for r in run_experiment(config, out_dir=str(out)))
    plan_paths = sorted(glob.glob(str(out / "plans" / "*.json")))
    assert plan_paths
    for plan_path in plan_paths:
        code = cli_main(["validate", "--map", f"{data_dir}/empty-8-8.map",
                         plan_path])
        report = json.loads(capsys.readouterr().out)
        assert code == 0, report["conflicts"]
        assert report["robot_width"] == 0.8


def test_fixed_scenario_files_feed_their_scenarios(tmp_path, data_dir):
    scen_path = f"{data_dir}/empty-8-8.scen"
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({
        "maps": [{"path": f"{data_dir}/empty-8-8.map", "group": "empty",
                  "scens": [scen_path]}],
        "resolutions": [1], "scenario_count": 2, "agent_base": 3,
        "agent_increment": 2, "max_agents": 5, "strategies": ["cbs"]}))
    config = load_config(cfg)
    out = tmp_path / "run"
    records = list(run_experiment(config, out_dir=str(out)))
    # Scenario 1 has no file, so it yields nothing.
    assert records and {r.scenario for r in records} == {0}
    assert records[0].agents == 3 and records[0].outcome == "solved"
    name = plan_file_name("empty-8-8", 1, 0, 3, "cbs")
    with open(out / "plans" / name) as fh:
        paths = sorted(json.load(fh)["paths"], key=lambda p: p["agent"])
    grid = load_map(f"{data_dir}/empty-8-8.map")
    instance = instance_from_cells(build_roadmap(grid, 1),
                                   load_scenario(scen_path, grid)[:3])
    assert [(p["states"][0], p["states"][-1]) for p in paths] == \
        [(task.start, task.goal) for task in instance.tasks]


def test_map_scens_string_reads_like_the_other_list_keys(data_dir):
    # A string is one file, or a comma-separated list, never its characters.
    scen = f"{data_dir}/empty-8-8.scen"
    entry = {"path": f"{data_dir}/empty-8-8.map", "group": "e"}
    listed = config_from_dict({"maps": [{**entry, "scens": [scen]}]})
    single = config_from_dict({"maps": [{**entry, "scens": scen}]})
    assert single.maps == listed.maps and single.maps[0].scens == (scen,)
    double = config_from_dict({"maps": [{**entry, "scens": f"{scen}, {scen}"}]})
    assert double.maps[0].scens == (scen, scen)


def test_run_refuses_a_used_directory(tmp_path, data_dir):
    config = small_run_config(data_dir, max_agents=2,
                              strategies=[Strategy.CBS])
    out = tmp_path / "run"
    out.mkdir()
    # An empty directory is as good as a new one.
    assert list(run_experiment(config, out_dir=str(out)))
    before = sorted(p.name for p in out.rglob("*"))
    with pytest.raises(ConfigError, match="not empty"):
        next(run_experiment(config, out_dir=str(out)))
    assert sorted(p.name for p in out.rglob("*")) == before


def test_reruns_and_workers_agree_modulo_wall_time(tmp_path, data_dir):
    config = small_run_config(data_dir)
    frozen = []
    for workers in (1, 2, 1):
        records = list(run_experiment(config, workers=workers))
        frozen.append([(r.key, r.outcome, r.cost, r.nodes_expanded)
                       for r in records])
    assert frozen[0] == frozen[1] == frozen[2]


# -------------------------------------------------------------- aggregation

def rec(map="m", group="g", resolution=1, scenario=0, agents=4,
        strategy="cbs", outcome="solved", time_ms=10.0, cost=40,
        nodes_expanded=1):
    if outcome != "solved":
        cost = None
    return ExperimentRecord(map, group, resolution, scenario, agents,
                            strategy, outcome, time_ms, cost, nodes_expanded)


def test_aggregate_rejects_duplicates():
    with pytest.raises(AggregationError):
        aggregate([rec(), rec(time_ms=99.0)])


def test_success_rate_counts_all_outcomes():
    records = [rec(scenario=s, outcome="solved" if s < 7 else "timeout",
                   time_ms=float(10 - s))
               for s in range(10)]
    metrics = aggregate(records)
    assert metrics.success_rate == [
        SuccessRate("g", 1, "cbs", 4, solved=7, attempted=10)]
    assert metrics.success_rate[0].rate == pytest.approx(0.7)
    # Runtime series: solved instances only, times sorted ascending.
    assert metrics.runtime_instances == [
        RuntimeSeries("g", 1, "cbs", tuple(float(t) for t in range(4, 11)))]
    assert metrics.cost_ratios == []


def test_cost_ratio_requires_both_strategies_solved():
    records = [
        rec(strategy="cbs", cost=40),
        rec(strategy="cbswp", cost=41, time_ms=3.0),
        rec(scenario=1, strategy="cbs", cost=12),
        rec(scenario=1, strategy="cbswp", outcome="timeout", time_ms=500.0),
    ]
    metrics = aggregate(records)
    assert metrics.cost_ratios == [CostRatio("m", 1, 0, 4, 40, 41)]
    assert metrics.cost_ratios[0].ratio == pytest.approx(1.025)


def test_export_json_round_trips(tmp_path):
    metrics = aggregate([
        rec(), rec(strategy="cbswp", cost=44, time_ms=7.0),
        rec(scenario=1, outcome="exhausted"),
    ])
    path = tmp_path / "agg.json"
    assert export(metrics, "json", path) == [str(path)]
    with open(path) as fh:
        assert json.load(fh) == metrics.to_json_dict()
    assert metrics.to_json_dict() == {
        "success_rate": [
            {"group": "g", "resolution": 1, "strategy": "cbs", "agents": 4,
             "solved": 1, "attempted": 2, "rate": 0.5},
            {"group": "g", "resolution": 1, "strategy": "cbswp", "agents": 4,
             "solved": 1, "attempted": 1, "rate": 1.0}],
        "runtime_instances": [
            {"group": "g", "resolution": 1, "strategy": "cbs",
             "times_ms": [10.0]},
            {"group": "g", "resolution": 1, "strategy": "cbswp",
             "times_ms": [7.0]}],
        "cost_ratios": [
            {"map": "m", "resolution": 1, "scenario": 0, "agents": 4,
             "cost_cbs": 40, "cost_cbswp": 44, "ratio": 1.1}],
    }


def test_export_csv_tables(tmp_path):
    metrics = aggregate([
        rec(scenario=s, strategy=strategy,
            cost=40 if strategy == "cbs" else 42,
            time_ms=float(s + 1) * (2.0 if strategy == "cbswp" else 1.0))
        for s in range(3) for strategy in ("cbs", "cbswp")
    ])
    out = tmp_path / "tables"
    written = export(metrics, "csv", out)
    assert sorted(os.path.basename(p) for p in written) == [
        "cost_ratios.csv", "runtime_instances.csv", "success_rate.csv"]

    with open(out / "runtime_instances.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6  # one row per solved instance
    assert [r["instances_solved"] for r in rows] == ["1", "2", "3"] * 2
    times = [float(r["time_ms"]) for r in rows]
    assert times[:3] == sorted(times[:3])

    with open(out / "cost_ratios.csv", newline="") as fh:
        ratio_rows = list(csv.DictReader(fh))
    assert len(ratio_rows) == 3
    assert all(r["ratio"] == "1.050000" for r in ratio_rows)

    empty = export(aggregate([]), "csv", tmp_path / "none")
    for path in empty:
        with open(path) as fh:
            assert len(fh.read().splitlines()) == 1  # header only

    with pytest.raises(ValueError):
        export(metrics, "parquet", tmp_path / "nope")
