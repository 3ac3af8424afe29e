"""Command line interface, exercised in process through main(argv)."""

import json

import pytest

from mapf_lab import cli
from mapf_lab.cli import main

from helpers import grid_from


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stdout_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert out, f"no stdout (stderr: {err!r})"
    return code, json.loads(out), err


def write_map_file(tmp_path, rows, name="custom"):
    path = tmp_path / f"{name}.map"
    path.write_text(grid_from(rows).to_text())
    return str(path)


# ------------------------------------------------------------------- solve

def test_solve_prints_result_without_paths(capsys, data_dir):
    code, doc, err = stdout_json(
        capsys, "solve", "--map", f"{data_dir}/empty-8-8.map",
        "--agents", "4", "--seed", "3")
    assert code == 0
    assert doc["outcome"] == "solved"
    assert doc["strategy"] == "cbs"
    assert isinstance(doc["cost"], int)
    assert "paths" not in doc  # full paths go to --out, stdout stays compact


def test_solve_writes_full_plan(capsys, data_dir, tmp_path):
    plan_path = tmp_path / "plan.json"
    code, doc, _ = stdout_json(
        capsys, "solve", "--map", f"{data_dir}/empty-8-8.map",
        "--agents", "3", "--strategy", "cbswp", "--out", str(plan_path))
    assert code == 0
    assert doc["strategy"] == "cbswp"
    stored = json.loads(plan_path.read_text())
    assert stored["map"] == "empty-8-8"
    assert stored["resolution"] == 1
    assert stored["robot_width"] == 0.5
    assert stored["agents"] == 3
    assert len(stored["paths"]) == 3
    assert stored["cost"] == doc["cost"]


def test_solve_uses_scen_file_order(capsys, data_dir):
    code, doc, _ = stdout_json(
        capsys, "solve", "--map", f"{data_dir}/empty-8-8.map",
        "--scen", f"{data_dir}/empty-8-8.scen", "--agents", "2")
    assert code == 0
    assert doc["outcome"] == "solved"


def test_solve_failure_exits_one(capsys, tmp_path):
    path = write_map_file(tmp_path, ["..."], name="swap")
    scen = tmp_path / "swap.scen"
    scen.write_text("version 1\n"
                    "0\tswap\t3\t1\t0\t0\t2\t0\t0\n"
                    "0\tswap\t3\t1\t2\t0\t0\t0\t0\n")
    code, doc, err = stdout_json(
        capsys, "solve", "--map", path, "--scen", str(scen), "--agents", "2")
    assert code == 1
    assert doc["outcome"] == "infeasible"


def test_solve_usage_errors_exit_two(capsys, data_dir, tmp_path):
    cases = [
        ("solve", "--map", f"{data_dir}/nope.map", "--agents", "2"),
        ("solve", "--map", f"{data_dir}/empty-8-8.map", "--agents", "0"),
        ("solve", "--map", f"{data_dir}/empty-8-8.map", "--agents", "9999"),
        ("solve", "--map", f"{data_dir}/empty-8-8.map"),  # missing --agents
        ("solve", "--map", f"{data_dir}/empty-8-8.map", "--agents", "2",
         "--strategy", "astar"),
    ]
    for argv in cases:
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert err, argv
    bad_map = tmp_path / "bad.map"
    bad_map.write_text("type hex\nheight 1\nwidth 1\nmap\n.\n")
    code, _, err = run(capsys, "solve", "--map", str(bad_map), "--agents", "1")
    assert code == 2 and "bad.map" in err


def test_solve_rejects_non_positive_time_limit(capsys, data_dir):
    for limit in ("0", "-1"):
        code, out, err = run(capsys, "solve", "--map",
                             f"{data_dir}/empty-8-8.map", "--agents", "2",
                             "--time-limit", limit)
        assert code == 2 and out == "" and "--time-limit" in err


# ------------------------------------------------------------------- bench

def test_bench_runs_and_aggregates(capsys, data_dir, tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"maps = {data_dir}/empty-8-8.map:empty\n"
                   "resolutions = 1\n"
                   "scenario_count = 1\n"
                   "agent_base = 2\n"
                   "agent_increment = 2\n"
                   "max_agents = 4\n"
                   "strategies = cbs,cbswp\n"
                   "time_limit = 10\n")
    out_dir = tmp_path / "run"
    code, doc, err = stdout_json(capsys, "bench", str(cfg),
                                 "--out", str(out_dir))
    assert code == 0
    assert doc["records"] > 0
    assert doc["out_dir"] == str(out_dir)
    assert set(doc["outcomes"]) <= {"solved", "infeasible", "timeout",
                                    "exhausted"}
    assert (out_dir / "records-empty-8-8.csv").exists()
    assert doc["aggregate"] == str(out_dir / "aggregate.json")
    stored = json.loads((out_dir / "aggregate.json").read_text())
    assert set(stored) == {"success_rate", "runtime_instances", "cost_ratios"}
    assert stored["success_rate"]
    # Per-attempt progress lines go to stderr, one per record.
    assert len([ln for ln in err.splitlines() if "empty-8-8" in ln]) \
        == doc["records"]


def test_bench_usage_errors_exit_two(capsys, tmp_path, data_dir):
    code, _, err = run(capsys, "bench", str(tmp_path / "missing.cfg"),
                       "--out", str(tmp_path / "r1"))
    assert code == 2 and "missing.cfg" in err

    empty_maps = tmp_path / "empty.json"
    empty_maps.write_text('{"maps": []}')
    code, _, err = run(capsys, "bench", str(empty_maps),
                       "--out", str(tmp_path / "r2"))
    assert code == 2

    ghost = tmp_path / "ghost.cfg"
    ghost.write_text("maps = nowhere.map:g\n")
    code, _, err = run(capsys, "bench", str(ghost),
                       "--out", str(tmp_path / "r3"))
    assert code == 2 and "nowhere.map" in err


def test_bench_rejects_out_of_range_config_values(capsys, tmp_path, data_dir):
    base = (f"maps = {data_dir}/empty-8-8.map:empty\n"
            "resolutions = 1\nscenario_count = 1\nagent_base = 2\n"
            "max_agents = 2\n")
    for name, extra in (("wide", "robot_width = 2\n"),
                        ("neg", "time_limit = -1\n"),
                        ("nodes", "node_limit = 0\n")):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(base + extra)
        code, out, err = run(capsys, "bench", str(cfg),
                             "--out", str(tmp_path / name))
        assert code == 2 and out == "", name
        assert err.startswith("mapf-lab: error: bad config"), name
        assert extra.split(" ")[0] in err, name
        assert not (tmp_path / name).exists(), name

    cfg = tmp_path / "ok.cfg"
    cfg.write_text(base)
    code, out, err = run(capsys, "bench", str(cfg), "--out",
                         str(tmp_path / "override"), "--time-limit", "-1")
    assert code == 2 and out == "" and "time_limit" in err
    assert not (tmp_path / "override").exists()


def test_bench_rejects_max_agents_below_agent_base(capsys, tmp_path, data_dir):
    # Escalation starts at agent_base (4 by default), so this config could
    # never produce a record.
    cfg = tmp_path / "never.cfg"
    cfg.write_text(f"maps = {data_dir}/empty-8-8.map:empty\nmax_agents = 2\n")
    code, out, err = run(capsys, "bench", str(cfg),
                         "--out", str(tmp_path / "run"))
    assert code == 2 and out == ""
    assert "max_agents" in err and "agent_base" in err
    assert not (tmp_path / "run").exists()


def test_bench_rejects_maps_that_share_a_name(capsys, tmp_path, data_dir):
    other = tmp_path / "other"
    other.mkdir()
    (other / "empty-8-8.map").write_text(
        open(f"{data_dir}/empty-8-8.map").read())
    cfg = tmp_path / "twins.cfg"
    cfg.write_text(f"maps = {data_dir}/empty-8-8.map:small, "
                   f"{other}/empty-8-8.map:big\n"
                   "resolutions = 1\nscenario_count = 1\nmax_agents = 4\n")
    code, out, err = run(capsys, "bench", str(cfg),
                         "--out", str(tmp_path / "run"))
    assert code == 2 and out == ""
    assert err.startswith("mapf-lab: error: bad config")
    assert "'empty-8-8'" in err
    assert not (tmp_path / "run").exists()


def test_bench_rejects_repeated_or_missing_resolutions_and_strategies(
        capsys, tmp_path, data_dir):
    # These used to run every attempt twice and die in aggregate(), or run
    # nothing and exit 0.
    base = (f"maps = {data_dir}/empty-8-8.map:empty\n"
            "scenario_count = 1\nagent_base = 2\nmax_agents = 2\n")
    for name, extra, message in (
            ("res", "resolutions = 1, 1\n", "resolutions lists 1 twice"),
            ("strat", "resolutions = 1\nstrategies = cbs, cbs\n",
             "strategies lists cbs twice"),
            ("none", "resolutions =\n", "config lists no resolutions")):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(base + extra)
        code, out, err = run(capsys, "bench", str(cfg),
                             "--out", str(tmp_path / name))
        assert code == 2 and out == "", name
        assert err.startswith("mapf-lab: error: bad config"), name
        assert message in err, name
        assert not (tmp_path / name).exists(), name


def test_bench_rejects_fewer_than_one_worker(capsys, tmp_path, data_dir):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"maps = {data_dir}/empty-8-8.map:empty\n"
                   "resolutions = 1\nscenario_count = 1\nmax_agents = 4\n")
    for workers in ("0", "-1"):
        code, out, err = run(capsys, "bench", str(cfg), "--out",
                             str(tmp_path / "run"), "--workers", workers)
        assert code == 2 and out == "", workers
        assert "--workers" in err, workers
        assert not (tmp_path / "run").exists(), workers


def test_bench_aggregates_only_this_runs_records(capsys, tmp_path, data_dir):
    out_dir = tmp_path / "run"
    cfgs = []
    for name, group in (("empty-8-8", "small"), ("empty-16-16", "big")):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(f"maps = {data_dir}/{name}.map:{group}\n"
                       "resolutions = 1\nscenario_count = 1\n"
                       "agent_base = 2\nagent_increment = 2\n"
                       "max_agents = 4\nnode_limit = 20\n")
        cfgs.append(cfg)
    code, doc, _ = stdout_json(capsys, "bench", str(cfgs[0]),
                               "--out", str(out_dir))
    assert code == 0 and doc["records"] > 0
    stored = json.loads((out_dir / "aggregate.json").read_text())
    assert {row["group"] for row in stored["success_rate"]} == {"small"}
    assert sum(row["attempted"] for row in stored["success_rate"]) \
        == doc["records"]

    def snapshot():
        return {path: path.read_bytes() for path in out_dir.rglob("*")
                if path.is_file()}
    before = snapshot()
    assert out_dir / "records-empty-8-8.csv" in before
    # A second run into a used directory is refused before any attempt, so
    # one directory never holds two runs' records and plans.
    code, out, err = run(capsys, "bench", str(cfgs[1]), "--out", str(out_dir))
    assert code == 2 and out == ""
    assert str(out_dir) in err and "not empty" in err
    assert snapshot() == before


def test_bench_rejects_config_values_of_the_wrong_type(capsys, tmp_path,
                                                       data_dir):
    map_path = f"{data_dir}/empty-8-8.map"
    for name, text, named in (
            ("seed.cfg", f"maps = {map_path}:g\nseed = abc\n", "'seed'"),
            ("res.json", json.dumps({"maps": [f"{map_path}:g"],
                                     "resolutions": 5}), "'resolutions'"),
            ("group.json", json.dumps({"maps": [{"path": map_path}]}),
             "map entry")):
        cfg = tmp_path / name
        cfg.write_text(text)
        code, out, err = run(capsys, "bench", str(cfg),
                             "--out", str(tmp_path / "run"))
        assert code == 2 and out == "", name
        assert err.startswith(f"mapf-lab: error: bad config {str(cfg)!r}"), err
        assert named in err, name
        assert not (tmp_path / "run").exists(), name


def test_bench_flag_overrides_reach_the_run(capsys, data_dir, tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"maps = {data_dir}/empty-8-8.map:empty\n"
                   "resolutions = 1\n"
                   "scenario_count = 1\n"
                   "agent_base = 2\n"
                   "max_agents = 2\n"
                   "strategies = cbs\n"
                   "seed = 1\n")
    first = stdout_json(capsys, "bench", str(cfg),
                        "--out", str(tmp_path / "a"))[1]
    shifted = stdout_json(capsys, "bench", str(cfg),
                          "--out", str(tmp_path / "b"), "--seed", "2")[1]
    assert first["records"] == shifted["records"] == 1
    stored = json.loads((tmp_path / "a" / "aggregate.json").read_text())
    assert stored["cost_ratios"] == []  # single strategy, no pairs


# ---------------------------------------------------------------- topology

def test_topology_labels_and_heatmap(capsys, data_dir, tmp_path):
    code, doc, _ = stdout_json(
        capsys, "topology", "--map", f"{data_dir}/empty-16-16.map")
    assert code == 0
    assert doc["label"] == "large_open"
    assert doc["map"] == "empty-16-16"
    assert doc["resolution"] == 1
    assert 0.0 <= doc["evidence"]["raw_cv_sq"] < 0.5

    heat = tmp_path / "heat.csv"
    code, doc, _ = stdout_json(
        capsys, "topology", "--map", f"{data_dir}/maze-32-32-2.map",
        "--out", str(heat))
    assert code == 0
    assert doc["label"] == "narrow_dominated"
    lines = heat.read_text().splitlines()
    assert lines[0] == "x,y,bc"
    assert len(lines) - 1 == doc["heatmap_rows"]


def test_topology_sampling_flags(capsys, data_dir):
    code, doc, _ = stdout_json(
        capsys, "topology", "--map", f"{data_dir}/empty-16-16.map",
        "--sample", "64", "--seed", "11")
    assert code == 0
    assert doc["label"] == "large_open"
    assert doc["sources"] == 64
    assert isinstance(doc["betweenness_s"], float) and doc["betweenness_s"] > 0
    code, doc, _ = stdout_json(
        capsys, "topology", "--map", f"{data_dir}/empty-16-16.map")
    assert code == 0
    assert doc["sources"] == 256  # exact: every vertex is a source
    assert doc["betweenness_s"] > 0
    code, _, err = run(capsys, "topology",
                       "--map", f"{data_dir}/empty-16-16.map",
                       "--sample", "100000")
    assert code == 2 and "sample" in err


def test_topology_threshold_overrides(capsys, data_dir, tmp_path):
    code, doc, _ = stdout_json(
        capsys, "topology", "--map", f"{data_dir}/empty-16-16.map",
        "--set", "empty_cv_threshold=0.0")
    assert code == 0
    assert doc["label"] != "large_open"

    thresholds = tmp_path / "thresholds.json"
    thresholds.write_text('{"empty_cv_threshold": 0.9}')
    code, doc, _ = stdout_json(
        capsys, "topology", "--map", f"{data_dir}/random-32-32-10.map",
        "--thresholds", str(thresholds))
    assert code == 0
    assert doc["label"] == "large_open"  # loosened bound flips the label

    thresholds = tmp_path / "thresholds.cfg"
    thresholds.write_text("# key=value form\nempty_cv_threshold = 0.9\n")
    code, doc, _ = stdout_json(
        capsys, "topology", "--map", f"{data_dir}/random-32-32-10.map",
        "--thresholds", str(thresholds))
    assert code == 0 and doc["label"] == "large_open"
    for text, where in (("empty_cv_threshold = 0.9\nwarm\n", "line 2"),
                        ('{"empty_cv_threshold": ', "malformed JSON")):
        thresholds.write_text(text)
        code, _, err = run(capsys, "topology",
                           "--map", f"{data_dir}/empty-16-16.map",
                           "--thresholds", str(thresholds))
        assert code == 2 and where in err

    for bogus in ("not_a_knob=1", "empty_cv_threshold=warm"):
        code, _, err = run(capsys, "topology",
                           "--map", f"{data_dir}/empty-16-16.map",
                           "--set", bogus)
        assert code == 2 and err


@pytest.mark.parametrize("setting", [
    "high_threshold=nan", "empty_cv_threshold=inf", "chain_min=-3",
    "chain_min=0", "open_cluster_min=0", "empty_cv_threshold=-0.1",
    "passage_width_max=-1", "narrow_fraction=1.5", "low_threshold=-0.01",
    "mixed_low_fraction=2", "bottleneck_fraction=-1", "narrow_mass_min=1.01"])
def test_topology_rejects_thresholds_out_of_range(capsys, data_dir, setting):
    code, out, err = run(capsys, "topology",
                         "--map", f"{data_dir}/empty-8-8.map",
                         "--set", setting)
    assert code == 2 and out == ""
    assert f"threshold '{setting.split('=')[0]}'" in err


def test_topology_thresholds_of_the_wrong_json_type(capsys, data_dir,
                                                    tmp_path):
    # These used to read silently: 5.5 as 5 and true as 1.0, which
    # relabelled maze-32-32-2 featureless.
    thresholds = tmp_path / "thresholds.json"
    maze = f"{data_dir}/maze-32-32-2.map"
    for text, message in (
            ('{"chain_min": 5.5, "high_threshold": true}',
             "threshold 'chain_min': cannot read 5.5 as int"),
            ('{"chain_min": true}',
             "threshold 'chain_min': cannot read True as int"),
            ('{"high_threshold": true}',
             "threshold 'high_threshold': cannot read True as float"),
            ('{"high_threshold": null}', "'high_threshold'")):
        thresholds.write_text(text)
        code, _, err = run(capsys, "topology", "--map", maze,
                           "--thresholds", str(thresholds))
        assert code == 2 and message in err
    # JSON ints read for float fields, and key=value strings as their type.
    thresholds.write_text('{"chain_min": 5, "passage_width_max": 4}')
    code, doc, _ = stdout_json(capsys, "topology", "--map", maze,
                               "--thresholds", str(thresholds),
                               "--set", "open_cluster_min=16")
    assert code == 0 and doc["label"] == "narrow_dominated"


# ---------------------------------------------------------------- validate

def solve_to_file(capsys, data_dir, tmp_path, agents=3):
    plan_path = tmp_path / "plan.json"
    code, _, _ = run(capsys, "solve", "--map", f"{data_dir}/empty-8-8.map",
                     "--agents", str(agents), "--out", str(plan_path))
    assert code == 0
    return plan_path


def test_validate_accepts_solver_output(capsys, data_dir, tmp_path):
    plan_path = solve_to_file(capsys, data_dir, tmp_path)
    code, doc, _ = stdout_json(
        capsys, "validate", "--map", f"{data_dir}/empty-8-8.map",
        str(plan_path))
    assert code == 0
    assert doc["conflict_count"] == 0
    assert doc["conflicts"] == []


def test_validate_and_thresholds_read_a_byte_order_mark(capsys, data_dir,
                                                       tmp_path):
    plan_path = solve_to_file(capsys, data_dir, tmp_path)
    plan_path.write_text(plan_path.read_text("utf-8"), encoding="utf-8-sig")
    code, doc, _ = stdout_json(
        capsys, "validate", "--map", f"{data_dir}/empty-8-8.map",
        str(plan_path))
    assert code == 0 and doc["conflict_count"] == 0
    maze = f"{data_dir}/maze-32-32-2.map"
    thresholds = tmp_path / "thresholds.cfg"
    for text in ("chain_min = 5\n", '{"chain_min": 5}'):
        thresholds.write_text(text, encoding="utf-8")
        _, plain, _ = stdout_json(capsys, "topology", "--map", maze,
                                  "--thresholds", str(thresholds))
        thresholds.write_text(text, encoding="utf-8-sig")
        code, marked, _ = stdout_json(capsys, "topology", "--map", maze,
                                      "--thresholds", str(thresholds))
        assert code == 0
        assert marked["label"] == plain["label"]
        assert marked["evidence"] == plain["evidence"]


def test_validate_reports_conflicts(capsys, tmp_path):
    map_path = write_map_file(tmp_path, ["..."], name="lane")
    plan = tmp_path / "collide.json"
    plan.write_text(json.dumps({
        "paths": [{"agent": 0, "states": [0, 1]},
                  {"agent": 1, "states": [1, 0]}],
    }))
    code, doc, _ = stdout_json(capsys, "validate", "--map", map_path,
                               str(plan))
    assert code == 1
    assert doc["conflict_count"] == 1
    [conflict] = doc["conflicts"]
    assert conflict["kind"] == "edge"
    assert conflict["timestep"] == 0


def test_validate_uses_the_plan_robot_width(capsys, tmp_path):
    # At width 0.8 the mid-move bodies, 0.5 apart on both axes, overlap;
    # at the default 0.5 they would only touch.
    map_path = write_map_file(tmp_path, ["...", "...", "..."], name="open")
    paths = [{"agent": 0, "states": [0, 1]}, {"agent": 1, "states": [1, 4]}]
    plan = tmp_path / "wide.json"
    plan.write_text(json.dumps({"robot_width": 0.8, "paths": paths}))
    code, doc, _ = stdout_json(capsys, "validate", "--map", map_path,
                               str(plan))
    assert code == 1
    assert doc["robot_width"] == 0.8
    [conflict] = doc["conflicts"]
    assert conflict["kind"] == "edge"
    assert conflict["timestep"] == 0
    assert conflict["locations"] == [[0, 1], [1, 4]]

    legacy = tmp_path / "legacy.json"
    legacy.write_text(json.dumps({"paths": paths}))
    code, doc, _ = stdout_json(capsys, "validate", "--map", map_path,
                               str(legacy))
    assert code == 0
    assert doc["robot_width"] == 0.5

    for width in (0, 1.5, -0.2, "wide", None, True):
        bad = tmp_path / "bad-width.json"
        bad.write_text(json.dumps({"robot_width": width, "paths": paths}))
        code, out, err = run(capsys, "validate", "--map", map_path, str(bad))
        assert code == 2, width
        assert out == "" and "robot_width" in err


def test_validate_uses_the_plan_resolution(capsys, data_dir, tmp_path):
    map_path = f"{data_dir}/empty-8-8.map"
    plan_path = tmp_path / "fine.json"
    code, _, _ = run(capsys, "solve", "--map", map_path, "--agents", "3",
                     "--resolution", "2", "--out", str(plan_path))
    assert code == 0
    code, doc, _ = stdout_json(capsys, "validate", "--map", map_path,
                               str(plan_path))
    assert code == 0
    assert doc["resolution"] == 2
    assert doc["conflict_count"] == 0
    code, doc, _ = stdout_json(capsys, "validate", "--map", map_path,
                               "--resolution", "2", str(plan_path))
    assert code == 0 and doc["resolution"] == 2

    code, out, err = run(capsys, "validate", "--map", map_path,
                         "--resolution", "1", str(plan_path))
    assert code == 2 and out == ""
    assert "resolution is 2" in err and "--resolution 1" in err

    # Files without the field fall back to the flag, then to 1.
    stored = json.loads(plan_path.read_text())
    del stored["resolution"]
    legacy = tmp_path / "legacy.json"
    legacy.write_text(json.dumps(stored))
    code, doc, _ = stdout_json(capsys, "validate", "--map", map_path,
                               "--resolution", "2", str(legacy))
    assert code == 0 and doc["resolution"] == 2
    code, _, err = run(capsys, "validate", "--map", map_path, str(legacy))
    assert code == 2 and "outside roadmap" in err

    for resolution in ("two", 0, -1, 1.5, None, True):
        stored["resolution"] = resolution
        bad = tmp_path / "bad-resolution.json"
        bad.write_text(json.dumps(stored))
        code, out, err = run(capsys, "validate", "--map", map_path, str(bad))
        assert code == 2, resolution
        assert out == "" and "resolution" in err


def test_validate_rejects_a_plan_for_another_map(capsys, data_dir, tmp_path):
    # This plan's states and steps are valid on empty-16-16 and empty-32-32
    # too, so only its map field tells that it was solved on empty-8-8.
    plan_path = tmp_path / "p.json"
    code, _, _ = run(capsys, "solve", "--map", f"{data_dir}/empty-8-8.map",
                     "--agents", "2", "--seed", "2", "--out", str(plan_path))
    assert code == 0
    for other in ("empty-16-16", "empty-32-32"):
        code, out, err = run(capsys, "validate",
                             "--map", f"{data_dir}/{other}.map",
                             str(plan_path))
        assert code == 2 and out == ""
        assert "'empty-8-8'" in err and f"'{other}'" in err

    # Files without the field are checked against --map as before.
    stored = json.loads(plan_path.read_text())
    del stored["map"]
    legacy = tmp_path / "legacy.json"
    legacy.write_text(json.dumps(stored))
    code, doc, _ = stdout_json(capsys, "validate", "--map",
                               f"{data_dir}/empty-16-16.map", str(legacy))
    assert code == 0 and doc["map"] == "empty-16-16"


def test_validate_usage_errors(capsys, tmp_path, data_dir):
    missing = tmp_path / "none.json"
    code, _, err = run(capsys, "validate",
                       "--map", f"{data_dir}/empty-8-8.map", str(missing))
    assert code == 2

    garbled = tmp_path / "garbled.json"
    garbled.write_text("{]")
    code, _, _ = run(capsys, "validate",
                     "--map", f"{data_dir}/empty-8-8.map", str(garbled))
    assert code == 2

    for payload in ({"paths": "zap"},
                    {"paths": [{"agent": 0, "states": []}]},
                    {"paths": [{"agent": 0, "states": [0, "x"]}]},
                    {"paths": [{"agent": True, "states": [0, 1]}]},
                    {"paths": [{"agent": 0, "states": [True, True]}]},
                    {}):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        code, _, err = run(capsys, "validate",
                           "--map", f"{data_dir}/empty-8-8.map", str(bad))
        assert code == 2, payload

    teleport = tmp_path / "teleport.json"
    teleport.write_text(json.dumps(
        {"paths": [{"agent": 0, "states": [0, 63]}]}))
    code, _, err = run(capsys, "validate",
                       "--map", f"{data_dir}/empty-8-8.map", str(teleport))
    assert code == 2 and err


def test_validate_rejects_two_paths_for_one_agent(capsys, tmp_path):
    map_path = write_map_file(tmp_path, ["....", "...."], name="room")
    plan = tmp_path / "twice.json"
    plan.write_text(json.dumps({
        "paths": [{"agent": 0, "states": [0, 1]},
                  {"agent": 0, "states": [6, 7]}],
    }))
    code, out, err = run(capsys, "validate", "--map", map_path, str(plan))
    assert code == 2 and out == ""
    assert "twice.json" in err and "agent 0" in err


# ----------------------------------------------------------------- roadmap

def test_roadmap_emits_counts(capsys, data_dir, tmp_path):
    code, doc, _ = stdout_json(
        capsys, "roadmap", "--map", f"{data_dir}/empty-8-8.map",
        "--resolution", "2")
    assert code == 0
    assert len(doc["vertices"]) == 225
    assert doc["resolution"] == 2
    assert doc["width"] == doc["height"] == 8
    assert all(len(edge) == 2 for edge in doc["edges"])

    out = tmp_path / "rm.json"
    code, stdout, _ = run(
        capsys, "roadmap", "--map", f"{data_dir}/empty-8-8.map",
        "--out", str(out))
    assert code == 0
    stored = json.loads(out.read_text())
    assert len(stored["vertices"]) == 64


def test_roadmap_rejects_bad_width(capsys, data_dir):
    code, _, err = run(capsys, "roadmap",
                       "--map", f"{data_dir}/empty-8-8.map",
                       "--robot-width", "3.0")
    assert code == 2 and err


# ------------------------------------------------------------ input files

# Per input kind: a file valid but for one byte that is neither ASCII nor
# part of a UTF-8 sequence, and a file that decodes but does not parse.
BAD_INPUT = {
    "map": (b"type octile\nheight 1\nwidth 2\nmap\n.\xe9\n",
            b"type hex\nheight 1\nwidth 1\nmap\n.\n"),
    "scenario": (b"version 1\n0\tcaf\xe9\t8\t8\t0\t0\t1\t1\t0\n",
                 b"0\tempty-8-8\t8\t8\t0\t0\t1\t1\t0\n"),
    "config": (b"maps = empty-8-8.map:caf\xe9\n", b"maps empty-8-8.map:g\n"),
    "thresholds": (b"# caf\xe9\nempty_cv_threshold = 0.9\n", b"warm\n"),
    "plan": (b'{"paths": [{"agent": 0, "states": [0]}], "note": "caf\xe9"}',
             b"{]"),
}


@pytest.mark.parametrize("fault", ["missing", "undecodable", "malformed"])
@pytest.mark.parametrize("kind, argv", [
    ("map", ("solve", "--map", "{map}", "--agents", "1")),
    ("map", ("topology", "--map", "{map}")),
    ("map", ("validate", "--map", "{map}", "{plan}")),
    ("map", ("roadmap", "--map", "{map}")),
    ("scenario", ("solve", "--map", "{map}", "--scen", "{scenario}",
                  "--agents", "1")),
    ("config", ("bench", "{config}", "--out", "{out}")),
    ("thresholds", ("topology", "--map", "{map}",
                    "--thresholds", "{thresholds}")),
    ("plan", ("validate", "--map", "{map}", "{plan}")),
], ids=["solve-map", "topology-map", "validate-map", "roadmap-map",
        "solve-scenario", "bench-config", "topology-thresholds",
        "validate-plan"])
def test_unusable_input_exits_two_naming_the_file(capsys, tmp_path, data_dir,
                                                  kind, argv, fault):
    files = {"map": f"{data_dir}/empty-8-8.map", "out": str(tmp_path / "run"),
             "plan": str(tmp_path / "plan.json")}
    (tmp_path / "plan.json").write_text(
        json.dumps({"paths": [{"agent": 0, "states": [0]}]}))
    bad = tmp_path / f"bad-{kind}.txt"
    if fault != "missing":
        bad.write_bytes(BAD_INPUT[kind][fault == "malformed"])
    files[kind] = str(bad)
    code, out, err = run(capsys, *(arg.format(**files) for arg in argv))
    assert code == 2 and out == ""
    assert err.startswith("mapf-lab: error: ") and bad.name in err


@pytest.mark.parametrize("argv", [
    ("solve", "--map", "{map}", "--agents", "1", "--out", "{out}"),
    ("roadmap", "--map", "{map}", "--out", "{out}"),
    ("topology", "--map", "{map}", "--out", "{out}"),
], ids=["solve-plan", "roadmap", "topology-heatmap"])
def test_unwritable_output_exits_two_naming_the_file(capsys, tmp_path,
                                                     data_dir, argv):
    out = tmp_path / "missing" / "out.json"
    files = {"map": f"{data_dir}/empty-8-8.map", "out": str(out)}
    code, stdout, err = run(capsys, *(arg.format(**files) for arg in argv))
    assert code == 2 and stdout == ""
    assert err.startswith("mapf-lab: error: cannot write ") and str(out) in err


def test_topology_checks_the_heatmap_path_before_betweenness(
        capsys, tmp_path, data_dir, monkeypatch):
    def planted(*args, **kwargs):
        raise ValueError("betweenness ran")

    monkeypatch.setattr(cli, "betweenness", planted)
    missing = tmp_path / "missing" / "heat.csv"
    kept = tmp_path / "kept.csv"
    kept.write_text("old\n")
    for out, message in (
            (missing, f"cannot write heatmap {str(missing)!r}: "
                      "No such file or directory"),
            (tmp_path, f"cannot write heatmap {str(tmp_path)!r}: "
                       "Is a directory"),
            (kept, "betweenness ran")):  # writable: checked, not truncated
        code, stdout, err = run(capsys, "topology",
                                "--map", f"{data_dir}/empty-8-8.map",
                                "--out", str(out))
        assert code == 2 and stdout == ""
        assert err == f"mapf-lab: error: {message}\n"
    assert not missing.parent.exists()
    assert kept.read_text() == "old\n"


# ------------------------------------------------------------------ parser

def test_help_and_parse_errors(capsys):
    with_help = main(["--help"])
    captured = capsys.readouterr()
    assert with_help == 0
    assert "solve" in captured.out and "bench" in captured.out

    assert main([]) == 2
    capsys.readouterr()
    assert main(["conquer"]) == 2
    capsys.readouterr()
    assert main(["solve", "--frobnicate"]) == 2
    capsys.readouterr()
