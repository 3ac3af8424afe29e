import os
import random

import pytest

from mapf_lab import (GridMap, MapFormatError, ScenarioFormatError, load_map,
                      load_scenario, parse_map, parse_scenario)
from mapf_lab.mapgen import random_map
from mapf_lab.mapio import write_scenario

from helpers import cell_components, grid_from


def map_text(rows, height=None, width=None):
    height = len(rows) if height is None else height
    width = len(rows[0]) if width is None else width
    return (f"type octile\nheight {height}\nwidth {width}\nmap\n"
            + "\n".join(rows) + "\n")


def test_parse_all_passable():
    grid = parse_map(map_text(["." * 8] * 8))
    assert (grid.width, grid.height) == (8, 8)
    assert grid.passable_count() == 64
    assert not any(grid.is_blocked(x, y) for x in range(8) for y in range(8))


def test_parse_single_obstacle():
    rows = ["." * 8] * 8
    rows[2] = "..." + "@" + "." * 4
    grid = parse_map(map_text(rows))
    assert grid.is_blocked(3, 2)
    assert grid.passable_count() == 63


def test_parse_cell_characters():
    grid = parse_map(map_text([".G@O", "TW.."]))
    assert not grid.is_blocked(0, 0) and not grid.is_blocked(1, 0)
    assert grid.is_blocked(2, 0) and grid.is_blocked(3, 0)
    assert grid.is_blocked(0, 1) and grid.is_blocked(1, 1)
    assert grid.passable_count() == 4


def test_parse_header_order_free():
    text = "type octile\nwidth 3\nheight 2\nmap\n...\n...\n"
    grid = parse_map(text)
    assert (grid.width, grid.height) == (3, 2)


@pytest.mark.parametrize("mutate, line", [
    (lambda t: t.replace("height 2\n", ""), None),
    (lambda t: t.replace("type octile", "type hex"), 1),
    (lambda t: t.replace("height 2", "height x"), 2),
    (lambda t: t + "...\n", 7),
    (lambda t: t.replace("map\n...\n", "map\n..\n"), 5),
    (lambda t: t.replace("map\n...\n", "map\n..?\n"), 5),
])
def test_parse_map_errors_name_lines(mutate, line):
    text = "type octile\nheight 2\nwidth 3\nmap\n...\n...\n"
    with pytest.raises(MapFormatError) as err:
        parse_map(mutate(text))
    if line is not None:
        assert err.value.line == line
        assert f"line {line}" in str(err.value)


def test_row_count_mismatch_reported():
    with pytest.raises(MapFormatError):
        parse_map("type octile\nheight 3\nwidth 3\nmap\n...\n...\n")


def test_round_trip_text():
    rng = random.Random(4)
    for _ in range(20):
        w, h = rng.randint(1, 9), rng.randint(1, 9)
        rows = ["".join(rng.choice("..@") for _ in range(w))
                for _ in range(h)]
        grid = parse_map(map_text(rows))
        assert parse_map(grid.to_text()) == grid


def test_load_fixture_map(data_dir):
    grid = load_map(os.path.join(data_dir, "empty-8-8.map"))
    assert (grid.width, grid.height) == (8, 8)
    assert grid.passable_count() == 64


def scen_text(records):
    lines = ["version 1"]
    for rec in records:
        lines.append("\t".join(str(f) for f in rec))
    return "\n".join(lines) + "\n"


GRID = grid_from(["....", "..@.", "...."])


def test_scenario_order_preserved():
    records = [(0, "m.map", 4, 3, 0, 0, 3, 2, 5.0),
               (0, "m.map", 4, 3, 1, 0, 0, 2, 3.0),
               (0, "m.map", 4, 3, 3, 0, 0, 0, 3.0)]
    pairs = parse_scenario(scen_text(records), GRID)
    assert pairs == [((0, 0), (3, 2)), ((1, 0), (0, 2)), ((3, 0), (0, 0))]


def test_scenario_empty_records():
    assert parse_scenario("version 1\n", GRID) == []


def test_scenario_blocked_endpoint():
    bad = [(0, "m.map", 4, 3, 0, 0, 3, 2, 5.0),
           (0, "m.map", 4, 3, 2, 1, 0, 0, 1.0)]
    with pytest.raises(ScenarioFormatError) as err:
        parse_scenario(scen_text(bad), GRID)
    assert err.value.record == 1
    assert "record 1" in str(err.value)


def test_scenario_out_of_bounds_endpoint():
    with pytest.raises(ScenarioFormatError):
        parse_scenario(scen_text([(0, "m.map", 4, 3, 0, 0, 4, 0, 1.0)]), GRID)


def test_scenario_dimension_mismatch():
    with pytest.raises(ScenarioFormatError):
        parse_scenario(scen_text([(0, "m.map", 5, 3, 0, 0, 1, 0, 1.0)]), GRID)


def test_scenario_missing_version():
    with pytest.raises(ScenarioFormatError):
        parse_scenario("0\tm.map\t4\t3\t0\t0\t1\t0\t1.0\n", GRID)


def test_scenario_write_read_round_trip(tmp_path):
    pairs = [((0, 0), (3, 2)), ((3, 0), (0, 2))]
    path = tmp_path / "t.scen"
    write_scenario(path, "m.map", GRID, pairs)
    assert load_scenario(path, GRID) == pairs


def test_load_fixture_scenarios(data_dir):
    for name in ("empty-8-8", "maze-32-32-2", "city-32-32"):
        grid = load_map(os.path.join(data_dir, f"{name}.map"))
        pairs = load_scenario(os.path.join(data_dir, f"{name}.scen"), grid)
        assert pairs
        starts = [s for s, _ in pairs]
        goals = [g for _, g in pairs]
        assert len(set(starts)) == len(starts)
        assert len(set(goals)) == len(goals)


def test_gridmap_accessors():
    assert GRID.is_blocked(2, 1)
    assert GRID.in_bounds(3, 2) and not GRID.in_bounds(4, 0)
    assert GRID.passable_count() == 11


def test_component_labels_match_reference():
    # The last maps put separate components on either side of a row break.
    for rows in (["....#...", "..#.....", "....##..", "........"],
                 [".....#..", "#####...", "..#....."],
                 [".#.", "#.#", ".#."],
                 ["@@", "@@"],
                 ["#.", ".#"],
                 ["..#.", ".###"],
                 ["#..", ".##"]):
        grid = grid_from(rows)
        labels = grid.component_labels()
        reference = cell_components(grid)
        assert set(labels) == set(reference)
        for a in labels:
            for b in labels:
                assert (labels[a] == labels[b]) == \
                    (reference[a] == reference[b])
        assert sorted(set(labels.values())) == \
            list(range(len(set(reference.values()))))


def test_random_map_keeps_free_space_connected():
    for seed in range(20):
        grid = random_map(6, 6, 0.4, seed=seed)
        assert len(set(cell_components(grid).values())) == 1, seed
