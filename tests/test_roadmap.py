import os
import random
from fractions import Fraction

import pytest

from mapf_lab import (AgentTask, GridMap, ProblemInstance, build_roadmap,
                      instance_from_cells, load_map)

from helpers import empty_roadmap, grid_from, roadmap_from
from oracles import first_overlapping_ends, roadmap_reference


def test_empty_map_counts():
    for n, counts in [(8, (64, 225, 841)), (2, (4, 9, 25))]:
        for r, want in zip((1, 2, 4), counts):
            assert empty_roadmap(n, r).vertex_count == want


def test_empty_map_closed_form():
    for n in range(2, 7):
        for r in range(1, 5):
            roadmap = empty_roadmap(n, r)
            assert roadmap.vertex_count == (r * (n - 1) + 1) ** 2


def test_random_fixture_r1_equals_passable(data_dir):
    grid = load_map(os.path.join(data_dir, "random-32-32-10.map"))
    roadmap = build_roadmap(grid, 1)
    assert roadmap.vertex_count == grid.passable_count() == 922


def test_vertex_coordinates():
    roadmap = empty_roadmap(3, 1)
    assert roadmap.coords[roadmap.cell_vertex(0, 0)] == (0.5, 0.5)
    assert roadmap.coords[roadmap.cell_vertex(2, 1)] == (2.5, 1.5)
    fine = empty_roadmap(3, 2)
    xs = sorted({x for x, _ in fine.coords})
    assert xs == [0.5, 1.0, 1.5, 2.0, 2.5]


def test_body_keys_overlap_exactly_at_every_resolution():
    # Rest and mid-move centers, compared exactly in rationals, against one
    # integer key difference and one set lookup.
    for resolution in (1, 2, 3, 4):
        for width in (0.4, 0.5, 0.8, 1.0):
            roadmap = roadmap_from(["..", ".."], resolution, width)
            keys = roadmap.keys
            centers = {}
            for u, (i, j) in enumerate(roadmap.lattice):
                centers[2 * keys[u]] = (Fraction(2 * i), Fraction(2 * j))
            for u, v in roadmap.edges():
                (iu, ju), (iv, jv) = roadmap.lattice[u], roadmap.lattice[v]
                centers[keys[u] + keys[v]] = (Fraction(iu + iv),
                                              Fraction(ju + jv))
            reach = Fraction(width) * 2 * resolution  # in half-lattice units
            for a, (xa, ya) in centers.items():
                for b, (xb, yb) in centers.items():
                    want = abs(xa - xb) < reach and abs(ya - yb) < reach
                    assert (a - b in roadmap.overlap_offsets) == want, \
                        (resolution, width, (xa, ya), (xb, yb))
    assert len(roadmap_from(["..."], 1).overlap_offsets) == 1
    assert len(roadmap_from(["..."], 4).overlap_offsets) == 49
    assert len(roadmap_from(["..."], 4, 0.8).overlap_offsets) == 169


def test_ids_row_major():
    roadmap = empty_roadmap(4, 2)
    assert list(roadmap.coords) == sorted(roadmap.coords,
                                          key=lambda p: (p[1], p[0]))
    assert roadmap.vertex_id(0, 0) == 0


def test_center_blocked_3x3_r2_counts():
    # 5x5 lattice; body half-width 0.25 hits the open unit square blocked
    # interior for the 3x3 lattice points nearest its center: 25 - 9 = 16.
    roadmap = roadmap_from(["...", ".@.", "..."], resolution=2)
    assert roadmap.vertex_count == 16
    r1 = roadmap_from(["...", ".@.", "..."], resolution=1)
    assert r1.vertex_count == 8


def test_boundary_touch_is_legal():
    # Blocked cell interior is the open square (1,2)x(1,2); a half-width
    # 0.25 body centered 0.25 away touches the boundary and survives, but
    # any center nearer than that overlaps the interior and is dropped.
    roadmap = roadmap_from(["..", ".@"], resolution=4)
    coords = set(roadmap.coords)
    assert (0.75, 0.75) in coords
    assert (1.0, 0.75) in coords
    assert (1.0, 1.0) not in coords
    assert (1.5, 1.5) not in coords


def test_diagonal_pinch_has_no_edges_across():
    roadmap = roadmap_from([".@", "@."], resolution=1)
    assert roadmap.vertex_count == 2
    assert list(roadmap.edges()) == []


def test_adjacency_symmetric_and_sorted():
    rng = random.Random(11)
    for _ in range(10):
        rows = ["".join(rng.choice("...@") for _ in range(6))
                for _ in range(6)]
        roadmap = build_roadmap(grid_from(rows), rng.choice((1, 2)))
        for u in range(roadmap.vertex_count):
            assert roadmap.adjacency[u] == sorted(roadmap.adjacency[u])
            for v in roadmap.adjacency[u]:
                assert u in roadmap.adjacency[v]


def test_width_monotonicity():
    rng = random.Random(3)
    for _ in range(10):
        rows = ["".join(rng.choice("...@") for _ in range(5))
                for _ in range(5)]
        grid = grid_from(rows)
        wide = build_roadmap(grid, 2, robot_width=0.8)
        narrow = build_roadmap(grid, 2, robot_width=0.4)
        assert set(wide.coords) <= set(narrow.coords)


def test_deterministic_construction():
    grid = grid_from(["..@.", "....", ".@.."])
    a = build_roadmap(grid, 2)
    b = build_roadmap(grid, 2)
    assert a.coords == b.coords
    assert a.adjacency == b.adjacency


def test_argument_errors():
    grid = grid_from(["..", ".."])
    with pytest.raises(ValueError):
        build_roadmap(grid, 0)
    with pytest.raises(ValueError):
        build_roadmap(grid, 1, robot_width=0.0)
    with pytest.raises(ValueError):
        build_roadmap(grid, 1, robot_width=1.5)


def test_instance_from_cells():
    roadmap = empty_roadmap(4, 1)
    instance = instance_from_cells(roadmap, [((0, 0), (3, 3)),
                                             ((3, 0), (0, 3))])
    assert [t.agent_id for t in instance.tasks] == [0, 1]
    assert instance.tasks[0].start == roadmap.cell_vertex(0, 0)
    assert instance.tasks[0].goal == roadmap.cell_vertex(3, 3)


def test_instance_from_blocked_cell_errors():
    roadmap = roadmap_from(["..", ".@"])
    with pytest.raises(ValueError):
        instance_from_cells(roadmap, [((0, 0), (1, 1))])


def test_instance_rejects_overlapping_bodies():
    roadmap = empty_roadmap(3, 4)
    a = roadmap.vertex_id(0, 0)
    b = roadmap.vertex_id(1, 0)  # 0.25 apart at r=4: bodies overlap
    far = roadmap.vertex_id(8, 8)
    mid = roadmap.vertex_id(4, 4)
    with pytest.raises(ValueError):
        ProblemInstance(roadmap, (AgentTask(0, a, far), AgentTask(1, b, mid)))


def test_instance_names_the_first_overlapping_pair():
    # Random instances on which some starts or goals overlap, at every
    # resolution and body width: the message names the reference's pair.
    named = 0
    for resolution in (1, 2, 4):
        for width in (0.4, 0.5, 0.8):
            rng = random.Random(f"ends:{resolution}:{width}")
            roadmap = roadmap_from(["....."] * 5, resolution, width)
            for _ in range(40):
                ids = rng.sample(range(50), rng.randint(2, 12))
                tasks = [(a, rng.randrange(roadmap.vertex_count),
                          rng.randrange(roadmap.vertex_count)) for a in ids]
                want = first_overlapping_ends(roadmap.coords, tasks, width)
                instance = lambda: ProblemInstance(
                    roadmap, [AgentTask(*task) for task in tasks])
                if want is None:
                    instance()
                    continue
                a, b, ends = want
                with pytest.raises(ValueError) as error:
                    instance()
                assert str(error.value) == \
                    f"agents {a} and {b} have overlapping {ends}"
                named += 1
    assert named > 200


def test_instance_rejects_duplicate_ids_and_bad_vertices():
    roadmap = empty_roadmap(3, 1)
    task = AgentTask(0, 0, 1)
    with pytest.raises(ValueError):
        ProblemInstance(roadmap, (task, AgentTask(0, 2, 3)))
    with pytest.raises(ValueError):
        ProblemInstance(roadmap, (AgentTask(0, 0, 99),))


def test_roadmap_json_shape():
    roadmap = empty_roadmap(2, 1)
    doc = roadmap.to_json_dict()
    assert [v["id"] for v in doc["vertices"]] == [0, 1, 2, 3]
    assert all(set(v) == {"id", "x", "y"} for v in doc["vertices"])
    assert sorted(tuple(e) for e in doc["edges"]) == [(0, 1), (0, 2), (1, 3),
                                                      (2, 3)]


def edges_from_masks(roadmap):
    """The edge list the search index's right and down bitsets encode."""
    index = roadmap.search_index
    vertex = {b: v for v, b in enumerate(index.bits)}
    assert len(vertex) == roadmap.vertex_count
    assert index.vertices == sum(1 << b for b in vertex)
    edges = []
    for b, v in vertex.items():
        if index.right >> b & 1:
            edges.append((v, vertex[b + 1]))
        if index.down >> b & 1:
            edges.append((v, vertex[b + index.cols]))
    assert not (index.right | index.down) & ~index.vertices
    return sorted(edges)


def test_build_matches_the_reference_build(data_dir):
    # The build reads a clearance mask per lattice row and column; the
    # reference tests every vertex and midpoint body on its own. The search
    # index's bitsets must encode the same edges.
    names = ("random-32-32-10", "maze-32-32-2", "city-32-32")
    cases = [(load_map(os.path.join(data_dir, f"{name}.map")), r, 0.5)
             for name in names for r in (1, 2)]
    for name in sorted(os.listdir(data_dir)):
        if name.endswith(".map") and name[:-4] not in names:
            grid = load_map(os.path.join(data_dir, name))
            for r in (1, 2):
                roadmap = build_roadmap(grid, r)
                assert edges_from_masks(roadmap) == sorted(roadmap.edges())
    rng = random.Random(1400)
    for _ in range(60):
        width, height = rng.randint(1, 7), rng.randint(1, 7)
        density = rng.choice((0.0, 0.2, 0.4))
        grid = GridMap(width, height, tuple(rng.random() < density
                                            for _ in range(width * height)))
        cases += [(grid, r, w) for r in (1, 2, 3, 4)
                  for w in (0.3, 0.4, 0.5, 0.8, 1.0)]
    for grid, resolution, width in cases:
        roadmap = build_roadmap(grid, resolution, width)
        assert (roadmap.lattice, roadmap.adjacency) == \
            roadmap_reference(grid, resolution, width), \
            (grid.to_text(), resolution, width)
        assert edges_from_masks(roadmap) == sorted(roadmap.edges())
        assert roadmap.search_index.successors == [
            (*nbrs, v) for v, nbrs in enumerate(roadmap.adjacency)]
