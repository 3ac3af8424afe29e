"""Betweenness centrality and the map-structure classifier."""

import csv
import math
import random
from statistics import pvariance

import pytest

from mapf_lab import build_roadmap, load_map
from mapf_lab.topology import (
    CentralityField,
    ClassifierConfig,
    Label,
    betweenness,
    classify,
    emit_heatmap,
)

from helpers import roadmap_from
from oracles import (bc_brandes_reference, bc_enumerated, bc_reference,
                     random_connected_graph)


def path_adjacency(n):
    return [[v for v in (k - 1, k + 1) if 0 <= v < n] for k in range(n)]


def close(xs, ys, tol=1e-9):
    return len(xs) == len(ys) and all(abs(a - b) <= tol for a, b in zip(xs, ys))


def test_path_graph_closed_form():
    for n in range(2, 9):
        field = betweenness(path_adjacency(n))
        expected = [float(k * (n - 1 - k)) for k in range(n)]
        assert close(field.raw, expected), f"P_{n}"


def test_star_graph_closed_form():
    for leaves in range(2, 8):
        adjacency = [list(range(1, leaves + 1))] + [[0]] * leaves
        field = betweenness(adjacency)
        assert abs(field.raw[0] - leaves * (leaves - 1) / 2) <= 1e-9
        assert all(v == 0.0 for v in field.raw[1:])


def test_complete_graph_has_no_interior_vertices():
    for n in range(2, 7):
        adjacency = [[v for v in range(n) if v != k] for k in range(n)]
        assert all(v == 0.0 for v in betweenness(adjacency).raw)


def test_disconnected_pairs_contribute_nothing():
    # Two separate edges: nothing strictly between any connected pair.
    assert betweenness([[1], [0], [3], [2]]).raw == [0.0] * 4
    # A 3-chain plus an isolated vertex keeps the chain's own scores.
    field = betweenness([[1], [0, 2], [1], []])
    assert close(field.raw, [0.0, 1.0, 0.0, 0.0])


def test_matches_sigma_product_reference():
    rng = random.Random(1812)
    for trial in range(40):
        adjacency = random_connected_graph(rng)
        field = betweenness(adjacency)
        assert close(field.raw, bc_reference(adjacency)), f"trial {trial}"


def test_matches_literal_path_enumeration():
    rng = random.Random(92)
    for trial in range(15):
        adjacency = random_connected_graph(rng, max_vertices=9)
        field = betweenness(adjacency)
        assert close(field.raw, bc_enumerated(adjacency)), f"trial {trial}"
        assert close(bc_reference(adjacency), bc_enumerated(adjacency))


def rel_close(xs, ys, tol=1e-9):
    return len(xs) == len(ys) and all(
        math.isclose(a, b, rel_tol=tol, abs_tol=0.0) for a, b in zip(xs, ys))


def test_matches_queue_and_predecessor_brandes(data_dir):
    for name, resolution, sample in (("empty-16-16", 1, None),
                                     ("maze-32-32-2", 1, None),
                                     ("city-32-32", 2, 64)):
        roadmap = build_roadmap(load_map(f"{data_dir}/{name}.map"),
                                resolution, 0.5)
        n = roadmap.vertex_count
        sources = range(n) if sample is None \
            else sorted(random.Random(3).sample(range(n), sample))
        field = betweenness(roadmap.adjacency, sample=sample, seed=3)
        want = CentralityField.from_raw(
            bc_brandes_reference(roadmap.adjacency, sources))
        assert rel_close(field.raw, want.raw), name
        got, ref = classify(roadmap, field), classify(roadmap, want)
        assert got.label is ref.label, name
        assert got.evidence.keys() == ref.evidence.keys()
        assert all(abs(got.evidence[k] - ref.evidence[k]) <= 1e-12
                   for k in ref.evidence), name

    # Two components with odd cycles, so some edges join vertices of one
    # BFS level, plus an isolated vertex that is a source of its own.
    edges = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3),
             (6, 7), (7, 8), (8, 9), (9, 10), (10, 6), (8, 11)]
    adjacency = [[] for _ in range(13)]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    field = betweenness(adjacency)
    assert rel_close(field.raw, bc_brandes_reference(adjacency, range(13)))
    assert field.raw[12] == 0.0 and field.raw[2] > 0.0


def test_relabeling_permutes_scores():
    rng = random.Random(55)
    for _ in range(10):
        adjacency = random_connected_graph(rng, max_vertices=15)
        n = len(adjacency)
        perm = list(range(n))
        rng.shuffle(perm)
        shuffled = [[] for _ in range(n)]
        for v, neighbors in enumerate(adjacency):
            shuffled[perm[v]] = sorted(perm[u] for u in neighbors)
        base = betweenness(adjacency).raw
        moved = betweenness(shuffled).raw
        assert close([moved[perm[v]] for v in range(n)], base)


def test_full_sample_equals_exact():
    rng = random.Random(7)
    for _ in range(5):
        adjacency = random_connected_graph(rng, max_vertices=12)
        exact = betweenness(adjacency)
        sampled = betweenness(adjacency, sample=len(adjacency), seed=3)
        assert close(sampled.raw, exact.raw)


def test_sample_bounds_and_determinism():
    adjacency = path_adjacency(10)
    with pytest.raises(ValueError):
        betweenness(adjacency, sample=11)
    with pytest.raises(ValueError):
        betweenness(adjacency, sample=0)
    a = betweenness(adjacency, sample=4, seed=42)
    b = betweenness(adjacency, sample=4, seed=42)
    assert a.raw == b.raw


def test_field_normalization_and_variance():
    field = CentralityField.from_raw([2.0, 6.0, 4.0])
    assert close(field.normalized, [0.0, 1.0, 0.5])
    assert abs(field.raw_variance - pvariance([2.0, 6.0, 4.0])) <= 1e-12
    assert field.raw_mean == 4.0
    assert min(field.normalized) == 0.0 and max(field.normalized) == 1.0

    flat = CentralityField.from_raw([3.0, 3.0, 3.0])
    assert flat.normalized == [0.0, 0.0, 0.0]
    assert flat.raw_variance == 0.0

    empty = CentralityField.from_raw([])
    assert empty.normalized == [] and empty.raw_variance == 0.0
    assert empty.raw_mean == 0.0


def label_for(name, data_dir):
    grid = load_map(f"{data_dir}/{name}.map")
    roadmap = build_roadmap(grid, 1, 0.5)
    return classify(roadmap, betweenness(roadmap.adjacency)), roadmap


def test_open_room_labels_large_open(data_dir):
    label, _ = label_for("empty-16-16", data_dir)
    assert label.label is Label.LARGE_OPEN
    assert label.evidence["raw_cv_sq"] < 0.5
    assert label.evidence["component_count"] == 1.0


def test_maze_labels_narrow_dominated(data_dir):
    label, _ = label_for("maze-32-32-2", data_dir)
    assert label.label is Label.NARROW_DOMINATED
    assert label.evidence["chain_fraction"] >= 0.5
    assert 0.0 <= label.evidence["high_fraction"] <= 1.0


def test_city_labels_mixed(data_dir):
    label, _ = label_for("city-32-32", data_dir)
    assert label.label is Label.MIXED
    assert label.evidence["high_fraction"] <= 0.08
    assert label.evidence["narrow_high_mass"] >= 0.25
    assert label.evidence["low_cluster_cover"] >= 0.2


def test_scattered_obstacles_label_featureless(data_dir):
    label, _ = label_for("random-32-32-10", data_dir)
    assert label.label is Label.FEATURELESS
    assert label.evidence["raw_cv_sq"] >= 0.5


def test_classifier_uses_largest_component():
    roadmap = roadmap_from([".#..",
                            ".#..",
                            ".#.."])
    field = betweenness(roadmap.adjacency)
    label = classify(roadmap, field)
    assert label.evidence["component_count"] == 2.0
    assert label.evidence["vertices"] == 6.0  # right block, 2x3


def test_classifier_rejects_empty_roadmap():
    roadmap = roadmap_from(["##", "##"])
    assert roadmap.vertex_count == 0
    with pytest.raises(ValueError):
        classify(roadmap, CentralityField.from_raw([]))


def test_thresholds_are_tunable():
    roadmap = roadmap_from(["....", "....", "....", "...."])
    field = betweenness(roadmap.adjacency)
    default = classify(roadmap, field)
    assert default.label is Label.LARGE_OPEN
    strict = classify(roadmap, field, ClassifierConfig(empty_cv_threshold=0.0))
    assert strict.label is not Label.LARGE_OPEN


def test_heatmap_rows_match_roadmap(tmp_path):
    roadmap = roadmap_from(["...", ".#.", "..."], resolution=2)
    field = betweenness(roadmap.adjacency)
    out = tmp_path / "field.csv"
    written = emit_heatmap(roadmap, field, out)
    assert written == roadmap.vertex_count

    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "y", "bc"]
    assert len(rows) == roadmap.vertex_count + 1
    for v, row in enumerate(rows[1:]):
        x, y, score = map(float, row)
        assert (abs(x - roadmap.coords[v][0]) <= 1e-6
                and abs(y - roadmap.coords[v][1]) <= 1e-6)
        assert abs(score - field.normalized[v]) <= 1e-6
        assert all("." in cell and len(cell.split(".")[1]) == 6 for cell in row)


def test_heatmap_flat_field_writes_zeros(tmp_path):
    roadmap = roadmap_from(["..."])
    flat = CentralityField.from_raw([5.0] * roadmap.vertex_count)
    out = tmp_path / "flat.csv"
    emit_heatmap(roadmap, flat, out)
    lines = out.read_text().splitlines()
    assert lines[1:] == [f"{x:.6f},{y:.6f},0.000000" for x, y in roadmap.coords]


def test_heatmap_rejects_mismatched_field(tmp_path):
    roadmap = roadmap_from(["..."])
    with pytest.raises(ValueError):
        emit_heatmap(roadmap, CentralityField.from_raw([1.0]), tmp_path / "x.csv")
