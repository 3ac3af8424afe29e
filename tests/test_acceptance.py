"""Acceptance suite: one test per shipped guarantee, one verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines as
they complete; the whole suite is sized for a desk machine.
"""

import itertools
import random

import pytest

from mapf_lab import build_roadmap, instance_from_cells, load_map
from mapf_lab.bench import ExperimentConfig, MapSpec, run_experiment
from mapf_lab.conflicts import (
    AgentPath,
    ConflictKind,
    TeamPlan,
    iter_conflicts,
    validate_plan,
)
from mapf_lab.highlevel import Budget, Outcome, Strategy, solve
from mapf_lab.topology import Label, betweenness, classify

from helpers import grid_from, random_instance
from oracles import (bc_enumerated, bc_reference, joint_optimal_cost,
                     random_connected_graph, transitive_pairs)


def _report(num: int, name: str, ok: bool) -> None:
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}")


def _solved(result) -> bool:
    return result.outcome is Outcome.SOLVED


# ---------------------------------------------------------------------- 1

def test_criterion_1_roadmap_vertex_counts(data_dir):
    expected = {
        "empty-8-8": {1: 64, 2: 225, 4: 841},
        "empty-16-16": {1: 256, 2: 961, 4: 3721},
        "empty-32-32": {1: 1024, 2: 3969, 4: 15625},
        "empty-48-48": {1: 2304, 2: 9025, 4: 35721},
        "random-32-32-10": {1: 922},
    }
    ok = False
    try:
        for name, by_resolution in expected.items():
            grid = load_map(f"{data_dir}/{name}.map")
            for resolution, count in by_resolution.items():
                roadmap = build_roadmap(grid, resolution, 0.5)
                assert roadmap.vertex_count == count, \
                    f"{name} r={resolution}: {roadmap.vertex_count} != {count}"
        ok = True
    finally:
        _report(1, "roadmap vertex counts", ok)


# ---------------------------------------------------------------------- 2

def _oracle_maps():
    return [
        ["....", "....", "....", "...."],
        [".....", ".#...", "...#.", ".....", "....."],
        ["......", "..#...", "......", "...##.", "......", "......"],
        ["........"] * 8,
        ["...#....", "........", "..##....", "........", "....#...",
         "........", ".#......", "........"],
    ]


def test_criterion_2_cbs_matches_joint_oracle():
    rng = random.Random(20200)
    ok = False
    solved = 0
    try:
        for trial in range(200):
            rows = rng.choice(_oracle_maps())
            grid = grid_from(rows)
            roadmap = build_roadmap(grid, 1, 0.5)
            assert roadmap.vertex_count <= 64
            instance = random_instance(grid, roadmap, rng, rng.randint(2, 3))
            expected = joint_optimal_cost(
                roadmap.adjacency,
                [t.start for t in instance.tasks],
                [t.goal for t in instance.tasks])
            result = solve(instance, Strategy.CBS, Budget(time_limit=60.0))
            if expected is None:
                assert not _solved(result), f"trial {trial}: oracle infeasible"
            else:
                assert _solved(result), f"trial {trial}: {result.outcome}"
                assert result.plan.cost == expected, \
                    f"trial {trial}: {result.plan.cost} != {expected}"
                solved += 1
        assert solved >= 150  # the suite must mostly exercise real solves
        ok = True
    finally:
        _report(2, f"optimal cost equals joint-space oracle "
                   f"({solved}/200 solvable)", ok)


# ---------------------------------------------------------------------- 3

def test_criterion_3_solved_plans_are_conflict_free():
    rng = random.Random(331)
    ok = False
    solved = 0
    try:
        maps = _oracle_maps()
        for trial in range(500):
            grid = grid_from(rng.choice(maps))
            resolution = rng.choice((1, 1, 2, 2, 4))
            roadmap = build_roadmap(grid, resolution, 0.5)
            instance = random_instance(grid, roadmap, rng, rng.randint(2, 4))
            strategy = Strategy.CBS if trial % 2 == 0 else Strategy.CBSWP
            result = solve(instance, strategy,
                           Budget(time_limit=20.0, node_limit=2000))
            if result.plan is not None:
                conflicts = validate_plan(result.plan, roadmap, instance)
                assert conflicts == [], \
                    f"trial {trial} ({strategy.value}, r={resolution})"
                solved += 1
        assert solved >= 300
        ok = True
    finally:
        _report(3, f"every solved plan validates clean ({solved}/500 solved)",
                ok)


# ---------------------------------------------------------------------- 4

@pytest.mark.slow
def test_criterion_4_cost_ratio_bounds(data_dir):
    budget = Budget(time_limit=60.0)
    ok = False
    ratios = []
    try:
        for map_name in ("empty-8-8", "empty-16-16"):
            grid = load_map(f"{data_dir}/{map_name}.map")
            roadmap = build_roadmap(grid, 1, 0.5)
            for agents in (4, 8, 12, 16):
                for scenario in range(5):
                    rng = random.Random(f"ratio:{map_name}:{agents}:{scenario}")
                    instance = random_instance(grid, roadmap, rng, agents)
                    cbs = solve(instance, Strategy.CBS, budget)
                    cbswp = solve(instance, Strategy.CBSWP, budget)
                    if _solved(cbs) and _solved(cbswp):
                        ratio = cbswp.plan.cost / cbs.plan.cost
                        assert ratio >= 1.0, \
                            f"{map_name} a={agents} s={scenario}: {ratio}"
                        ratios.append(ratio)
        assert len(ratios) >= 20  # enough jointly solved cells to average
        mean = sum(ratios) / len(ratios)
        assert mean <= 1.05, f"mean ratio {mean:.4f}"
        ok = True
    finally:
        detail = f"{len(ratios)} cells, mean {sum(ratios) / len(ratios):.4f}" \
            if ratios else "no jointly solved cells"
        _report(4, f"priority cost never below optimal, mean near it "
                   f"({detail})", ok)


# ---------------------------------------------------------------------- 5

def _desk_config(data_dir):
    return ExperimentConfig(
        maps=[MapSpec(f"{data_dir}/empty-8-8.map", "empty"),
              MapSpec(f"{data_dir}/random-32-32-10.map", "random"),
              MapSpec(f"{data_dir}/maze-32-32-2.map", "maze"),
              MapSpec(f"{data_dir}/city-32-32.map", "city")],
        resolutions=[1],
        scenario_count=5,
        agent_base=4,
        agent_increment=4,
        max_agents=24,
        time_limit=60.0,
        # Budgets sized so every failed attempt exhausts a deterministic
        # counter long before the wall clock; timeouts would make outcome
        # and nodes_expanded load-dependent and break the rerun check.
        node_limit=250,
        low_level_budget=200_000,
        seed=11,
    )


@pytest.mark.slow
def test_criterion_5_escalation_protocol_and_reproducibility(data_dir):
    config = _desk_config(data_dir)
    ok = False
    try:
        records = list(run_experiment(config, workers=2))
        assert records

        by_sequence = {}
        for record in records:
            seq_key = (record.map, record.resolution, record.scenario,
                       record.strategy)
            by_sequence.setdefault(seq_key, []).append(record)
        for seq_key, sequence in by_sequence.items():
            agent_counts = [r.agents for r in sequence]
            assert agent_counts == [4 + 4 * k for k in range(len(sequence))], \
                f"{seq_key}: {agent_counts}"
            for earlier in sequence[:-1]:
                assert earlier.outcome == "solved", seq_key
            last = sequence[-1]
            # A sequence ends at its first failure unless the agent supply
            # or the configured ceiling ended it while still succeeding.
            if last.outcome == "solved":
                assert last.agents + config.agent_increment > config.max_agents, \
                    f"{seq_key} stopped early while solving"

        rerun = list(run_experiment(config, workers=2))
        fields = lambda rs: [(r.key, r.group, r.outcome, r.cost,
                              r.nodes_expanded) for r in rs]
        assert fields(rerun) == fields(records)
        ok = True
    finally:
        _report(5, "benchmark escalation protocol, rerun-stable records", ok)


# ---------------------------------------------------------------------- 6

def test_criterion_6_betweenness_matches_brute_force():
    rng = random.Random(606)
    ok = False
    try:
        for trial in range(50):
            adjacency = random_connected_graph(rng, max_vertices=30)
            got = betweenness(adjacency).raw
            want = bc_reference(adjacency)
            assert all(abs(g - w) <= 1e-9 for g, w in zip(got, want)), \
                f"trial {trial}"
            if len(adjacency) <= 10:
                literal = bc_enumerated(adjacency)
                assert all(abs(g - w) <= 1e-9
                           for g, w in zip(got, literal)), f"trial {trial}"
        for n in range(2, 12):
            chain = [[v for v in (k - 1, k + 1) if 0 <= v < n]
                     for k in range(n)]
            got = betweenness(chain).raw
            assert got == [float(k * (n - 1 - k)) for k in range(n)]
        for leaves in range(2, 10):
            star = [list(range(1, leaves + 1))] + [[0]] * leaves
            got = betweenness(star).raw
            assert got[0] == leaves * (leaves - 1) / 2
            assert got[1:] == [0.0] * leaves
        ok = True
    finally:
        _report(6, "centrality matches enumeration and closed forms", ok)


# ---------------------------------------------------------------------- 7

def test_criterion_7_topology_anchor_labels(data_dir):
    anchors = {
        "empty-16-16": Label.LARGE_OPEN,
        "maze-32-32-2": Label.NARROW_DOMINATED,
        "city-32-32": Label.MIXED,
    }
    ok = False
    got = {}
    try:
        for name, want in anchors.items():
            grid = load_map(f"{data_dir}/{name}.map")
            roadmap = build_roadmap(grid, 1, 0.5)
            label = classify(roadmap, betweenness(roadmap.adjacency))
            got[name] = label.label
            assert label.label is want, f"{name}: {label.label} != {want}"
        ok = True
    finally:
        _report(7, "anchor maps label open/narrow/mixed "
                   f"({', '.join(v.value for v in got.values())})", ok)


# ---------------------------------------------------------------------- 8

def test_criterion_8_unit_lattice_matches_classical_rules():
    roadmap = build_roadmap(grid_from(["...", "...", "..."]), 1, 0.5)
    ok = False
    combos = 0
    try:
        moves = {v: (v,) + tuple(roadmap.adjacency[v])
                 for v in range(roadmap.vertex_count)}
        for s0, s1 in itertools.permutations(range(roadmap.vertex_count), 2):
            for e0 in moves[s0]:
                for e1 in moves[s1]:
                    plan = TeamPlan([AgentPath(0, [s0, e0]),
                                     AgentPath(1, [s1, e1])])
                    found = {(c.kind, c.timestep)
                             for c in iter_conflicts(plan, roadmap)}
                    classical = set()
                    if e0 == e1:
                        classical.add((ConflictKind.VERTEX, 1))
                    if e0 == s1 and e1 == s0:
                        classical.add((ConflictKind.EDGE, 0))
                    assert found == classical, \
                        f"s0={s0} e0={e0} s1={s1} e1={e1}: " \
                        f"{found} != {classical}"
                    combos += 1
        ok = True
    finally:
        _report(8, f"unit-lattice conflicts are exactly the classical ones "
                   f"({combos} joint steps)", ok)


# ---------------------------------------------------------------------- 9

def _priority_maps():
    return [
        ["...", "...", "..."],
        ["....", ".#..", "...."],
        ["....", "....", "...."],
        [".....", "..#..", ".....", "....."],
    ]


def test_criterion_9_priority_nodes_respect_their_orderings():
    rng = random.Random(909)
    ok = False
    nodes_checked = 0
    try:
        for trial in range(100):
            grid = grid_from(rng.choice(_priority_maps()))
            roadmap = build_roadmap(grid, 1, 0.5)
            instance = random_instance(grid, roadmap, rng, rng.randint(3, 4))
            nodes = {}
            solve(instance, Strategy.CBSWP,
                  Budget(time_limit=20.0, node_limit=500),
                  inspect=lambda n: nodes.setdefault(n.node_id, n))
            for node in nodes.values():
                for hi, lo in transitive_pairs(node.priorities):
                    pair = TeamPlan([node.paths[hi], node.paths[lo]])
                    overlaps = list(iter_conflicts(pair, roadmap))
                    assert overlaps == [], \
                        f"trial {trial} node {node.node_id}: {hi} over {lo}"
                chain = []
                cursor = node
                while cursor is not None:
                    if cursor.branch_pair is not None:
                        chain.append(frozenset(cursor.branch_pair))
                    cursor = nodes.get(cursor.parent) \
                        if cursor.parent is not None else None
                assert len(chain) == len(set(chain)), \
                    f"trial {trial}: pair branched twice on one chain"
                nodes_checked += 1
        ok = True
    finally:
        _report(9, f"higher-priority paths stay untouched "
                   f"({nodes_checked} nodes audited)", ok)
