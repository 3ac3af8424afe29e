"""Conflict-tree search: plain constraint branching and priority branching."""

import hashlib
import inspect
import itertools
import random

import pytest

from mapf_lab import conflicts, highlevel, lowlevel
from mapf_lab.conflicts import (
    AgentPath,
    Conflict,
    ConflictKind,
    TeamPlan,
    find_first_conflict,
    iter_conflicts,
    validate_plan,
)
from mapf_lab.highlevel import (
    Budget,
    ConsistencyError,
    Outcome,
    Strategy,
    resolve_motion,
    resolve_priority,
    solve,
)
from mapf_lab.lowlevel import MotionConstraint

from helpers import empty_roadmap, grid_from, random_instance, roadmap_from
from oracles import (bfs_dist, joint_optimal_cost, scan_reference,
                     transitive_pairs)

from mapf_lab import build_roadmap, instance_from_cells

POCKET = ["#.#",
          "..."]


def pocket_instance():
    """Head-on pair in a corridor with one passing pocket."""
    roadmap = roadmap_from(POCKET)
    return instance_from_cells(roadmap, [((0, 1), (2, 1)), ((2, 1), (0, 1))])


def oracle_cost(instance):
    starts = [t.start for t in instance.tasks]
    goals = [t.goal for t in instance.tasks]
    return joint_optimal_cost(instance.roadmap.adjacency, starts, goals)


def small_maps():
    return [
        ["....", "....", "....", "...."],
        ["....", ".#..", "....", "...."],
        ["#..#", "....", ".##.", "...."],
        ["...", "#.#", "..."],
    ]


def test_independent_agents_solved_at_root():
    roadmap = empty_roadmap(6)
    instance = instance_from_cells(roadmap, [((0, 0), (3, 0)), ((0, 5), (3, 5))])
    for strategy in (Strategy.CBS, Strategy.CBSWP):
        result = solve(instance, strategy)
        assert result.outcome is Outcome.SOLVED
        assert result.plan.cost == 6
        assert result.stats.nodes_expanded == 1
        assert result.stats.conflicts_resolved == 0
        assert validate_plan(result.plan, roadmap, instance) == []


def test_pocket_corridor_forces_detour():
    instance = pocket_instance()
    expected = oracle_cost(instance)
    assert expected is not None and expected > 4  # solo sum is 2 + 2

    cbs = solve(instance, Strategy.CBS)
    assert cbs.outcome is Outcome.SOLVED
    assert cbs.plan.cost == expected
    assert cbs.stats.conflicts_resolved > 0
    assert validate_plan(cbs.plan, instance.roadmap, instance) == []

    # Priority branching cannot solve this one: whichever agent is ranked
    # higher keeps its shortest path, which ends on the other agent's start
    # and sweeps the only through cell. Both orderings die, which is the
    # textbook incompleteness of prioritized planning.
    cbswp = solve(instance, Strategy.CBSWP)
    assert cbswp.outcome is Outcome.INFEASIBLE


def test_bare_corridor_swap_is_infeasible():
    roadmap = roadmap_from(["..."])
    instance = instance_from_cells(roadmap, [((0, 0), (2, 0)), ((2, 0), (0, 0))])
    assert oracle_cost(instance) is None
    for strategy in (Strategy.CBS, Strategy.CBSWP):
        result = solve(instance, strategy)
        assert result.outcome is Outcome.INFEASIBLE
        assert result.plan is None


def test_unreachable_goal_is_infeasible():
    roadmap = roadmap_from([".#."])
    instance = instance_from_cells(roadmap, [((0, 0), (2, 0))])
    for strategy in (Strategy.CBS, Strategy.CBSWP):
        result = solve(instance, strategy)
        assert result.outcome is Outcome.INFEASIBLE
        assert result.stats.nodes_expanded == 0


def test_cbs_cost_matches_joint_search():
    rng = random.Random(4021)
    solved = 0
    for trial in range(30):
        rows = rng.choice(small_maps())
        grid = grid_from(rows)
        roadmap = build_roadmap(grid, 1, 0.5)
        instance = random_instance(grid, roadmap, rng, rng.randint(2, 3))
        expected = oracle_cost(instance)
        result = solve(instance, Strategy.CBS, Budget(time_limit=20.0))
        if expected is None:
            assert result.outcome is not Outcome.SOLVED
            continue
        assert result.outcome is Outcome.SOLVED, f"trial {trial}"
        assert result.plan.cost == expected, f"trial {trial}"
        assert validate_plan(result.plan, roadmap, instance) == []
        solved += 1
    assert solved >= 20


def test_priority_variant_never_beats_optimal():
    rng = random.Random(977)
    compared = 0
    for _ in range(20):
        rows = rng.choice(small_maps())
        grid = grid_from(rows)
        roadmap = build_roadmap(grid, 1, 0.5)
        instance = random_instance(grid, roadmap, rng, rng.randint(2, 3))
        cbs = solve(instance, Strategy.CBS, Budget(time_limit=20.0))
        cbswp = solve(instance, Strategy.CBSWP, Budget(time_limit=20.0))
        if cbswp.outcome is Outcome.SOLVED:
            assert validate_plan(cbswp.plan, roadmap, instance) == []
        if cbs.outcome is Outcome.SOLVED and cbswp.outcome is Outcome.SOLVED:
            assert cbswp.plan.cost >= cbs.plan.cost
            compared += 1
    assert compared >= 12


def test_motion_resolution_constrains_each_agents_own_location():
    vertex = Conflict(ConflictKind.VERTEX, (2, 5), (7, 7), 3)
    a, b = resolve_motion(vertex)
    assert a == MotionConstraint(2, 3, vertex=7)
    assert b == MotionConstraint(5, 3, vertex=7)

    edge = Conflict(ConflictKind.EDGE, (0, 1), ((4, 5), (5, 4)), 2)
    a, b = resolve_motion(edge)
    assert a == MotionConstraint(0, 2, edge=(4, 5))
    assert b == MotionConstraint(1, 2, edge=(5, 4))

    # Fine lattices produce vertex conflicts between two distinct vertices;
    # each agent is then banned from its own one.
    near = Conflict(ConflictKind.VERTEX, (0, 1), (3, 9), 0)
    a, b = resolve_motion(near)
    assert (a.vertex, b.vertex) == (3, 9)
    assert a.edge is None and b.edge is None


def test_priority_resolution_orders_the_pair_both_ways():
    conflict = Conflict(ConflictKind.VERTEX, (1, 3), (5, 5), 2)
    children = resolve_priority(conflict, frozenset())
    assert [pair for pair, _ in children] == [(1, 3), (3, 1)]
    for pair, order in children:
        assert order == frozenset({pair})

    # Incomparable agents stay branchable even when both already have orderings.
    prior = frozenset({(1, 2), (3, 2)})
    children = resolve_priority(conflict, prior)
    assert [pair for pair, _ in children] == [(1, 3), (3, 1)]
    for pair, order in children:
        assert order == prior | {pair}


def test_priority_resolution_rejects_ordered_pairs():
    conflict = Conflict(ConflictKind.VERTEX, (3, 1), (5, 5), 2)
    # 1 over 2 over 3: the pair is already transitively ordered, and ordered
    # agents are planned around each other, so this conflict is a solver bug.
    with pytest.raises(ConsistencyError):
        resolve_priority(conflict, frozenset({(1, 2), (2, 3)}))
    with pytest.raises(ConsistencyError):
        resolve_priority(conflict, frozenset({(3, 2), (2, 1)}))
    with pytest.raises(ConsistencyError):
        resolve_priority(conflict, frozenset({(1, 3)}))


def _least_order(agents, pairs):
    """The least agent whose direct higher agents are all placed, in turn."""
    order = []
    while len(order) < len(agents):
        order.append(min(a for a in agents if a not in order and all(
            hi in order for hi, lo in pairs if lo == a)))
    return order


def _priority_dags(rng):
    """(agents, pairs) DAGs: empty, chains, diamonds and random ones."""
    for n in (0, 1, 5, 24):
        yield rng.sample(range(40), n), frozenset()
    for n in (2, 6, 24):
        chain = rng.sample(range(40), n)
        yield chain, frozenset(zip(chain, chain[1:]))
    for _ in range(10):
        ids = rng.sample(range(40), 6)
        a, b, c, d = ids[:4]
        yield ids, frozenset({(a, b), (a, c), (b, d), (c, d)})
    for n in [rng.randint(2, 7) for _ in range(60)] + [24] * 20:
        ids = rng.sample(range(40), n)
        rank = rng.sample(ids, n)  # a random topological order
        pairs = set()
        for _ in range(rng.randint(0, 2 * n)):
            x, y = sorted(rng.sample(range(n), 2))
            pairs.add((rank[x], rank[y]))
        yield ids, frozenset(pairs)


def test_priority_order_is_the_least_order_with_exact_higher_sets():
    # One pass gives a cbswp child its walk order (the lowest id first among
    # the ready agents) and every agent's transitively higher agents.
    rng = random.Random(2121)
    cases = list(_priority_dags(rng))
    for agents, pairs in cases:
        order, above = highlevel._priority_order(agents, pairs)
        assert order == _least_order(agents, pairs), (agents, pairs)
        if len(agents) <= 7:
            placed = [p for p in itertools.permutations(sorted(agents))
                      if all(p.index(hi) < p.index(lo) for hi, lo in pairs)]
            assert order == list(min(placed))
        closure = transitive_pairs(pairs)
        assert above == {a: {hi for hi, lo in closure if lo == a}
                         for a in agents}
    assert sum(len(agents) == 24 for agents, _ in cases) > 20
    for agents, pairs in cases:
        if len(pairs) >= 2 and len(agents) > 2:
            hi, lo = min(pairs)
            with pytest.raises(ConsistencyError):
                highlevel._priority_order(agents, pairs | {(lo, hi)})
            chain = sorted(agents)
            with pytest.raises(ConsistencyError):  # a long cycle
                highlevel._priority_order(
                    agents, frozenset(zip(chain, chain[1:] + chain[:1])))


def test_priority_nodes_keep_ordered_pairs_conflict_free():
    # A priority child skips every agent outside the new lower agent's
    # subtree on the strength of this invariant, so it must hold at every
    # resolution and body width.
    rng = random.Random(5150)
    checked = {}
    for resolution in (1, 2, 4):
        for width in (0.4, 0.5, 0.8):
            checked[resolution, width] = 0
            for _ in range(8):
                grid = grid_from(["...", "...", "..."])
                roadmap = build_roadmap(grid, resolution, width)
                instance = random_instance(grid, roadmap, rng, 5)
                seen = []
                solve(instance, Strategy.CBSWP, Budget(node_limit=40),
                      inspect=seen.append)
                for node in seen:
                    for hi, lo in transitive_pairs(node.priorities):
                        pair_plan = TeamPlan([node.paths[hi], node.paths[lo]])
                        assert list(iter_conflicts(pair_plan, roadmap)) == []
                        checked[resolution, width] += 1
    assert min(checked.values()) > 10
    assert sum(checked.values()) > 400


def test_priority_children_scan_only_pairs_with_a_replanned_path(monkeypatch):
    # A pair whose two paths both come from the parent is answered by the
    # parent's conflict table, so every pair scan a priority solve runs
    # involves a path that no popped node holds yet.
    popped = []  # keeps every popped node alive, so path ids stay unique
    known: set[int] = set()
    fresh = []

    def record(node):
        popped.append(node)
        known.update(id(p) for p in node.paths.values())

    def scan(plan, roadmap):
        a, b = plan.paths
        fresh.append(id(a) not in known or id(b) not in known)
        return conflicts.iter_conflicts(plan, roadmap)

    monkeypatch.setattr(highlevel, "iter_conflicts", scan)
    rng = random.Random(2024)
    for _ in range(12):
        grid = grid_from(rng.choice(small_maps()))
        roadmap = build_roadmap(grid, 1, 0.5)
        instance = random_instance(grid, roadmap, rng, 5)
        solve(instance, Strategy.CBSWP, Budget(node_limit=30), inspect=record)
    assert len(fresh) > 20
    assert all(fresh)


def test_popped_costs_never_decrease():
    instances = [pocket_instance()]
    rng = random.Random(88)
    grid = grid_from(["....", ".#..", "...."])
    roadmap = build_roadmap(grid, 1, 0.5)
    instances.append(random_instance(grid, roadmap, rng, 3))
    for instance in instances:
        for strategy in (Strategy.CBS, Strategy.CBSWP):
            costs = []
            solve(instance, strategy, inspect=lambda n: costs.append(n.cost))
            assert costs == sorted(costs)
            assert len(costs) >= 1


def test_cbs_expands_nodes_in_exact_key_order():
    # A cbs child is pushed with a lower bound on its conflict count and
    # rescanned when popped. Keys may fall from parent to child, but a node
    # is open from its parent's expansion on, so every node expanded in
    # between must have a smaller key: best-first order on exact keys.
    rng = random.Random(4242)
    expanded = crossed = 0
    for resolution in (1, 2):
        for _ in range(10):
            grid = grid_from(rng.choice(small_maps()))
            roadmap = build_roadmap(grid, resolution, 0.5)
            instance = random_instance(grid, roadmap, rng, rng.randint(4, 6))
            seen = []
            solve(instance, Strategy.CBS, Budget(node_limit=60),
                  inspect=seen.append)
            step = {node.node_id: k for k, node in enumerate(seen)}
            for k, node in enumerate(seen):
                if node.parent is None:
                    continue
                between = seen[step[node.parent] + 1:k]
                assert all(other.sort_key() < node.sort_key()
                           for other in between)
                crossed += len(between)
            expanded += len(seen)
    assert expanded > 300 and crossed > 1000


def test_priority_branches_never_reorder_a_settled_pair():
    rng = random.Random(31337)
    for _ in range(8):
        grid = grid_from(["...", "...", "..."])
        roadmap = build_roadmap(grid, 1, 0.5)
        instance = random_instance(grid, roadmap, rng, 4)
        nodes = {}
        solve(instance, Strategy.CBSWP, Budget(time_limit=20.0),
              inspect=lambda n: nodes.setdefault(n.node_id, n))
        for node in nodes.values():
            chain_pairs = []
            cursor = node
            while cursor is not None:
                if cursor.branch_pair is not None:
                    chain_pairs.append(frozenset(cursor.branch_pair))
                cursor = nodes.get(cursor.parent) if cursor.parent is not None else None
            assert len(chain_pairs) == len(set(chain_pairs))


def test_search_is_deterministic():
    rng = random.Random(2)
    grid = grid_from(["....", "....", "...."])
    roadmap = build_roadmap(grid, 1, 0.5)
    instance = random_instance(grid, roadmap, rng, 4)
    for strategy in (Strategy.CBS, Strategy.CBSWP):
        runs = []
        for _ in range(2):
            trace = []
            result = solve(instance, strategy,
                           inspect=lambda n: trace.append(
                               (n.node_id, n.cost, n.conflict_count)))
            doc = result.to_json()
            doc["stats"].pop("wall_time")
            runs.append((trace, doc))
        assert runs[0] == runs[1]


def test_time_budget_reports_timeout():
    result = solve(pocket_instance(), Strategy.CBS, Budget(time_limit=1e-9))
    assert result.outcome is Outcome.TIMEOUT
    assert result.plan is None


def test_node_budget_reports_exhausted():
    result = solve(pocket_instance(), Strategy.CBS, Budget(node_limit=1))
    assert result.outcome is Outcome.EXHAUSTED
    assert result.plan is None
    assert result.stats.nodes_expanded <= 1


def test_low_level_budget_reports_exhausted():
    result = solve(pocket_instance(), Strategy.CBS, Budget(low_level_budget=1))
    assert result.outcome is Outcome.EXHAUSTED
    assert result.plan is None


def test_strategy_accepts_names():
    instance = pocket_instance()
    by_enum = solve(instance, Strategy.CBS)
    by_name = solve(instance, "cbs")
    assert by_name.strategy is Strategy.CBS
    assert by_name.plan.cost == by_enum.plan.cost
    assert solve(instance, "cbswp").strategy is Strategy.CBSWP
    with pytest.raises(ValueError):
        solve(instance, "dijkstra")


def test_cost_helpers_match_worked_examples():
    plan = TeamPlan([
        AgentPath(0, [0, 1, 2, 3]),          # arrives at t=3
        AgentPath(1, [4, 5, 6, 7, 8, 9]),    # arrives at t=5
        AgentPath(2, [10, 11, 12]),          # arrives at t=2
    ])
    assert plan.cost == 10
    assert plan.makespan == 5
    resting = TeamPlan([AgentPath(0, [7])])
    assert resting.cost == 0
    assert resting.makespan == 0
    empty = TeamPlan([])
    assert empty.cost == 0
    assert empty.makespan == 0


def test_result_serialization_shapes():
    solved = solve(pocket_instance(), Strategy.CBS).to_json()
    assert solved["outcome"] == "solved"
    assert solved["strategy"] == "cbs"
    assert isinstance(solved["cost"], int)
    assert isinstance(solved["makespan"], int)
    assert set(solved["stats"]) == {"nodes_expanded", "nodes_generated",
                                    "conflicts_resolved", "low_level_calls",
                                    "goal_levels", "pair_scans",
                                    "wall_time"}
    assert [p["agent"] for p in solved["paths"]] == [0, 1]
    assert all(isinstance(p["states"], list) for p in solved["paths"])

    roadmap = roadmap_from(["..."])
    blocked = instance_from_cells(roadmap, [((0, 0), (2, 0)), ((2, 0), (0, 0))])
    failed = solve(blocked, Strategy.CBS).to_json()
    assert failed["outcome"] == "infeasible"
    assert failed["cost"] is None
    assert "paths" not in failed


def test_crowded_open_map_solves_under_both_strategies(data_dir):
    from mapf_lab import load_map
    grid = load_map(f"{data_dir}/empty-8-8.map")
    roadmap = build_roadmap(grid, 1, 0.5)
    rng = random.Random(7)
    instance = random_instance(grid, roadmap, rng, 8)
    cbs = solve(instance, Strategy.CBS, Budget(time_limit=60.0))
    cbswp = solve(instance, Strategy.CBSWP, Budget(time_limit=60.0))
    assert cbs.outcome is Outcome.SOLVED
    assert cbswp.outcome is Outcome.SOLVED
    assert validate_plan(cbs.plan, roadmap, instance) == []
    assert validate_plan(cbswp.plan, roadmap, instance) == []
    assert cbswp.plan.cost >= cbs.plan.cost


# sha256 over the repr of the records that test_search_behaviour_is_pinned
# builds. A rewrite that should keep search behaviour (a faster low level, a
# cheaper conflict scan) must leave it unchanged. A deliberate behaviour
# change, such as ICBS conflict selection, updates it and says so in
# CHANGES.md.
GOLDEN_DIGEST = \
    "3eb3a4479733972c77b898d877871e07d87148652740ef4cdc9c8882f069e766"


def test_search_behaviour_is_pinned(data_dir):
    from mapf_lab import load_map
    records = []
    for name, agents in (("empty-8-8", 8), ("random-32-32-10", 10),
                         ("maze-32-32-2", 6), ("city-32-32", 10)):
        grid = load_map(f"{data_dir}/{name}.map")
        for resolution in (1, 2):
            roadmap = build_roadmap(grid, resolution)
            rng = random.Random(f"golden:{name}:{resolution}")
            instance = random_instance(grid, roadmap, rng, agents)
            for strategy in (Strategy.CBS, Strategy.CBSWP):
                result = solve(instance, strategy, Budget(node_limit=40))
                s = result.stats
                paths = None if result.plan is None else \
                    [p.states for p in result.plan.paths]
                records.append((name, resolution, strategy.value,
                                result.outcome.value, s.nodes_expanded,
                                s.nodes_generated, s.conflicts_resolved,
                                s.low_level_calls, paths))
    outcomes = {r[3] for r in records}
    assert outcomes == {"solved", "exhausted"}
    assert hashlib.sha256(repr(records).encode()).hexdigest() == GOLDEN_DIGEST


def test_incremental_conflict_table_matches_full_rescan():
    # A node scans only the pairs that touch a replanned agent (at the root,
    # every agent); every expanded node must still agree with a scan of its
    # whole plan, and its table with a scan of each pair.
    rng = random.Random(6061)
    checked = 0
    multi_agent_children = 0
    for resolution in (1, 2, 4):
        for width in (0.4, 0.5, 0.8):
            for _ in range(6):
                grid = grid_from(rng.choice(small_maps()))
                roadmap = build_roadmap(grid, resolution, width)
                instance = random_instance(grid, roadmap, rng,
                                           rng.randint(4, 6))
                for strategy in (Strategy.CBS, Strategy.CBSWP):
                    nodes = {}
                    solve(instance, strategy, Budget(node_limit=25),
                          inspect=lambda n: nodes.setdefault(n.node_id, n))
                    for node in nodes.values():
                        plan = TeamPlan([node.paths[a]
                                         for a in sorted(node.paths)])
                        assert node.first_conflict == \
                            find_first_conflict(plan, roadmap)
                        assert node.conflict_count == len(scan_reference(
                            roadmap.coords,
                            {a: p.states for a, p in node.paths.items()},
                            width))
                        agents = sorted(node.paths)
                        for k, a in enumerate(agents):
                            for b in agents[k + 1:]:
                                found = list(iter_conflicts(TeamPlan(
                                    [node.paths[a], node.paths[b]]), roadmap))
                                expect = (found[0], len(found)) if found \
                                    else None
                                assert node.pair_conflicts.get((a, b)) == \
                                    expect
                        checked += 1
                        parent = nodes.get(node.parent)
                        if parent is not None and sum(
                                node.paths[a] is not parent.paths[a]
                                for a in node.paths) > 1:
                            multi_agent_children += 1
    assert checked > 1000
    assert multi_agent_children >= 5


def test_goal_records_are_built_on_an_agents_first_plan(monkeypatch):
    # Counted through the highlevel name, which benchmark/tracing.py times.
    built = []

    def distances_to_goal(roadmap, goal):
        built.append(goal)
        return lowlevel.distances_to_goal(roadmap, goal)

    records = {}  # agent -> the records its calls were given

    def shortest_path(roadmap, task, constraints=(), obstacles=(),
                      limits=None, dist=None):
        records.setdefault(task.agent_id, set()).add(id(dist))
        return lowlevel.shortest_path(roadmap, task, constraints, obstacles,
                                      limits, dist)

    monkeypatch.setattr(highlevel, "distances_to_goal", distances_to_goal)
    monkeypatch.setattr(highlevel, "shortest_path", shortest_path)
    # A solve that only walks roots grows each agent's levels up to its
    # start and no further.
    roadmap = empty_roadmap(6)
    apart = instance_from_cells(roadmap, [((0, 0), (3, 0)), ((0, 5), (3, 5))])
    for strategy in (Strategy.CBS, Strategy.CBSWP):
        built.clear()
        result = solve(apart, strategy)
        assert result.outcome is Outcome.SOLVED
        assert result.stats.nodes_generated == 1
        assert sorted(built) == sorted(t.goal for t in apart.tasks)
        assert result.stats.goal_levels == sum(
            bfs_dist(roadmap.adjacency, t.goal)[t.start] for t in apart.tasks)

    rng = random.Random(1414)
    reused = 0
    for _ in range(12):
        grid = grid_from(rng.choice(small_maps()))
        instance = random_instance(grid, build_roadmap(grid, 1, 0.5), rng, 4)
        for strategy in (Strategy.CBS, Strategy.CBSWP):
            built.clear()
            records.clear()
            result = solve(instance, strategy, Budget(node_limit=30))
            # One record per planned agent, given to each of its calls.
            assert sorted(built) == sorted(t.goal for t in instance.tasks)
            assert all(len(ids) == 1 for ids in records.values())
            assert len(records) == len(instance.tasks)
            reused += result.stats.low_level_calls - len(built)
    assert reused > 12


def test_layer_names_stay_swappable(monkeypatch):
    # benchmark/tracing.py times a solve by swapping four names in the
    # highlevel namespace and calls the low level with positional arguments;
    # a solver that stopped looking them up there would go untraced. Its
    # scan timer wraps each next() on the returned iterator, so the scan
    # must run inside next(): work done at call time is timed as tree upkeep.
    assert inspect.isgeneratorfunction(conflicts.iter_conflicts)
    # The solver no longer calls find_first_conflict, but the tracer
    # swaps it too, so the name must stay bound.
    assert highlevel.find_first_conflict is conflicts.find_first_conflict
    calls = {}
    scanned = []  # agents per iter_conflicts call

    def counted(name, fn):
        def call(*args):
            calls[name] = calls.get(name, 0) + 1
            if name == "iter_conflicts":
                scanned.append(len(args[0].paths))
            return fn(*args)
        return call

    def shortest_path(roadmap, task, constraints=(), obstacles=(),
                      limits=None, dist=None):
        calls["shortest_path"] = calls.get("shortest_path", 0) + 1
        return lowlevel.shortest_path(roadmap, task, constraints, obstacles,
                                      limits, dist)

    monkeypatch.setattr(highlevel, "shortest_path", shortest_path)
    for name, fn in (("distances_to_goal", lowlevel.distances_to_goal),
                     ("iter_conflicts", conflicts.iter_conflicts),
                     ("find_first_conflict", conflicts.find_first_conflict)):
        monkeypatch.setattr(highlevel, name, counted(name, fn))
    grid = grid_from(["...", "...", "..."])
    roadmap = build_roadmap(grid, 1, 0.5)
    instance = random_instance(grid, roadmap, random.Random(1), 4)
    result = solve(instance, Strategy.CBSWP, Budget(node_limit=20))
    assert result.outcome is Outcome.SOLVED
    # The solver reads conflicts through iter_conflicts only.
    assert set(calls) == {"shortest_path", "distances_to_goal",
                          "iter_conflicts"}

    # Every node, the root included, scans its conflicting replanned pairs
    # through the same name, one pair per call, and counts each scan.
    scanned.clear()
    result = solve(instance, Strategy.CBS, Budget(node_limit=20))
    assert result.outcome is Outcome.SOLVED
    assert result.stats.nodes_generated > 1
    assert set(scanned) == {2}
    assert len(scanned) == result.stats.pair_scans > 0
