import hashlib
import random
import time

import pytest

from mapf_lab import (AgentPath, AgentTask, MotionConstraint, SearchLimits,
                      build_roadmap, distances_to_goal, load_map,
                      shortest_path)
from mapf_lab.conflicts import TeamPlan, iter_conflicts
from mapf_lab.lowlevel import (HORIZON_SLACK, INF, SearchBudgetExceeded,
                              _reserve)

from helpers import empty_roadmap, grid_from, roadmap_from
from oracles import bfs_dist, spacetime_reference


def cell(roadmap, x, y):
    return roadmap.cell_vertex(x, y)


def test_heuristic_zero_at_goal_and_manhattan_on_empty():
    roadmap = empty_roadmap(4, 1)
    goal = cell(roadmap, 3, 0)
    dist = distances_to_goal(roadmap, goal)
    assert dist[goal] == 0
    for x in range(4):
        for y in range(4):
            assert dist[cell(roadmap, x, y)] == abs(x - 3) + y


def test_heuristic_exceeds_manhattan_behind_wall():
    roadmap = roadmap_from([".@.",
                            ".@.",
                            "..."])
    dist = distances_to_goal(roadmap, cell(roadmap, 2, 0))
    assert dist[cell(roadmap, 0, 0)] == 6 > 2


def test_heuristic_unreachable_is_inf():
    roadmap = roadmap_from([".@.", "@@.", "..."])
    dist = distances_to_goal(roadmap, cell(roadmap, 0, 0))
    assert dist[cell(roadmap, 2, 2)] == INF


def test_heuristic_record_matches_bfs_in_any_read_order(data_dir):
    # The record resolves each distance on its first read and grows its
    # levels only as far as that read needs; read order must not matter.
    rng = random.Random(1919)
    roadmaps = [build_roadmap(load_map(f"{data_dir}/{name}.map"), resolution)
                for name in ("empty-8-8", "random-32-32-10", "maze-32-32-2",
                             "city-32-32")
                for resolution in (1, 2)]
    for resolution in (1, 2, 4):
        for width in (0.4, 0.5, 0.8):
            for _ in range(6):
                rows = ["".join(rng.choice("....@") for _ in range(5))
                        for _ in range(4)]
                roadmaps.append(build_roadmap(grid_from(rows), resolution,
                                              width))
    cut_off = 0
    for roadmap in roadmaps:
        n = roadmap.vertex_count
        if n == 0:
            continue
        for _ in range(2):
            goal = rng.randrange(n)
            want = bfs_dist(roadmap.adjacency, goal)
            order = list(range(n))
            rng.shuffle(order)
            record = distances_to_goal(roadmap, goal)
            if rng.random() < 0.5:
                assert record.longest() == max(want.values())
            for v in order:
                assert record[v] == want.get(v, INF), (roadmap.resolution, v)
            assert record.longest() == max(want.values())
            assert len(record.levels) == max(want.values()) + 1
            assert list(record) == [want.get(v, INF) for v in range(n)]
            with pytest.raises(IndexError):
                record[n]
            cut_off += n - len(want)
    assert cut_off > 0


def test_unconstrained_straight_line():
    roadmap = empty_roadmap(4, 1)
    task = AgentTask(0, cell(roadmap, 0, 0), cell(roadmap, 3, 0))
    path = shortest_path(roadmap, task)
    assert path is not None
    assert path.cost == 3
    assert path.states[0] == task.start and path.states[-1] == task.goal


def test_vertex_constraint_forces_cost_4():
    roadmap = empty_roadmap(4, 1)
    task = AgentTask(0, cell(roadmap, 0, 0), cell(roadmap, 3, 0))
    ban = MotionConstraint(0, 1, vertex=cell(roadmap, 1, 0))
    path = shortest_path(roadmap, task, constraints=[ban])
    assert path.cost == 4
    assert path.states[1] != cell(roadmap, 1, 0)


def test_edge_constraint_blocks_both_directions():
    roadmap = empty_roadmap(2, 1)
    u, v = cell(roadmap, 0, 0), cell(roadmap, 1, 0)
    ban = MotionConstraint(0, 0, edge=(v, u))
    path = shortest_path(roadmap, AgentTask(0, u, v), constraints=[ban])
    # The reversed direction is banned too, so the step waits out t=0.
    assert path.cost == 2
    assert path.states[:2] == [u, u]


def test_constraints_of_other_agents_ignored():
    roadmap = empty_roadmap(4, 1)
    task = AgentTask(0, cell(roadmap, 0, 0), cell(roadmap, 3, 0))
    other = MotionConstraint(1, 1, vertex=cell(roadmap, 1, 0))
    assert shortest_path(roadmap, task, constraints=[other]).cost == 3


def test_goal_resting_obstacle_means_none():
    roadmap = empty_roadmap(3, 1)
    task = AgentTask(0, cell(roadmap, 0, 0), cell(roadmap, 2, 0))
    squatter = AgentPath(1, [cell(roadmap, 2, 0)])
    assert shortest_path(roadmap, task, obstacles=[squatter]) is None


def test_obstacle_vacating_goal_allows_arrival():
    roadmap = empty_roadmap(3, 1)
    task = AgentTask(0, cell(roadmap, 0, 0), cell(roadmap, 2, 0))
    mover = AgentPath(1, [cell(roadmap, 2, 0), cell(roadmap, 2, 1)])
    path = shortest_path(roadmap, task, obstacles=[mover])
    assert path is not None and path.cost == 2


def test_goal_ban_delays_final_arrival():
    roadmap = empty_roadmap(3, 1)
    goal = cell(roadmap, 2, 0)
    task = AgentTask(0, cell(roadmap, 0, 0), goal)
    ban = MotionConstraint(0, 5, vertex=goal)
    path = shortest_path(roadmap, task, constraints=[ban])
    assert path.cost == 6
    assert path.states[5] != goal


def test_node_budget_raises_exhausted():
    roadmap = empty_roadmap(8, 1)
    task = AgentTask(0, cell(roadmap, 0, 0), cell(roadmap, 7, 7))
    with pytest.raises(SearchBudgetExceeded) as err:
        shortest_path(roadmap, task, limits=SearchLimits(node_budget=3))
    assert err.value.reason == "nodes"


def test_deadline_raises_time():
    roadmap = empty_roadmap(8, 1)
    task = AgentTask(0, cell(roadmap, 0, 0), cell(roadmap, 7, 7))
    with pytest.raises(SearchBudgetExceeded) as err:
        shortest_path(roadmap, task,
                      limits=SearchLimits(deadline=time.perf_counter() - 1.0))
    assert err.value.reason == "time"


def test_unconstrained_descent_keeps_the_search_limits():
    roadmap = empty_roadmap(8, 1)
    task = AgentTask(0, cell(roadmap, 0, 0), cell(roadmap, 7, 7))
    # The search expands the 15 states of the 14-step path, whether the walk
    # reads a distance table or a search from the goal.
    for dist in (None, distances_to_goal(roadmap, task.goal)):
        with pytest.raises(SearchBudgetExceeded) as err:
            shortest_path(roadmap, task, limits=SearchLimits(node_budget=14),
                          dist=dist)
        assert err.value.reason == "nodes"
        path = shortest_path(roadmap, task,
                             limits=SearchLimits(node_budget=15), dist=dist)
        assert path.cost == 14
        assert shortest_path(roadmap, task, limits=SearchLimits(horizon=13),
                             dist=dist) is None
        assert shortest_path(roadmap, task, limits=SearchLimits(horizon=14),
                             dist=dist).cost == 14
        with pytest.raises(SearchBudgetExceeded) as err:
            shortest_path(roadmap, task, dist=dist, limits=SearchLimits(
                deadline=time.perf_counter() - 1.0))
        assert err.value.reason == "time"


def test_unconstrained_unreachable_goal_is_none():
    roadmap = roadmap_from(["..@.."])
    task = AgentTask(0, cell(roadmap, 0, 0), cell(roadmap, 4, 0))
    assert shortest_path(roadmap, task) is None
    assert shortest_path(roadmap, task,
                         dist=distances_to_goal(roadmap, task.goal)) is None


def test_late_goal_ban_does_not_expand_every_wait():
    # Without the goal-clearance bound the search expands every state
    # within reach of the goal at every timestep up to the ban (1,825 here).
    roadmap = empty_roadmap(8, 1)
    goal = cell(roadmap, 3, 0)
    task = AgentTask(0, cell(roadmap, 0, 0), goal)
    ban = MotionConstraint(0, 40, vertex=goal)
    path = shortest_path(roadmap, task, constraints=[ban],
                         limits=SearchLimits(node_budget=200))
    assert path.cost == 41 and path.states[40] != goal


def test_default_horizon_is_capped_at_twice_the_vertex_count():
    # A goal ban at t = 6 on a 3-vertex roadmap needs arrival at 7, past the
    # default cap of 2 * 3: None means no path within the horizon. The cap
    # is what ends cbs on an infeasible instance, so it stays.
    roadmap = roadmap_from(["..."])
    task = AgentTask(0, 0, 2)
    ban = [MotionConstraint(0, 6, vertex=2)]
    assert shortest_path(roadmap, task, constraints=ban) is None
    path = shortest_path(roadmap, task, constraints=ban,
                         limits=SearchLimits(horizon=20))
    assert path.cost == 7


def test_lazy_default_horizon_equals_the_exact_one(data_dir):
    # Starts 3 steps from the goal grow few levels, so the search tests its
    # prunes against a low bound on the default horizon and must grow the
    # levels to exhaustion before it prunes. In half the calls resting
    # bodies on every vertex 2 steps from the goal wall it off, so the
    # search runs to its horizon. The result, a path, None or the budget
    # exception, must equal the one under the exact horizon set explicitly.
    roadmap = build_roadmap(load_map(f"{data_dir}/maze-32-32-2.map"), 2)
    n = roadmap.vertex_count
    rng = random.Random(1920)
    outcomes = set()
    exhausted = 0
    for _ in range(30):
        goal = rng.randrange(n)
        far = bfs_dist(roadmap.adjacency, goal)
        start = rng.choice([v for v, d in far.items() if d == 3])
        constraints = []
        for _ in range(rng.randint(1, 4)):
            t = rng.randint(4, 12)
            if rng.random() < 0.5:
                constraints.append(MotionConstraint(0, t, vertex=goal))
            else:
                v = rng.choice([v for v, d in far.items() if d <= 6])
                constraints.append(MotionConstraint(0, t, vertex=v))
        obstacles = []
        if rng.random() < 0.5:
            obstacles = [AgentPath(1 + i, [v]) for i, v in enumerate(
                v for v, d in far.items() if d == 2)]
        goal_clear = max((c.timestep + 1 for c in constraints
                          if c.vertex == goal), default=0)
        base = max(max(c.timestep for c in constraints), goal_clear) \
            + HORIZON_SLACK
        exact = min(base + max(far.values()), 2 * n)
        record = distances_to_goal(roadmap, goal)
        results = []
        for limits, dist in ((SearchLimits(node_budget=20_000), record),
                             (SearchLimits(node_budget=20_000,
                                           horizon=exact), None)):
            try:
                path = shortest_path(roadmap, AgentTask(0, start, goal),
                                     constraints, obstacles, limits, dist)
                results.append(None if path is None else path.states)
            except SearchBudgetExceeded as err:
                results.append(err.reason)
        assert results[0] == results[1]
        outcomes.add(type(results[0]))
        exhausted += record.exhausted
    assert outcomes == {list, type(None), str}
    assert exhausted > 0


def pinned_calls(data_dir):
    """Twenty constrained or obstructed calls on bundled maps, mazes and
    r = 2 among them, drawn from a fixed seed: (roadmap, task, constraints,
    obstacles) each."""
    rng = random.Random(1717)
    for name, resolution in (("maze-32-32-2", 1), ("maze-32-32-2", 2),
                             ("random-32-32-10", 2), ("city-32-32", 1),
                             ("empty-16-16", 2)):
        roadmap = build_roadmap(load_map(f"{data_dir}/{name}.map"),
                                resolution)
        for k in range(4):
            goal = rng.randrange(roadmap.vertex_count)
            dist = distances_to_goal(roadmap, goal)
            start = rng.choice([v for v, d in enumerate(dist) if 10 <= d < INF])
            task = AgentTask(0, start, goal)
            free = shortest_path(roadmap, task).states
            if k % 2 == 0:
                # Keep-outs on three states of the free path for two
                # timesteps each, on its first move, and on the goal after
                # the free arrival.
                constraints = [MotionConstraint(0, t + dt, vertex=free[t])
                               for t in rng.sample(range(1, len(free)), 3)
                               for dt in (0, 1)]
                constraints += [MotionConstraint(0, 0, edge=(free[0], free[1])),
                                MotionConstraint(0, len(free) + 4, vertex=goal)]
                yield roadmap, task, constraints, []
                continue
            # Two agents leave from the middle and the far end of the free
            # path, for goals well clear of this agent's start and goal.
            near = distances_to_goal(roadmap, start)
            clear = [v for v in range(roadmap.vertex_count)
                     if 4 < dist[v] < INF and 4 < near[v]]
            obstacles = [shortest_path(roadmap, AgentTask(1 + i, o, rng.choice(
                             clear))) for i, o in enumerate(
                             (free[len(free) // 2], free[-5]))]
            yield roadmap, task, [], obstacles


# The smallest node budget each pinned call succeeds with, and a digest of
# the states the calls return, both from the kernel whose heap entries were
# (f, h, v, t) tuples. A kernel that pops the same states in the same order
# needs exactly these budgets.
PINNED_BUDGETS = [42, 55, 53, 109, 115, 157, 232, 127, 68, 52,
                  23, 67, 37, 11, 50, 262, 32, 16, 32, 22]
PINNED_STATES = "b81c41ff9cd97b7e"


def test_expansion_counts_are_pinned(data_dir):
    found = []
    calls = list(pinned_calls(data_dir))
    assert len(calls) == len(PINNED_BUDGETS)
    for (roadmap, task, constraints, obstacles), budget in zip(
            calls, PINNED_BUDGETS):
        with pytest.raises(SearchBudgetExceeded) as err:
            shortest_path(roadmap, task, constraints, obstacles,
                          SearchLimits(node_budget=budget - 1))
        assert err.value.reason == "nodes"
        path = shortest_path(roadmap, task, constraints, obstacles,
                             SearchLimits(node_budget=budget))
        assert path.states == shortest_path(roadmap, task, constraints,
                                            obstacles).states
        found.append(path.states)
    assert hashlib.sha256(repr(found).encode()).hexdigest()[:16] \
        == PINNED_STATES


def unbindable_ban(roadmap, start, goal, rng):
    """A vertex ban at t = 0 away from the start and the goal: it can never
    bind, but it sends the call through the heap search."""
    v = rng.choice([v for v in range(roadmap.vertex_count)
                    if v not in (start, goal)])
    return [MotionConstraint(0, 0, vertex=v)]


def test_unconstrained_path_is_the_heap_search_path(data_dir):
    rng = random.Random(9)
    roadmaps = [build_roadmap(load_map(f"{data_dir}/{name}.map"), resolution)
                for name in ("empty-16-16", "random-32-32-10", "maze-32-32-2",
                             "city-32-32")
                for resolution in (1, 2)]
    for resolution in (1, 2, 4):
        for width in (0.4, 0.5, 0.8):
            for _ in range(10):
                rows = ["".join(rng.choice("....@") for _ in range(4))
                        for _ in range(4)]
                roadmaps.append(build_roadmap(grid_from(rows), resolution,
                                              width))
    compared = 0
    for roadmap in roadmaps:
        if roadmap.vertex_count < 3:
            continue
        for _ in range(5):
            start, goal = rng.sample(range(roadmap.vertex_count), 2)
            task = AgentTask(0, start, goal)
            path = shortest_path(roadmap, task)
            tabled = shortest_path(roadmap, task,
                                   dist=distances_to_goal(roadmap, goal))
            searched = shortest_path(
                roadmap, task,
                constraints=unbindable_ban(roadmap, start, goal, rng))
            if path is None:
                assert tabled is None and searched is None
                continue
            assert path.states == tabled.states == searched.states, (
                roadmap.resolution, start, goal)
            compared += 1
    assert compared >= 300


def test_deterministic_paths():
    roadmap = roadmap_from(["....", ".@..", "...."], resolution=2)
    task = AgentTask(0, 0, roadmap.vertex_count - 1)
    first = shortest_path(roadmap, task)
    second = shortest_path(roadmap, task)
    assert first.states == second.states


def replay_is_clean(roadmap, path, constraints, obstacles):
    for c in constraints:
        if c.agent != path.agent_id:
            continue
        if c.vertex is not None:
            pos = (path.states[c.timestep] if c.timestep < len(path.states)
                   else path.states[-1])
            assert pos != c.vertex
        else:
            if c.timestep + 1 < len(path.states):
                step = (path.states[c.timestep], path.states[c.timestep + 1])
                assert step != c.edge and step != c.edge[::-1]
    for t in range(len(path.states) - 1):
        u, v = path.states[t], path.states[t + 1]
        assert u == v or roadmap.adjacent(u, v)


def test_matches_reference_on_random_instances():
    for resolution in (1, 2, 4):
        for width in (0.4, 0.5, 0.8):
            check_against_reference(resolution, width)


def test_matches_reference_with_late_goal_bans():
    for resolution in (1, 2, 4):
        for width in (0.4, 0.5, 0.8):
            check_against_reference(resolution, width, goal_bans=True)


def test_matches_reference_on_one_row_and_one_column_maps():
    # One lattice row leaves the body keys far narrower than the row stride
    # in the overlap offsets, so reservation codes of different half-times
    # collide unless their span covers the offsets too. The maps are open:
    # a blocked cell would only cut the line in two.
    for resolution in (1, 2, 4):
        for width in (0.4, 0.5, 0.8):
            for shape in ((1, 6), (6, 1)):
                check_against_reference(resolution, width, shape, cells=".")


def check_against_reference(resolution, width, shape=(4, 4), cells="....@",
                            goal_bans=False):
    height, length = shape
    seed = f"23:{resolution}:{width}"
    if shape != (4, 4):
        seed += f":{height}x{length}"
    if goal_bans:
        seed += ":goal"
    rng = random.Random(seed)
    agreements = 0
    for trial in range(40):
        rows = ["".join(rng.choice(cells) for _ in range(length))
                for _ in range(height)]
        roadmap = build_roadmap(grid_from(rows), resolution, width)
        if roadmap.vertex_count < 2:
            continue
        start, goal = rng.sample(range(roadmap.vertex_count), 2)
        horizon = 12 * (resolution + 1)
        constraints = []
        vertex_bans = []
        edge_bans = []
        for _ in range(rng.randint(0, 6)):
            t = rng.randint(0, 8 * resolution)
            if rng.random() < 0.6:
                v = rng.randrange(roadmap.vertex_count)
                if (v, t) == (start, 0):
                    continue
                constraints.append(MotionConstraint(0, t, vertex=v))
                vertex_bans.append((v, t))
            else:
                edges = list(roadmap.edges())
                if not edges:
                    continue
                u, v = edges[rng.randrange(len(edges))]
                constraints.append(MotionConstraint(0, t, edge=(u, v)))
                edge_bans.append((u, v, t))
        for _ in range(rng.randint(1, 2) if goal_bans else 0):
            t = rng.randint(0, 8 * resolution)
            constraints.append(MotionConstraint(0, t, vertex=goal))
            vertex_bans.append((goal, t))
        obstacles = []
        obstacle_paths = []
        for _ in range(rng.randint(0, 2)):
            o = rng.randrange(roadmap.vertex_count)
            states = [o]
            for _ in range(rng.randint(0, 5 * resolution)):
                options = (states[-1],) + tuple(roadmap.adjacency[states[-1]])
                states.append(rng.choice(options))
            if states[-1] == goal:
                continue
            obstacles.append(AgentPath(9, states))
            obstacle_paths.append(states)
        try:
            path = shortest_path(roadmap, AgentTask(0, start, goal),
                                 constraints=constraints, obstacles=obstacles,
                                 limits=SearchLimits(horizon=horizon))
        except SearchBudgetExceeded:
            continue
        want = spacetime_reference(roadmap.coords, roadmap.adjacency, start,
                                   goal, horizon, vertex_bans, edge_bans,
                                   obstacle_paths, width)
        if path is None:
            assert want is None, \
                f"r={resolution} w={width} {shape} trial {trial}: search missed cost {want}"
        else:
            assert want == path.cost, (f"r={resolution} w={width} {shape} trial {trial}: "
                                       f"cost {path.cost} vs reference {want}")
            replay_is_clean(roadmap, path, constraints, obstacles)
            agreements += 1
    assert agreements >= 20, f"r={resolution} w={width} shape={shape}"


def test_occupancy_record_is_kept_per_roadmap():
    # One path object read on two roadmaps gives each roadmap's answer.
    grid = grid_from(["....", "....", "...."])
    coarse, fine = build_roadmap(grid, 1, 0.8), build_roadmap(grid, 2, 0.8)
    shared = AgentPath(0, [0, 1, 2, 3])  # lattice (0..3, 0) on both
    other = AgentPath(1, [4])  # clear of it at r = 1, in its way at r = 2

    def answers(path, roadmap):
        scan = list(iter_conflicts(TeamPlan([path, other]), roadmap))
        return scan, _reserve(roadmap, [path, other])

    first = {rm: answers(shared, rm) for rm in (coarse, fine, coarse)}
    for roadmap in (coarse, fine):
        fresh = AgentPath(0, list(shared.states))
        assert first[roadmap] == answers(fresh, roadmap)
        assert answers(shared, roadmap) == answers(fresh, roadmap)
    assert first[coarse][0] != first[fine][0]
