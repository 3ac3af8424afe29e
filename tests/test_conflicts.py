import random

import pytest

from mapf_lab import (AgentPath, Conflict, ConflictKind, TeamPlan,
                      bodies_overlap, find_first_conflict,
                      validate_plan)
from mapf_lab.conflicts import PlanValidationError, iter_conflicts
from mapf_lab.lowlevel import _reserve
from mapf_lab.roadmap import AgentTask, ProblemInstance

from helpers import empty_roadmap, roadmap_from
from oracles import scan_reference


def test_bodies_overlap_cases():
    assert bodies_overlap((1.5, 2.5), (1.5, 2.5), 0.5)
    assert not bodies_overlap((0.0, 0.0), (0.5, 0.0), 0.5)
    assert not bodies_overlap((0.5, 0.5), (1.5, 0.5), 0.5)  # r=1 neighbors
    assert bodies_overlap((0.5, 0.5), (0.75, 0.5), 0.5)     # r=4 neighbors
    assert bodies_overlap((0.5, 0.5), (0.9, 0.9), 0.5)
    assert not bodies_overlap((0.5, 0.5), (0.9, 1.0), 0.5)


def test_path_cost_strips_trailing_rest():
    assert AgentPath(0, [3]).cost == 0
    assert AgentPath(0, [3, 3, 3]).cost == 0
    assert AgentPath(0, [3, 4, 4, 4]).cost == 1
    assert AgentPath(0, [3, 4, 3, 3]).cost == 2
    assert AgentPath(0, [3, 3, 4]).cost == 2


def test_team_plan_cost_and_makespan():
    plan = TeamPlan([AgentPath(0, [0, 1, 2, 2]), AgentPath(1, [5, 5, 6])])
    assert plan.cost == 2 + 2
    assert plan.makespan == 2


def vertex_path(roadmap, cells):
    return [roadmap.cell_vertex(*c) for c in cells]


def test_swap_is_edge_conflict():
    roadmap = empty_roadmap(3, 1)
    a = AgentPath(0, vertex_path(roadmap, [(0, 0), (1, 0)]))
    b = AgentPath(1, vertex_path(roadmap, [(1, 0), (0, 0)]))
    conflict = find_first_conflict(TeamPlan([a, b]), roadmap)
    assert conflict is not None
    assert conflict.kind is ConflictKind.EDGE
    assert conflict.agents == (0, 1)
    assert conflict.timestep == 0


def test_same_vertex_is_vertex_conflict_at_t3():
    roadmap = empty_roadmap(5, 1)
    a = AgentPath(0, vertex_path(roadmap, [(0, 0), (1, 0), (2, 0), (3, 0)]))
    b = AgentPath(1, vertex_path(roadmap, [(3, 3), (3, 2), (3, 1), (3, 0)]))
    conflict = find_first_conflict(TeamPlan([a, b]), roadmap)
    assert conflict.kind is ConflictKind.VERTEX
    assert conflict.timestep == 3
    v = roadmap.cell_vertex(3, 0)
    assert conflict.locations == (v, v)


def test_follow_move_is_legal_at_r1():
    roadmap = empty_roadmap(4, 1)
    a = AgentPath(0, vertex_path(roadmap, [(1, 0), (2, 0)]))
    b = AgentPath(1, vertex_path(roadmap, [(0, 0), (1, 0)]))
    assert find_first_conflict(TeamPlan([a, b]), roadmap) is None


def test_r2_mover_into_waiter_is_edge_conflict_first():
    # Stepping toward a waiter puts the edge midpoint 0.25 from its vertex:
    # the width 0.5 bodies already overlap mid-transition, so the edge
    # conflict at t=0 precedes the landing vertex conflict at t=1.
    roadmap = empty_roadmap(3, 2)
    u = roadmap.vertex_id(0, 0)
    v = roadmap.vertex_id(1, 0)
    mover = AgentPath(0, [u, v])
    waiter = AgentPath(1, [v, v])
    plan = TeamPlan([mover, waiter])
    conflict = find_first_conflict(plan, roadmap)
    assert conflict.kind is ConflictKind.EDGE
    assert conflict.timestep == 0
    assert conflict.locations == ((u, v), v)
    kinds = [(c.timestep, c.kind) for c in iter_conflicts(plan, roadmap)]
    assert (1, ConflictKind.VERTEX) in kinds


def test_r2_mover_past_waiter_one_step_away_is_legal():
    # One lattice step further the midpoint is 0.75 away and the landing
    # vertex exactly 0.5: boundary touch, no conflict.
    roadmap = empty_roadmap(3, 2)
    u = roadmap.vertex_id(0, 0)
    v = roadmap.vertex_id(1, 0)
    w = roadmap.vertex_id(2, 0)
    plan = TeamPlan([AgentPath(0, [u, v]), AgentPath(1, [w, w])])
    assert find_first_conflict(plan, roadmap) is None


def test_r3_touching_mid_move_bodies_do_not_conflict():
    # Vertices sit at x = 0.5 + i/3. Halfway from vertex 2 to vertex 1 the
    # mover is centered at x = 1, exactly 0.5 from the waiter on vertex 0:
    # the bodies only touch. The first conflict is the landing at t = 1.
    roadmap = roadmap_from(["..."], resolution=3)
    waiter = AgentPath(0, [0, 0])
    mover = AgentPath(1, [2, 1])
    conflict = find_first_conflict(TeamPlan([waiter, mover]), roadmap)
    assert conflict == Conflict(ConflictKind.VERTEX, (0, 1), (0, 1), 1)


def test_r4_adjacent_vertices_conflict():
    roadmap = empty_roadmap(3, 4)
    a = AgentPath(0, [roadmap.vertex_id(0, 0)])
    b = AgentPath(1, [roadmap.vertex_id(1, 0)])
    conflict = find_first_conflict(TeamPlan([a, b]), roadmap)
    assert conflict.kind is ConflictKind.VERTEX
    assert conflict.timestep == 0
    assert conflict.locations == (roadmap.vertex_id(0, 0),
                                  roadmap.vertex_id(1, 0))


def test_rest_at_goal_still_occupies():
    roadmap = empty_roadmap(4, 1)
    parked = AgentPath(0, vertex_path(roadmap, [(2, 0)]))
    runner = AgentPath(1, vertex_path(roadmap, [(0, 0), (1, 0), (2, 0)]))
    conflict = find_first_conflict(TeamPlan([parked, runner]), roadmap)
    assert conflict.kind is ConflictKind.VERTEX
    assert conflict.timestep == 2


def test_canonical_order_earliest_then_vertex_then_pair():
    roadmap = empty_roadmap(5, 1)
    # Pairs (0,1) and (2,3) both collide at t=1; (2,3) also share an edge
    # from t=1 and a vertex at t=2, exercising every tie-break level.
    a = AgentPath(0, vertex_path(roadmap, [(0, 0), (1, 0), (2, 0)]))
    b = AgentPath(1, vertex_path(roadmap, [(2, 0), (1, 0), (0, 0)]))
    c = AgentPath(2, vertex_path(roadmap, [(0, 2), (1, 2), (2, 2)]))
    d = AgentPath(3, vertex_path(roadmap, [(2, 2), (1, 2), (2, 2)]))
    conflicts = list(iter_conflicts(TeamPlan([a, b, c, d]), roadmap))
    keys = [(c.timestep, c.kind, c.agents) for c in conflicts]
    assert keys == sorted(
        keys, key=lambda k: (k[0], k[1] is ConflictKind.EDGE, k[2]))
    first = find_first_conflict(TeamPlan([a, b, c, d]), roadmap)
    assert first == conflicts[0]
    assert first.timestep == 1
    assert first.kind is ConflictKind.VERTEX
    assert first.agents == (0, 1)


def test_detection_ignores_path_list_order():
    roadmap = empty_roadmap(3, 1)
    a = AgentPath(0, vertex_path(roadmap, [(0, 0), (1, 0)]))
    b = AgentPath(1, vertex_path(roadmap, [(1, 0), (0, 0)]))
    fwd = list(iter_conflicts(TeamPlan([a, b]), roadmap))
    rev = list(iter_conflicts(TeamPlan([b, a]), roadmap))
    assert fwd == rev
    assert all(c.agents[0] < c.agents[1] for c in fwd)


def test_conflict_json():
    conflict = Conflict(ConflictKind.EDGE, (0, 2), ((3, 4), 7), 5)
    assert conflict.to_json() == {"kind": "edge", "agents": [0, 2],
                                  "locations": [[3, 4], 7], "timestep": 5}


def make_instance(roadmap, paths):
    tasks = tuple(AgentTask(p.agent_id, p.states[0], p.states[-1])
                  for p in paths)
    return ProblemInstance(roadmap, tasks)


def test_validate_single_agent_empty():
    roadmap = empty_roadmap(3, 1)
    path = AgentPath(0, vertex_path(roadmap, [(0, 0), (1, 0), (2, 0)]))
    plan = TeamPlan([path])
    assert validate_plan(plan, roadmap, make_instance(roadmap, [path])) == []


def test_validate_reports_swap():
    roadmap = empty_roadmap(3, 1)
    a = AgentPath(0, vertex_path(roadmap, [(0, 0), (1, 0)]))
    b = AgentPath(1, vertex_path(roadmap, [(1, 0), (0, 0)]))
    plan = TeamPlan([a, b])
    conflicts = validate_plan(plan, roadmap, make_instance(roadmap, [a, b]))
    assert len(conflicts) >= 1
    assert any(c.kind is ConflictKind.EDGE for c in conflicts)


def test_validate_structural_errors():
    roadmap = empty_roadmap(3, 1)
    a = AgentPath(0, vertex_path(roadmap, [(0, 0), (1, 0)]))
    instance = make_instance(roadmap, [a])
    wrong_goal = TeamPlan([AgentPath(0, vertex_path(roadmap,
                                                    [(0, 0), (0, 1)]))])
    with pytest.raises(PlanValidationError):
        validate_plan(wrong_goal, roadmap, instance)
    unknown_agent = TeamPlan([AgentPath(7, vertex_path(roadmap,
                                                       [(0, 0), (1, 0)]))])
    with pytest.raises(PlanValidationError):
        validate_plan(unknown_agent, roadmap, instance)
    missing = TeamPlan([a])
    two = ProblemInstance(roadmap, (AgentTask(0, a.states[0], a.states[-1]),
                                    AgentTask(1, roadmap.cell_vertex(2, 2),
                                              roadmap.cell_vertex(2, 2))))
    with pytest.raises(PlanValidationError):
        validate_plan(missing, roadmap, two)
    teleport = TeamPlan([AgentPath(0, [roadmap.cell_vertex(0, 0),
                                       roadmap.cell_vertex(2, 2)])])
    with pytest.raises(PlanValidationError):
        validate_plan(teleport, roadmap, make_instance(
            roadmap, [AgentPath(0, [roadmap.cell_vertex(0, 0),
                                    roadmap.cell_vertex(2, 2)])]))


def random_walk(roadmap, rng, start, steps):
    states = [start]
    for _ in range(steps):
        options = (states[-1],) + tuple(roadmap.adjacency[states[-1]])
        states.append(rng.choice(options))
    return states


def test_first_conflict_agrees_with_full_scan():
    for resolution in (1, 2, 4):
        for width in (0.4, 0.5, 0.8):
            check_scan(resolution, width)


def check_scan(resolution, width):
    rng = random.Random(f"17:{resolution}:{width}")
    roadmap = roadmap_from(["...."] * 4, resolution, width)
    found = 0
    for trial in range(30):
        paths = []
        for agent in range(rng.randint(2, 4)):
            start = rng.randrange(roadmap.vertex_count)
            paths.append(AgentPath(agent, random_walk(
                roadmap, rng, start, rng.randint(0, 6 * resolution))))
        plan = TeamPlan(paths)
        conflicts = list(iter_conflicts(plan, roadmap))
        first = find_first_conflict(plan, roadmap)
        if conflicts:
            assert first == conflicts[0]
        else:
            assert first is None
        want = scan_reference(roadmap.coords,
                              {p.agent_id: p.states for p in paths}, width)
        assert [(c.timestep, c.kind.value, c.agents, c.locations)
                for c in conflicts] == want, \
            f"r={resolution} w={width} trial {trial}"
        found += len(want)
    assert found >= 10, f"r={resolution} w={width}"


def boxes_apart(a, b, roadmap):
    ai0, ai1, aj0, aj1 = a.occupancy(roadmap).box
    bi0, bi1, bj0, bj1 = b.occupancy(roadmap).box
    gap = max(ai0 - bi1, bi0 - ai1, aj0 - bj1, bj0 - aj1)
    return 2 * gap > roadmap.overlap_reach


def test_pair_pretest_is_clean_exactly_when_the_reference_is():
    # Paths of every length from 1 state (resting on its goal from t = 0)
    # to 8 * r steps, so most pairs differ in length, each asked in both
    # orders: boxes apart, near misses and hits all occur.
    apart = near_misses = hits = single = 0
    for resolution in (1, 2, 4):
        for width in (0.4, 0.5, 0.8):
            rng = random.Random(f"box:{resolution}:{width}")
            roadmap = roadmap_from(["......"] * 6, resolution, width)
            for _ in range(200):
                a, b = (AgentPath(agent, random_walk(
                    roadmap, rng, rng.randrange(roadmap.vertex_count),
                    rng.randint(0, 8 * resolution))) for agent in (0, 1))
                reported = scan_reference(
                    roadmap.coords, {0: a.states, 1: b.states}, width)
                ra, rb = a.occupancy(roadmap), b.occupancy(roadmap)
                assert ra.meets(rb) == rb.meets(ra) == bool(reported), \
                    (resolution, width, a, b)
                if boxes_apart(a, b, roadmap):
                    assert not reported
                    apart += 1
                elif reported:
                    hits += 1
                else:
                    near_misses += 1
                single += min(len(a.states), len(b.states)) == 1
    assert apart > 500 and near_misses > 100 and hits > 200 and single > 50


def test_box_test_keeps_a_pass_over_a_resting_goal():
    roadmap = roadmap_from(["...."] * 3)
    goal = roadmap.cell_vertex(3, 1)
    rests = AgentPath(0, [goal])
    passes = AgentPath(1, vertex_path(roadmap, [(3, 0), (3, 1), (3, 2)]))
    assert not boxes_apart(rests, passes, roadmap)
    assert rests.occupancy(roadmap).meets(passes.occupancy(roadmap))
    assert [c.timestep for c in iter_conflicts(TeamPlan([rests, passes]),
                                               roadmap)] == [1]
    far = AgentPath(1, vertex_path(roadmap, [(0, 0), (1, 0), (1, 1), (1, 2)]))
    assert boxes_apart(rests, far, roadmap)
    assert not rests.occupancy(roadmap).meets(far.occupancy(roadmap))


def test_scan_and_reservation_table_agree_on_half_time_bodies():
    # Half-time h = 2t is the body resting on state t, h = 2t + 1 the body
    # halfway to state t + 1. A pair conflicts exactly when one path's body,
    # padded with its rest, hits the other path's reservation table.
    hits = misses = 0
    for resolution in (1, 2, 4):
        for width in (0.4, 0.5, 0.8):
            rng = random.Random(f"halves:{resolution}:{width}")
            roadmap = roadmap_from(["....."] * 5, resolution, width)
            keys = roadmap.keys
            for _ in range(200):
                p, o = (AgentPath(agent, random_walk(
                    roadmap, rng, rng.randrange(roadmap.vertex_count),
                    rng.randint(0, 6 * resolution))) for agent in (0, 1))
                s = p.states
                bodies = [keys[s[h // 2]] + keys[s[(h + 1) // 2]]
                          for h in range(2 * len(s) - 1)]
                assert p.occupancy(roadmap).bodies == bodies
                moving, resting, span = _reserve(roadmap, [o])
                horizon = 2 * max(len(s), len(o.states)) - 1
                padded = bodies + bodies[-1:] * (horizon - len(bodies))
                table_hit = any(
                    h * span + body in moving
                    or resting.get(body, horizon) <= h
                    for h, body in enumerate(padded))
                scan_hit = bool(list(iter_conflicts(TeamPlan([p, o]), roadmap)))
                assert scan_hit == table_hit, (resolution, width, p, o)
                hits += scan_hit
                misses += not scan_hit
    assert hits > 200 and misses > 1000
