"""Space-time shortest paths for one agent.

States are (vertex, timestep) pairs, held as the integers t*V + v; every
move or wait costs one timestep and path cost is the arrival timestep at
the goal. The A* search pushes each state at most once, so it keeps no
closed set. It honors motion constraints (keep-out vertices or edges at
specific timesteps, as integer ban sets) and dynamic obstacles
(already-planned paths treated as moving bodies that rest on their goals
forever, entered once per call into a space-time reservation table, the
union of each path's integer codes). Arrival is only accepted once the goal
stays clear for the rest of time, since a finished agent parks there, so no
arrival comes before ``goal_clear`` and the heuristic is ``max(dist[v],
goal_clear - t)``. With no constraint for the agent and no obstacles the
path is read off the table, or else off a search from the goal. Arrival times
are those of A* on the distance alone; paths may differ only among equal-cost ties.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass

from .conflicts import AgentPath
from .roadmap import AgentTask, GridRoadmap

INF = float("inf")

# Padding added to the soft search horizon so an agent can sidestep after the
# last scheduled threat instead of meeting it head-on.
HORIZON_SLACK = 16


@dataclass(frozen=True)
class MotionConstraint:
    """Keep-out rule: the agent may not occupy ``vertex`` at ``timestep``, or
    may not traverse ``edge`` (in either direction) departing at ``timestep``."""

    agent: int
    timestep: int
    vertex: int | None = None
    edge: tuple[int, int] | None = None

    def __post_init__(self):
        if (self.vertex is None) == (self.edge is None):
            raise ValueError("constraint needs exactly one of vertex or edge")
        if self.timestep < 0:
            raise ValueError("constraint timestep must be non-negative")


class SearchBudgetExceeded(RuntimeError):
    """The search ran out of budget before settling the instance.

    ``reason`` is "nodes" (expansion budget) or "time" (deadline). Distinct
    from returning None, which proves no path exists within the horizon.
    """

    def __init__(self, reason: str):
        super().__init__(f"low-level search budget exceeded ({reason})")
        self.reason = reason


@dataclass(frozen=True)
class SearchLimits:
    horizon: int | None = None
    node_budget: int = 1_000_000
    deadline: float | None = None  # absolute time.perf_counter() stamp


def distances_to_goal(roadmap: GridRoadmap, goal: int) -> list[float]:
    """Exact unit-cost distances from every vertex to the goal (inf if cut off)."""
    adjacency = roadmap.adjacency
    dist = [INF] * roadmap.vertex_count
    dist[goal] = 0.0
    level = [goal]
    d = 0.0
    while level:
        d += 1.0
        following = []
        for v in level:
            for u in adjacency[v]:
                if dist[u] is INF:
                    dist[u] = d
                    following.append(u)
        level = following
    return dist


def _reserve(roadmap: GridRoadmap, obstacles
             ) -> tuple[set[int], dict[int, int], int]:
    """Space-time reservation table of the obstacle bodies.

    Reads each path's half-time bodies (``conflicts.Occupancy``): half-time
    h = 2t is the body resting on state t, and h = 2t + 1 the body halfway
    to state t + 1. Returns the codes ``h * span + body key`` of the bodies
    some moving obstacle overlaps at half-time h; for every body key that a
    resting obstacle overlaps, the half-time its rest begins; and ``span``,
    wider than the range of a body key plus an offset.
    """
    offsets = roadmap.overlap_offsets
    records = [path.occupancy(roadmap) for path in obstacles]
    moving = set().union(*(record.moving for record in records))
    resting: dict[int, int] = {}
    for record in records:
        arrival = len(record.bodies) - 1
        for key in map(record.bodies[-1].__add__, offsets):
            resting[key] = min(resting.get(key, arrival), arrival)
    return moving, resting, roadmap.span


def _goal_search(roadmap: GridRoadmap, start: int, goal: int) -> list[float]:
    """Distances to the goal, exact wherever the descent from start reads.

    Buckets by f = g + |i - i_start| + |j - j_start|, consistent since an
    edge changes one lattice index by one, so f grows by 0 or 2. Once the
    start's bucket is drained, every vertex with f <= dist[start] (every
    shortest path) is exact, and no other value reads one step closer."""
    lattice, adjacency = roadmap.lattice, roadmap.adjacency
    si, sj = lattice[start]
    dist = [INF] * roadmap.vertex_count
    done = bytearray(roadmap.vertex_count)
    dist[goal] = 0.0
    bucket, following = [goal], []
    while bucket:
        while bucket:
            v = bucket.pop()
            if done[v]:
                continue
            done[v] = 1
            d = dist[v] + 1.0
            i, j = lattice[v]
            h = abs(i - si) + abs(j - sj)
            for u in adjacency[v]:
                if d < dist[u]:
                    dist[u] = d
                    i, j = lattice[u]
                    (bucket if abs(i - si) + abs(j - sj) < h
                     else following).append(u)
        if done[start]:
            break
        bucket, following = following, []
    return dist


def _descent(roadmap: GridRoadmap, task: AgentTask, dist: list[float] | None,
             limits: SearchLimits) -> AgentPath | None:
    """The path the search returns when nothing constrains the agent: step to
    the lowest-id neighbour one closer to the goal (``dist`` or, without it,
    ``_goal_search``). It keeps the search's limits: dist[start] + 1
    expansions, one deadline check and the horizon."""
    if dist is None:
        dist = _goal_search(roadmap, task.start, task.goal)
    if dist[task.start] == INF:
        return None
    d = int(dist[task.start])
    if limits.deadline is not None and time.perf_counter() > limits.deadline:
        raise SearchBudgetExceeded("time")
    if limits.horizon is not None and limits.horizon < d:
        return None
    if limits.node_budget < d + 1:
        raise SearchBudgetExceeded("nodes")
    adjacency, v = roadmap.adjacency, task.start
    states = [v]
    for k in range(d - 1, -1, -1):
        for v in adjacency[v]:  # sorted: the first one closer is the lowest
            if dist[v] == k:
                break
        states.append(v)
    return AgentPath(task.agent_id, states)


def shortest_path(roadmap: GridRoadmap, task: AgentTask,
                  constraints: "list[MotionConstraint] | tuple" = (),
                  obstacles: "list[AgentPath] | tuple" = (),
                  limits: SearchLimits | None = None,
                  dist: list[float] | None = None) -> AgentPath | None:
    """Minimal-arrival-time path for one agent, or None if none exists.

    Constraints are filtered to ``task.agent_id``; edge constraints block both
    directions of the stored edge. Ties are broken toward lower remaining
    distance, then lower vertex id, then earlier timestep, which makes the
    result deterministic, since each state is pushed once. A search builds
    the goal's distance table ``dist`` unless given it.
    Raises SearchBudgetExceeded when the node budget or deadline runs out
    before the search settles.
    """
    limits = limits or SearchLimits()
    own = [c for c in constraints if c.agent == task.agent_id]
    if not (own or obstacles):
        return _descent(roadmap, task, dist, limits)
    if dist is None:
        dist = distances_to_goal(roadmap, task.goal)
    start, goal = task.start, task.goal
    if dist[start] == INF:
        return None

    # State (v, t) is the integer t*n + v. The move u -> v departing at t is
    # the code of state (u, t) times n plus v.
    n = roadmap.vertex_count
    banned_vertex: set[int] = set()
    banned_edge: set[int] = set()
    latest_constraint = 0
    latest_goal_ban = -1
    for c in own:
        latest_constraint = max(latest_constraint, c.timestep)
        tn = c.timestep * n
        if c.vertex is not None:
            if c.vertex == goal:
                latest_goal_ban = max(latest_goal_ban, c.timestep)
            if 0 <= c.vertex < n:  # an id off the roadmap bans nothing
                banned_vertex.add(tn + c.vertex)
        else:
            u, v = c.edge
            if 0 <= u < n and 0 <= v < n:
                banned_edge.add((tn + u) * n + v)
                banned_edge.add((tn + v) * n + u)
    bans = bool(banned_vertex or banned_edge)

    # The goal must stay clear forever once the agent parks on it.
    goal_clear = latest_goal_ban + 1
    latest_obstacle = 0
    keys = roadmap.keys
    if obstacles:
        moving, resting, span = _reserve(roadmap, obstacles)
        goal_body = 2 * keys[goal]
        if goal_body in resting:
            return None  # another body retires on top of the goal
        start_body = 2 * keys[start]
        if start_body in moving or resting.get(start_body, INF) <= 0:
            return None  # boxed in before the first move
        latest_obstacle = max(len(p.states) for p in obstacles) - 1
        for h in range(2 * latest_obstacle - 1, -1, -1):
            if h * span + goal_body in moving:
                goal_clear = max(goal_clear, h // 2 + 1)
                break

    if start in banned_vertex:
        return None

    longest = max(dist)
    if longest == INF:  # rare: filter only when some vertex is cut off
        longest = max(d for d in dist if d < INF)
    soft = max(latest_constraint, latest_obstacle, goal_clear) \
        + int(longest) + HORIZON_SLACK
    horizon = limits.horizon if limits.horizon is not None \
        else min(soft, 2 * roadmap.vertex_count)

    # Every state enters the heap at most once: a successor already in
    # ``parents`` is skipped before any other test, so no pop is stale.
    h0 = dist[start]
    open_heap = [(max(h0, goal_clear), h0, start, 0)]
    parents: dict[int, int] = {}
    adjacency = roadmap.adjacency
    node_budget, deadline = limits.node_budget, limits.deadline
    push, pop = heapq.heappush, heapq.heappop
    expansions = 0

    while open_heap:
        _, _, v, t = pop(open_heap)
        expansions += 1
        if expansions > node_budget:
            raise SearchBudgetExceeded("nodes")
        if deadline is not None and time.perf_counter() > deadline:
            raise SearchBudgetExceeded("time")

        state = t * n + v
        if v == goal and t >= goal_clear:
            states = [v]
            while state in parents:
                state = parents[state]
                states.append(state % n)
            states.reverse()
            return AgentPath(task.agent_id, states)

        if t >= horizon:
            continue
        t1 = t + 1
        layer = t1 * n
        if obstacles:
            # Mid-move body at half-time 2t+1, arrival body at 2t+2.
            kv = keys[v]
            half_mid, half_arr = 2 * t + 1, 2 * t + 2
            mid_codes, arr_codes = half_mid * span, half_arr * span
        for u in (*adjacency[v], v):
            key = layer + u
            if key in parents:
                continue
            if bans and (key in banned_vertex
                         or (u != v and state * n + u in banned_edge)):
                continue
            if obstacles:
                body = kv + keys[u]
                if mid_codes + body in moving \
                        or (body in resting and resting[body] <= half_mid):
                    continue
                body = 2 * keys[u]
                if arr_codes + body in moving \
                        or (body in resting and resting[body] <= half_arr):
                    continue
            hu = dist[u]
            if t1 + hu > horizon:
                continue  # cannot arrive within the horizon from here
            parents[key] = state
            push(open_heap, (max(t1 + hu, goal_clear), hu, u, t1))
    return None
