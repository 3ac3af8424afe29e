"""Space-time shortest paths for one agent.

States are (vertex, timestep) pairs; every move or wait costs one timestep
and path cost is the arrival timestep at the goal. The search honors motion
constraints (keep-out vertices or edges at specific timesteps) and dynamic
obstacles (already-planned paths treated as moving bodies that rest on their
goals forever, entered once per call into a space-time reservation table of
the roadmap's integer body keys). Arrival is only accepted once the goal
stays clear for the rest of time, since a finished agent parks there.
"""

from __future__ import annotations

import heapq
import time
from collections import deque
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
    dist = [INF] * roadmap.vertex_count
    dist[goal] = 0.0
    queue = deque([goal])
    while queue:
        v = queue.popleft()
        d = dist[v] + 1.0
        for u in roadmap.adjacency[v]:
            if dist[u] == INF:
                dist[u] = d
                queue.append(u)
    return dist


def _reserve(roadmap: GridRoadmap, obstacles
             ) -> tuple[set[tuple[int, int]], dict[int, int]]:
    """Space-time reservation table of the obstacle bodies.

    Half-time h is timestep h/2 for even h and the middle of the move
    (h-1)/2 -> (h+1)/2 for odd h. Returns the (body key, half-time) pairs some
    moving obstacle body overlaps, and for every body key that a resting
    obstacle overlaps, the half-time its rest begins.
    """
    keys = roadmap.keys
    offsets = roadmap.overlap_offsets
    moving: set[tuple[int, int]] = set()
    resting: dict[int, int] = {}
    for path in obstacles:
        states = path.states
        arrival = 2 * (len(states) - 1)
        for h in range(arrival):
            center = keys[states[h // 2]] + keys[states[(h + 1) // 2]]
            moving.update((center + d, h) for d in offsets)
        center = 2 * keys[states[-1]]
        for d in offsets:
            key = center + d
            resting[key] = min(resting.get(key, arrival), arrival)
    return moving, resting


def shortest_path(roadmap: GridRoadmap, task: AgentTask,
                  constraints: "list[MotionConstraint] | tuple" = (),
                  obstacles: "list[AgentPath] | tuple" = (),
                  limits: SearchLimits | None = None,
                  dist: list[float] | None = None) -> AgentPath | None:
    """Minimal-arrival-time path for one agent, or None if none exists.

    Constraints are filtered to ``task.agent_id``; edge constraints block both
    directions of the stored edge. Ties are broken toward lower remaining
    distance, then lower vertex id, then moves over waits, which makes the
    result deterministic. Raises SearchBudgetExceeded when the node budget or
    deadline runs out before the search settles.
    """
    limits = limits or SearchLimits()
    if dist is None:
        dist = distances_to_goal(roadmap, task.goal)
    start, goal = task.start, task.goal
    if dist[start] == INF:
        return None

    banned_vertex: set[tuple[int, int]] = set()
    banned_edge: set[tuple[int, int, int]] = set()
    latest_constraint = 0
    latest_goal_ban = -1
    for c in constraints:
        if c.agent != task.agent_id:
            continue
        latest_constraint = max(latest_constraint, c.timestep)
        if c.vertex is not None:
            banned_vertex.add((c.vertex, c.timestep))
            if c.vertex == goal:
                latest_goal_ban = max(latest_goal_ban, c.timestep)
        else:
            u, v = c.edge
            banned_edge.add((u, v, c.timestep))
            banned_edge.add((v, u, c.timestep))

    # The goal must stay clear forever once the agent parks on it.
    goal_clear = latest_goal_ban + 1
    latest_obstacle = 0
    keys = roadmap.keys
    moving, resting = _reserve(roadmap, obstacles)

    def blocked(body: int, half: int) -> bool:
        return (body, half) in moving or resting.get(body, INF) <= half

    if obstacles:
        goal_body = 2 * keys[goal]
        if goal_body in resting:
            return None  # another body retires on top of the goal
        if blocked(2 * keys[start], 0):
            return None  # boxed in before the first move
        latest_obstacle = max(len(p.states) for p in obstacles) - 1
        for h in range(2 * latest_obstacle - 1, -1, -1):
            if (goal_body, h) in moving:
                goal_clear = max(goal_clear, h // 2 + 1)
                break

    if (start, 0) in banned_vertex:
        return None

    finite = [d for d in dist if d < INF]
    longest = int(max(finite)) if finite else 0
    soft = max(latest_constraint, latest_obstacle, goal_clear) + longest + HORIZON_SLACK
    horizon = limits.horizon if limits.horizon is not None \
        else min(soft, 2 * roadmap.vertex_count)

    h0 = dist[start]
    open_heap: list[tuple[float, float, int, int, int]] = [(h0, h0, start, 0, 0)]
    parents: dict[tuple[int, int], tuple[int, int]] = {}
    closed: set[tuple[int, int]] = set()
    expansions = 0

    while open_heap:
        f, h, v, wait_flag, t = heapq.heappop(open_heap)
        if (v, t) in closed:
            continue
        closed.add((v, t))
        expansions += 1
        if expansions > limits.node_budget:
            raise SearchBudgetExceeded("nodes")
        if limits.deadline is not None \
                and time.perf_counter() > limits.deadline:
            raise SearchBudgetExceeded("time")

        if v == goal and t >= goal_clear:
            states = [v]
            key = (v, t)
            while key in parents:
                key = parents[key]
                states.append(key[0])
            states.reverse()
            return AgentPath(task.agent_id, states)

        if t >= horizon:
            continue
        for u in (*roadmap.adjacency[v], v):
            key = (u, t + 1)
            if key in closed or (u, t + 1) in banned_vertex:
                continue
            if u != v and (v, u, t) in banned_edge:
                continue
            # Mid-move body at half-time 2t+1, arrival body at 2t+2.
            if obstacles and (blocked(keys[v] + keys[u], 2 * t + 1)
                              or blocked(2 * keys[u], 2 * t + 2)):
                continue
            hu = dist[u]
            if hu == INF or t + 1 + hu > horizon:
                continue  # cannot arrive within the horizon from here
            if key not in parents:
                parents[key] = (v, t)
                heapq.heappush(open_heap, (t + 1 + hu, hu, u, 1 if u == v else 0, t + 1))
    return None
