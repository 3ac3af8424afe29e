"""Space-time shortest paths for one agent.

States are (vertex, timestep) pairs; every move or wait costs one timestep
and path cost is the arrival timestep at the goal. The A* search holds state
(v, t) as the integer v*T + t, with T past the horizon, and each heap entry
as one integer that orders as (f, h, v, t). It pushes each state at most
once, so it keeps no closed set. It honors motion constraints (keep-out
vertices or edges at specific timesteps, as integer ban sets) and dynamic
obstacles (already-planned paths treated as moving bodies that rest on their
goals forever, entered once per call into a space-time reservation table,
the union of each path's integer codes). Arrival is only accepted once the
goal stays clear for the rest of time, since a finished agent parks there,
so no arrival comes before ``goal_clear`` and the heuristic is
``max(dist[v], goal_clear - t)``. ``dist`` is one goal record per agent
(``GoalDistances``): breadth-first levels from the goal as lattice bitsets
(``GridRoadmap.search_index``), grown only as far as a reader needs them,
with each distance resolved on its first read. With no constraint for the
agent and no obstacles the path is read off those levels, grown until one
holds the start; the search resolves a successor's distance from its
predecessor's by one bit test, and the default horizon reads the levels
grown so far as a lower bound. Arrival times are those of A* on the
distance alone; paths may differ only among equal-cost ties.
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


class GoalDistances:
    """Exact unit-cost distances to one goal, resolved as they are read.

    ``levels[k]`` is the lattice bitset (``GridRoadmap.search_index``) of
    the vertices k steps from the goal, a breadth-first level. The levels
    grow only as far as a reader needs them, and ``record[v]`` resolves v's
    distance on its first read: an int, or ``INF`` if v is cut off from the
    goal. Edges join only lattice neighbours, so the roadmap is bipartite
    and the distances of two neighbours differ by exactly one: a neighbour
    of a vertex k + 1 steps away is k steps away exactly when it is in
    ``levels[k]``, which is the one test the descent and the search make.
    ``known`` holds the distances resolved so far (None where unread); the
    search reads and fills it directly. It is built on the first read, so
    a root walk, which reads only its start's distance, never builds it.
    """

    def __init__(self, roadmap: GridRoadmap, goal: int):
        index = roadmap.search_index
        self._index = index
        self._goal = goal
        self.levels = [1 << index.bits[goal]]
        self._unseen = index.vertices ^ self.levels[0]
        self.exhausted = False
        self.known: list[float | None] | None = None

    def __getitem__(self, v: int) -> float:
        if v < 0:
            raise IndexError(v)
        known = self.known
        if known is None:
            known = self.known = [None] * len(self._index.bits)
            known[self._goal] = 0
        d = known[v]  # IndexError past the vertex count
        if d is None:
            d = known[v] = self._distance(v)
        return d

    def _distance(self, v: int) -> float:
        """v's distance, read off the levels (grown as needed); unrecorded."""
        bit = self._index.bits[v]
        if self._unseen >> bit & 1:
            return len(self.levels) - 1 if self.grow(1 << bit) else INF
        return next(k for k, level in enumerate(self.levels)
                    if level >> bit & 1)

    def grow(self, target: int = -1) -> bool:
        """Add levels up to the first that meets the bitset ``target``: by
        default the next level, with 0 all of them. False, with
        ``exhausted`` set, if the levels run out first."""
        if self.exhausted:
            return False
        index = self._index
        right, down, cols = index.right, index.down, index.cols
        levels, unseen = self.levels, self._unseen
        level = levels[-1]
        while True:
            level = ((level & right) << 1 | (level >> 1) & right
                     | (level & down) << cols | (level >> cols) & down) \
                & unseen
            if not level:
                self.exhausted = True
                self._unseen = unseen
                return False
            unseen ^= level
            levels.append(level)
            if level & target:
                self._unseen = unseen
                return True

    def longest(self) -> int:
        """The largest finite distance (the goal's eccentricity); grows the
        levels to exhaustion."""
        self.grow(0)
        return len(self.levels) - 1


def distances_to_goal(roadmap: GridRoadmap, goal: int) -> GoalDistances:
    """One agent's goal record: exact unit-cost distances to ``goal``,
    resolved on first read (``GoalDistances``)."""
    return GoalDistances(roadmap, goal)


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
    moving = records[0].moving if len(records) == 1 \
        else set().union(*(record.moving for record in records))
    resting: dict[int, int] = {}
    for record in records:
        arrival = len(record.bodies) - 1
        for key in map(record.bodies[-1].__add__, offsets):
            resting[key] = min(resting.get(key, arrival), arrival)
    return moving, resting, roadmap.span


def _descent(roadmap: GridRoadmap, task: AgentTask, dist: GoalDistances,
             limits: SearchLimits) -> AgentPath | None:
    """The path the search returns when nothing constrains the agent: step to
    the lowest-id neighbour one closer to the goal, read off the goal
    record's levels. It keeps the search's limits: dist[start] + 1
    expansions, one deadline check and the horizon."""
    d = dist._distance(task.start)
    if d == INF:
        return None
    if limits.deadline is not None and time.perf_counter() > limits.deadline:
        raise SearchBudgetExceeded("time")
    if limits.horizon is not None and limits.horizon < d:
        return None
    if limits.node_budget < d + 1:
        raise SearchBudgetExceeded("nodes")
    adjacency, bits, levels = roadmap.adjacency, roadmap.search_index.bits, \
        dist.levels
    v = task.start
    states = [v]
    for k in range(d - 1, -1, -1):
        level = levels[k]
        for v in adjacency[v]:  # sorted: the first one closer is the lowest
            if level >> bits[v] & 1:
                break
        states.append(v)
    return AgentPath(task.agent_id, states)


def _horizon(dist: GoalDistances, base: int, cap: int, need: int
             ) -> tuple[int, bool]:
    """The default horizon ``min(base + longest goal distance, cap)`` and
    whether it is exact. From the levels grown so far it is a lower bound;
    the levels grow to exhaustion only if that bound is below ``need``."""
    bound = min(base + len(dist.levels) - 1, cap)
    if bound == cap or dist.exhausted:
        return bound, True
    if bound >= need:
        return bound, False
    return min(base + dist.longest(), cap), True


def shortest_path(roadmap: GridRoadmap, task: AgentTask,
                  constraints: "list[MotionConstraint] | tuple" = (),
                  obstacles: "list[AgentPath] | tuple" = (),
                  limits: SearchLimits | None = None,
                  dist: GoalDistances | None = None) -> AgentPath | None:
    """Minimal-arrival-time path for one agent, or None if none exists
    within the horizon.

    Constraints are filtered to ``task.agent_id``; edge constraints block both
    directions of the stored edge. Ties are broken toward lower remaining
    distance, then lower vertex id, then earlier timestep, which makes the
    result deterministic, since each state is pushed once. ``dist`` is the
    agent's goal record (``distances_to_goal``); a call builds one unless
    given it, and grows its levels only as far as the call reads them.

    The horizon is ``limits.horizon`` when set. By default it is the last
    constraint, obstacle move or goal crossing plus the longest goal
    distance plus ``HORIZON_SLACK``, capped at twice the vertex count V. The
    search tests it against the levels grown so far, a lower bound, and
    grows them all only when that bound would prune. The cap can cut off a
    path that exists: a goal ban at t >= 2V gives None. It stays because it
    bounds how late any path may arrive, and that is what ends ``cbs`` on an
    infeasible instance, whose constraint tree would otherwise grow without
    end as each new constraint lets the agent wait longer.
    Raises SearchBudgetExceeded when the node budget or deadline runs out
    before the search settles.
    """
    limits = limits or SearchLimits()
    if dist is None:
        dist = distances_to_goal(roadmap, task.goal)
    own = [c for c in constraints if c.agent == task.agent_id]
    if not (own or obstacles):
        return _descent(roadmap, task, dist, limits)
    start, goal = task.start, task.goal
    h0 = dist[start]
    if h0 == INF:
        return None

    latest_constraint = max(c.timestep for c in own) if own else 0
    # The goal must stay clear forever once the agent parks on it.
    goal_clear = max((c.timestep + 1 for c in own if c.vertex == goal),
                     default=0)
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

    # State (v, t) is the integer v*T + t, with T past every horizon the
    # search can settle on, and the move u -> v departing at t is the code of
    # state (u, t) times n plus v. Bans at t >= T bind no state the search
    # reaches, and would alias another state's code, so they are left out.
    n = roadmap.vertex_count
    if limits.horizon is not None:
        horizon, exact = limits.horizon, True
        T = max(horizon, 0) + 1
    else:
        base = max(latest_constraint, latest_obstacle, goal_clear) \
            + HORIZON_SLACK
        cap = 2 * n
        horizon, exact = _horizon(dist, base, cap, 0)
        T = min(base + n - 1, cap) + 1
    banned_vertex: set[int] = set()
    banned_edge: set[int] = set()
    for c in own:
        if c.timestep >= T:
            continue
        if c.vertex is not None:
            if 0 <= c.vertex < n:  # an id off the roadmap bans nothing
                banned_vertex.add(c.vertex * T + c.timestep)
        else:
            u, v = c.edge
            if 0 <= u < n and 0 <= v < n:
                banned_edge.add((u * T + c.timestep) * n + v)
                banned_edge.add((v * T + c.timestep) * n + u)
    bans = bool(banned_vertex or banned_edge)
    if start * T in banned_vertex:
        return None

    # A heap entry is the one int ((f * n + h) * n * T + state), which
    # orders as (f, h, v, t): f = max(t + dist[v], goal_clear) and h =
    # dist[v] < n. Every state enters the heap at most once: a successor
    # already in ``parents`` is skipped before any other test, so no pop is
    # stale. A successor's unread distance is one less than its
    # predecessor's if it lies in that level, else one more, and the level
    # for one more is grown then: every resolved vertex's level exists, so
    # an expanded vertex's level of one less does too.
    states_span = n * T
    open_heap = [(max(h0, goal_clear) * n + h0) * states_span + start * T]
    parents: dict[int, int] = {}
    successors = roadmap.search_index.successors
    # ``dist[start]`` above built ``known``.
    bits, levels, known = roadmap.search_index.bits, dist.levels, dist.known
    node_budget, deadline = limits.node_budget, limits.deadline
    push, pop = heapq.heappush, heapq.heappop
    expansions = 0
    beyond = 2 * T + 1  # later than every half-time the search reads

    while open_heap:
        state = pop(open_heap) % states_span
        expansions += 1
        if expansions > node_budget:
            raise SearchBudgetExceeded("nodes")
        if deadline is not None and time.perf_counter() > deadline:
            raise SearchBudgetExceeded("time")

        v, t = divmod(state, T)
        if v == goal and t >= goal_clear:
            states = [v]
            while state in parents:
                state = parents[state]
                states.append(state // T)
            states.reverse()
            return AgentPath(task.agent_id, states)

        if t >= horizon:
            if not exact:
                horizon, exact = _horizon(dist, base, cap, t + 1)
            if t >= horizon:
                continue
        t1 = t + 1
        if bans:
            moves = state * n
        if obstacles:
            # Mid-move body at half-time 2t+1, arrival body at 2t+2.
            kv = keys[v]
            half_mid, half_arr = 2 * t + 1, 2 * t + 2
            mid_codes, arr_codes = half_mid * span, half_arr * span
        hv = known[v]
        closer = levels[hv - 1] if hv else 0
        for u in successors[v]:
            key = u * T + t1
            if key in parents:
                continue
            if bans and (key in banned_vertex
                         or (u != v and moves + u in banned_edge)):
                continue
            if obstacles:
                body = kv + keys[u]
                if mid_codes + body in moving \
                        or resting.get(body, beyond) <= half_mid:
                    continue
                body = 2 * keys[u]
                if arr_codes + body in moving \
                        or resting.get(body, beyond) <= half_arr:
                    continue
            hu = known[u]
            if hu is None:
                if closer >> bits[u] & 1:
                    hu = hv - 1
                else:
                    hu = hv + 1
                    if len(levels) == hu:
                        dist.grow()
                known[u] = hu
            f = t1 + hu
            if f > horizon:
                if not exact:
                    horizon, exact = _horizon(dist, base, cap, f)
                if f > horizon:
                    continue  # cannot arrive within the horizon from here
            parents[key] = state
            if f < goal_clear:
                f = goal_clear
            push(open_heap, (f * n + hu) * states_span + key)
    return None
