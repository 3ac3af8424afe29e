"""Geometric conflict detection between timestep-indexed paths.

Agents are axis-aligned squares of side ``robot_width`` centered on roadmap
vertices. Two bodies conflict when their interiors intersect; closed-boundary
contact is allowed. Paths advance one roadmap edge (or a wait) per unit
timestep, and an agent that has finished rests on its goal forever. A
transition is additionally sampled at its midpoint, so two agents moving
along nearby edges, or a mover squeezing past a waiter, conflict when their
mid-transition bodies would intersect. The scan works on the roadmap's
integer body keys, never on float coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from operator import add, sub
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:
    from .roadmap import GridRoadmap, ProblemInstance

Point = tuple[float, float]


class ConflictKind(Enum):
    VERTEX = "vertex"
    EDGE = "edge"


class PlanValidationError(ValueError):
    """A plan is structurally unusable: bad endpoints or non-adjacent steps."""


@dataclass(frozen=True)
class Conflict:
    kind: ConflictKind
    agents: tuple[int, int]
    # Per agent: the vertex it occupied, or the directed edge it traversed
    # during the conflicting transition.
    locations: tuple[int | tuple[int, int], int | tuple[int, int]]
    timestep: int

    def sort_key(self) -> tuple[int, bool, tuple[int, int]]:
        """Canonical order: timestep, vertex before edge, then agent pair."""
        return (self.timestep, self.kind is ConflictKind.EDGE, self.agents)

    def to_json(self) -> dict:
        def enc(loc):
            return list(loc) if isinstance(loc, tuple) else loc
        return {
            "kind": self.kind.value,
            "agents": list(self.agents),
            "locations": [enc(self.locations[0]), enc(self.locations[1])],
            "timestep": self.timestep,
        }


@dataclass
class AgentPath:
    """One agent's trajectory: vertex ids at timesteps 0, 1, 2, ..."""

    agent_id: int
    states: list[int]

    def __post_init__(self):
        if not self.states:
            raise ValueError("a path needs at least one state")

    @property
    def cost(self) -> int:
        # Arrival timestep: trailing rest at the final vertex is free.
        last = self.states[-1]
        t = len(self.states) - 1
        while t > 0 and self.states[t - 1] == last:
            t -= 1
        return t

    def __len__(self) -> int:
        return len(self.states)


@dataclass
class TeamPlan:
    paths: list[AgentPath]

    @property
    def cost(self) -> int:
        return sum(p.cost for p in self.paths)

    @property
    def makespan(self) -> int:
        return max((p.cost for p in self.paths), default=0)


def bodies_overlap(p: Point, q: Point, robot_width: float) -> bool:
    """True when two squares of side robot_width centered at p and q share interior."""
    return abs(p[0] - q[0]) < robot_width and abs(p[1] - q[1]) < robot_width


def iter_conflicts(plan: TeamPlan, roadmap: "GridRoadmap") -> Iterator[Conflict]:
    """Yield conflicts in canonical order (``Conflict.sort_key``).

    Bodies are compared by their integer half-lattice keys (see GridRoadmap),
    so the test is exact at every resolution.
    """
    paths = sorted(plan.paths, key=lambda p: p.agent_id)
    n = len(paths)
    if n < 2:
        return
    keys = roadmap.keys
    overlap = roadmap.overlap_offsets
    length = max(len(p.states) for p in paths)
    # Each path padded to the horizon, and its vertex keys. For one pair the
    # key differences d give both tests: resting bodies differ by 2*d[t] and
    # mid-transition bodies by d[t] + d[t+1].
    spots = [list(p.states) + [p.states[-1]] * (length - len(p.states))
             for p in paths]
    spot_keys = [[keys[v] for v in spot] for spot in spots]

    # A pair is tested whole in C (isdisjoint over a map); only pairs that
    # hit are walked timestep by timestep.
    found = []
    for a in range(n - 1):
        keys_a, spot_a = spot_keys[a], spots[a]
        for b in range(a + 1, n):
            d = list(map(sub, keys_a, spot_keys[b]))
            rest_hit = not overlap.isdisjoint(map(add, d, d))
            move_hit = not overlap.isdisjoint(map(add, d, d[1:]))
            if not (rest_hit or move_hit):
                continue
            agents = (paths[a].agent_id, paths[b].agent_id)
            spot_b = spots[b]
            if rest_hit:
                for t, diff in enumerate(map(add, d, d)):
                    if diff in overlap:
                        found.append(Conflict(
                            ConflictKind.VERTEX, agents,
                            (spot_a[t], spot_b[t]), t))
            if move_hit:
                for t, diff in enumerate(map(add, d, d[1:])):
                    if diff not in overlap:
                        continue
                    here_a, there_a = spot_a[t], spot_a[t + 1]
                    here_b, there_b = spot_b[t], spot_b[t + 1]
                    if here_a == there_a and here_b == there_b:
                        continue  # two waiters: already covered by the vertex check
                    found.append(Conflict(
                        ConflictKind.EDGE, agents,
                        (here_a if here_a == there_a else (here_a, there_a),
                         here_b if here_b == there_b else (here_b, there_b)),
                        t))
    found.sort(key=Conflict.sort_key)
    yield from found


def find_first_conflict(plan: TeamPlan, roadmap: "GridRoadmap") -> Conflict | None:
    return next(iter_conflicts(plan, roadmap), None)


def check_path_shape(path: AgentPath, roadmap: "GridRoadmap") -> None:
    """Raise PlanValidationError unless every step waits or follows an edge."""
    nv = roadmap.vertex_count
    for s in path.states:
        if not 0 <= s < nv:
            raise PlanValidationError(
                f"agent {path.agent_id}: vertex {s} outside roadmap")
    for t in range(len(path.states) - 1):
        u, v = path.states[t], path.states[t + 1]
        if u != v and not roadmap.adjacent(u, v):
            raise PlanValidationError(
                f"agent {path.agent_id}: step {u}->{v} at t={t} is not an edge")


def validate_plan(plan: TeamPlan, roadmap: "GridRoadmap",
                  instance: "ProblemInstance") -> list[Conflict]:
    """Audit a plan against an instance. Returns every conflict, in order.

    An empty list means the plan is conflict-free. Structural problems
    (endpoint mismatch, non-adjacent steps, missing or extra agents) raise
    PlanValidationError instead of being reported as conflicts.
    """
    tasks = {task.agent_id: task for task in instance.tasks}
    seen = set()
    for path in plan.paths:
        if path.agent_id not in tasks:
            raise PlanValidationError(f"agent {path.agent_id} not in instance")
        if path.agent_id in seen:
            raise PlanValidationError(f"agent {path.agent_id} has two paths")
        seen.add(path.agent_id)
        task = tasks[path.agent_id]
        if path.states[0] != task.start:
            raise PlanValidationError(
                f"agent {path.agent_id} starts at {path.states[0]}, task says {task.start}")
        if path.states[-1] != task.goal:
            raise PlanValidationError(
                f"agent {path.agent_id} ends at {path.states[-1]}, task says {task.goal}")
        check_path_shape(path, roadmap)
    if seen != set(tasks):
        missing = sorted(set(tasks) - seen)
        raise PlanValidationError(f"missing paths for agents {missing}")
    return list(iter_conflicts(plan, roadmap))
