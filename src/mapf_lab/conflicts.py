"""Geometric conflict detection between timestep-indexed paths.

Agents are axis-aligned squares of side ``robot_width`` centered on roadmap
vertices. Two bodies conflict when their interiors intersect; closed-boundary
contact is allowed. Paths advance one roadmap edge (or a wait) per unit
timestep, and an agent that has finished rests on its goal forever. A path
is read at half-times: h = 2t is the body resting on state t, and h = 2t + 1
the body halfway to state t + 1, so a mover squeezing past a waiter conflicts
when their bodies would intersect mid-transition. The body at h has the
integer key ``keys[states[h // 2]] + keys[states[(h + 1) // 2]]`` (see
GridRoadmap), and the scan never reads float coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import compress, islice, repeat
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
    """One agent's trajectory: vertex ids at timesteps 0, 1, 2, ...

    A path is not mutated after it is built, so ``occupancy`` is kept."""

    agent_id: int
    states: list[int]
    _records: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    def __post_init__(self):
        if not self.states:
            raise ValueError("a path needs at least one state")

    def occupancy(self, roadmap: "GridRoadmap") -> "Occupancy":
        """This path's occupancy record on ``roadmap``."""
        record = self._records.get(roadmap)
        if record is None:
            record = self._records[roadmap] = Occupancy(self.states, roadmap)
        return record

    @property
    def cost(self) -> int:
        # Arrival timestep: trailing rest at the final vertex is free.
        last = self.states[-1]
        t = len(self.states) - 1
        while t > 0 and self.states[t - 1] == last:
            t -= 1
        return t


class Occupancy:
    """One path on one roadmap: ``bodies``, the body key at each half-time
    of the path (its last entry is the rest on the goal, which begins at
    half-time ``len(bodies) - 1``), the lattice box (lowest and highest i,
    then j), and the ``moving`` codes that ``lowlevel._reserve`` unions."""

    def __init__(self, states: list[int], roadmap: "GridRoadmap"):
        self._roadmap = roadmap
        keys = list(map(roadmap.keys.__getitem__, states))
        bodies = self.bodies = [0] * (2 * len(keys) - 1)
        bodies[::2] = map(add, keys, keys)
        bodies[1::2] = map(add, keys, keys[1:])
        cols, rows = zip(*map(roadmap.lattice.__getitem__, set(states)))
        self.box = (min(cols), max(cols), min(rows), max(rows))

    @cached_property
    def moving(self) -> set[int]:
        """Codes ``h * span + key`` of what the body overlaps at each
        half-time h before the rest on the goal."""
        span, offsets = self._roadmap.span, self._roadmap.overlap_offsets
        moves = self.bodies[:-1]
        base = list(map(add, range(0, span * len(moves), span), moves))
        codes: set[int] = set()
        for offset in offsets:
            codes.update(map(offset.__add__, base))
        return codes

    def meets(self, other: "Occupancy") -> bool:
        """True exactly when the two paths conflict somewhere (the test
        ``iter_conflicts`` makes, without walking the hits).

        Pairs whose lattice boxes lie farther apart than two bodies reach
        are apart. Otherwise the bodies are compared at every half-time of
        the shorter path, then the longer path's tail against the shorter
        one's rest, each in one C-level ``isdisjoint``.
        """
        roadmap = self._roadmap
        ai0, ai1, aj0, aj1 = self.box
        bi0, bi1, bj0, bj1 = other.box
        if 2 * max(ai0 - bi1, bi0 - ai1, aj0 - bj1, bj0 - aj1) \
                > roadmap.overlap_reach:
            return False
        overlap = roadmap.overlap_offsets
        longer, shorter = self.bodies, other.bodies
        if len(longer) < len(shorter):
            longer, shorter = shorter, longer
        return not (overlap.isdisjoint(map(sub, longer, shorter))
                    and overlap.isdisjoint(map(
                        sub, islice(longer, len(shorter), None),
                        repeat(shorter[-1]))))


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
    """Yield conflicts in canonical order (``Conflict.sort_key``): a body
    overlap at even half-time h is a vertex conflict at t = h/2, and one at
    odd h an edge conflict at t = (h-1)/2."""
    paths = sorted(plan.paths, key=lambda p: p.agent_id)
    n = len(paths)
    if n < 2:
        return
    overlap = roadmap.overlap_offsets
    bodies = [p.occupancy(roadmap).bodies for p in paths]
    size = max(map(len, bodies))
    # Each path's half-time bodies, padded to the horizon with its rest,
    # once per call. A pair's hit half-times are taken in C, in half-time
    # order, which is the pair's sort order; states are read at the
    # clamped timestep, since a path rests on its last state.
    bodies = [b if len(b) == size else b + b[-1:] * (size - len(b))
              for b in bodies]
    found = []
    for a in range(n - 1):
        bodies_a, states_a = bodies[a], paths[a].states
        last_a = len(states_a) - 1
        for b in range(a + 1, n):
            states_b = paths[b].states
            last_b = len(states_b) - 1
            agents = (paths[a].agent_id, paths[b].agent_id)
            for h in compress(range(size), map(overlap.__contains__,
                                               map(sub, bodies_a, bodies[b]))):
                t, odd = divmod(h, 2)
                moves = [(states[min(t, last)], states[min(t + odd, last)])
                         for states, last in ((states_a, last_a),
                                              (states_b, last_b))]
                if odd and all(u == v for u, v in moves):
                    continue  # two waiters: the vertex conflict at h - 1
                found.append(Conflict(
                    ConflictKind.EDGE if odd else ConflictKind.VERTEX, agents,
                    tuple(u if u == v else (u, v) for u, v in moves), t))
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
