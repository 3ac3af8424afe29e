"""Grid roadmaps with explicit robot geometry.

A roadmap at resolution r places candidate vertices on the lattice
(0.5 + i/r, 0.5 + j/r) for 0 <= i <= r*(width-1), 0 <= j <= r*(height-1),
in cell units; r = 1 recovers the classical cell-center grid graph. A vertex
survives when a square robot body centered there stays inside the map and
does not intersect the interior of any blocked cell (boundary contact is
fine). Edges join lattice-adjacent surviving vertices whose transition
midpoint also passes the same clearance test. All edges take one timestep
regardless of resolution, so a unit of time covers less distance on finer
roadmaps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .conflicts import bodies_overlap
from .mapio import GridMap

DEFAULT_ROBOT_WIDTH = 0.5


class GridRoadmap:
    """Immutable roadmap. Vertex ids are row-major over the lattice, gaps skipped."""

    def __init__(self, grid: GridMap, resolution: int, robot_width: float,
                 lattice: list[tuple[int, int]], ids: dict[tuple[int, int], int],
                 adjacency: list[list[int]]):
        self.grid = grid
        self.resolution = resolution
        self.robot_width = robot_width
        self.lattice = lattice          # vertex id -> lattice indices (i, j)
        self._ids = ids                 # lattice indices -> vertex id
        self.adjacency = adjacency
        step = 1.0 / resolution
        self.coords: list[tuple[float, float]] = [
            (0.5 + i * step, 0.5 + j * step) for (i, j) in lattice]
        # Integer occupancy model. Body centers lie on the half-lattice, so
        # 2 * keys[u] names a body resting on u and keys[u] + keys[v] the
        # body halfway through the move u -> v. The row stride leaves room
        # for every center and overlap offset, so two bodies overlap exactly
        # when the difference of their keys is in overlap_offsets.
        stride = 2 * (resolution * grid.width + 1)
        self.keys: list[int] = [i + j * stride for (i, j) in lattice]
        halves = 2 * resolution
        span = range(-halves, halves + 1)
        self.overlap_offsets: frozenset[int] = frozenset(
            dx + dy * stride for dx in span for dy in span
            if bodies_overlap((0.0, 0.0), (dx / halves, dy / halves),
                              robot_width))

    @property
    def vertex_count(self) -> int:
        return len(self.lattice)

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency) // 2

    def vertex_id(self, i: int, j: int) -> int | None:
        return self._ids.get((i, j))

    def cell_vertex(self, col: int, row: int) -> int | None:
        """Vertex at the center of a map cell, present at every resolution."""
        return self._ids.get((col * self.resolution, row * self.resolution))

    def neighbors(self, v: int) -> list[int]:
        return self.adjacency[v]

    def adjacent(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]

    def edges(self):
        for u, nbrs in enumerate(self.adjacency):
            for v in nbrs:
                if u < v:
                    yield (u, v)

    def to_json_dict(self) -> dict:
        return {
            "width": self.grid.width,
            "height": self.grid.height,
            "resolution": self.resolution,
            "robot_width": self.robot_width,
            "vertices": [{"id": v, "x": x, "y": y}
                         for v, (x, y) in enumerate(self.coords)],
            "edges": [[u, v] for u, v in self.edges()],
        }


def _body_clear(grid: GridMap, x: float, y: float, half: float) -> bool:
    # Body must stay inside the map; boundary contact with map edge is allowed.
    if x - half < 0.0 or y - half < 0.0:
        return False
    if x + half > grid.width or y + half > grid.height:
        return False
    c_lo = max(0, int(math.floor(x - half)))
    c_hi = min(grid.width - 1, int(math.ceil(x + half)) - 1)
    r_lo = max(0, int(math.floor(y - half)))
    r_hi = min(grid.height - 1, int(math.ceil(y + half)) - 1)
    for row in range(r_lo, r_hi + 1):
        for col in range(c_lo, c_hi + 1):
            if not grid.is_blocked(col, row):
                continue
            # Strict inequalities: touching a blocked cell's boundary is legal.
            if x + half > col and x - half < col + 1 and \
               y + half > row and y - half < row + 1:
                return False
    return True


def build_roadmap(grid: GridMap, resolution: int = 1,
                  robot_width: float = DEFAULT_ROBOT_WIDTH) -> GridRoadmap:
    """Construct the roadmap for a map at a given subdivision resolution."""
    if not isinstance(resolution, int) or resolution < 1:
        raise ValueError(f"resolution must be a positive integer, got {resolution!r}")
    if not 0.0 < robot_width <= 1.0:
        raise ValueError(f"robot width must be in (0, 1], got {robot_width!r}")

    half = robot_width / 2.0
    step = 1.0 / resolution
    ni = resolution * (grid.width - 1) + 1
    nj = resolution * (grid.height - 1) + 1

    lattice: list[tuple[int, int]] = []
    ids: dict[tuple[int, int], int] = {}
    for j in range(nj):
        y = 0.5 + j * step
        for i in range(ni):
            if _body_clear(grid, 0.5 + i * step, y, half):
                ids[(i, j)] = len(lattice)
                lattice.append((i, j))

    adjacency: list[list[int]] = [[] for _ in lattice]
    for v, (i, j) in enumerate(lattice):
        x, y = 0.5 + i * step, 0.5 + j * step
        for di, dj in ((1, 0), (0, 1)):  # each undirected edge examined once
            u = ids.get((i + di, j + dj))
            if u is None:
                continue
            mx, my = x + di * step / 2.0, y + dj * step / 2.0
            if _body_clear(grid, mx, my, half):
                adjacency[v].append(u)
                adjacency[u].append(v)
    for nbrs in adjacency:
        nbrs.sort()
    return GridRoadmap(grid, resolution, robot_width, lattice, ids, adjacency)


@dataclass(frozen=True)
class AgentTask:
    agent_id: int
    start: int
    goal: int


@dataclass
class ProblemInstance:
    """A roadmap plus one task per agent.

    Starts must be pairwise non-overlapping as robot bodies, and likewise
    goals: otherwise no finite plan can end with every agent resting.
    """

    roadmap: GridRoadmap
    tasks: list[AgentTask] = field(default_factory=list)

    def __post_init__(self):
        ids = [t.agent_id for t in self.tasks]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate agent ids")
        nv = self.roadmap.vertex_count
        for t in self.tasks:
            for label, v in (("start", t.start), ("goal", t.goal)):
                if not 0 <= v < nv:
                    raise ValueError(f"agent {t.agent_id} {label} {v} outside roadmap")
        keys = self.roadmap.keys
        offsets = self.roadmap.overlap_offsets
        for a in range(len(self.tasks)):
            for b in range(a + 1, len(self.tasks)):
                ta, tb = self.tasks[a], self.tasks[b]
                if 2 * (keys[ta.start] - keys[tb.start]) in offsets:
                    raise ValueError(
                        f"agents {ta.agent_id} and {tb.agent_id} have overlapping starts")
                if 2 * (keys[ta.goal] - keys[tb.goal]) in offsets:
                    raise ValueError(
                        f"agents {ta.agent_id} and {tb.agent_id} have overlapping goals")

def instance_from_cells(roadmap: GridRoadmap,
                        pairs: list[tuple[tuple[int, int], tuple[int, int]]]
                        ) -> ProblemInstance:
    """Build an instance from (start_cell, goal_cell) pairs, id = list order."""
    tasks = []
    for agent_id, ((sx, sy), (gx, gy)) in enumerate(pairs):
        start = roadmap.cell_vertex(sx, sy)
        goal = roadmap.cell_vertex(gx, gy)
        if start is None:
            raise ValueError(f"agent {agent_id}: no vertex at start cell ({sx}, {sy})")
        if goal is None:
            raise ValueError(f"agent {agent_id}: no vertex at goal cell ({gx}, {gy})")
        tasks.append(AgentTask(agent_id, start, goal))
    return ProblemInstance(roadmap, tasks)

