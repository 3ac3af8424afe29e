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
from functools import cached_property, reduce
from itertools import combinations, starmap
from operator import or_, sub

from .conflicts import bodies_overlap
from .mapio import GridMap

DEFAULT_ROBOT_WIDTH = 0.5


@dataclass(frozen=True)
class SearchIndex:
    """Lattice bitsets and successor tuples of one roadmap.

    Vertex v is bit ``bits[v] = i + j * cols`` of an int, and ``vertices``
    sets every vertex's bit. ``right`` holds the bits of the vertices with an
    edge to (i + 1, j), ``down`` those with an edge to (i, j + 1); edges join
    only lattice neighbours, so the two masks are exactly the adjacency.
    ``successors[v]`` is ``(*adjacency[v], v)``: the moves in id order, then
    the wait.
    """

    cols: int
    bits: list[int]
    vertices: int
    right: int
    down: int
    successors: list[tuple[int, ...]]


class GridRoadmap:
    """Immutable roadmap. Vertex ids are row-major over the lattice, gaps skipped."""

    def __init__(self, grid: GridMap, resolution: int, robot_width: float,
                 lattice: list[tuple[int, int]], ids: list[list[int | None]],
                 adjacency: list[list[int]]):
        self.grid = grid
        self.resolution = resolution
        self.robot_width = robot_width
        self.lattice = lattice          # vertex id -> lattice indices (i, j)
        self._ids = ids                 # ids[j][i]: vertex id or None
        self.adjacency = adjacency
        # Integer occupancy model. Body centers lie on the half-lattice, so
        # 2 * keys[u] names a body resting on u and keys[u] + keys[v] the
        # body halfway through the move u -> v. The row stride leaves room
        # for every center and overlap offset, so two bodies overlap exactly
        # when the difference of their keys is in overlap_offsets.
        stride = 2 * (resolution * grid.width + 1)
        self.keys: list[int] = [i + j * stride for (i, j) in lattice]
        halves = 2 * resolution
        near = range(-halves, halves + 1)
        overlapping = [(dx, dy) for dx in near for dy in near
                       if bodies_overlap((0.0, 0.0), (dx / halves, dy / halves),
                                         robot_width)]
        self.overlap_offsets: frozenset[int] = frozenset(
            dx + dy * stride for dx, dy in overlapping)
        # Farthest overlapping center distance on one axis, in half steps.
        self.overlap_reach = max(max(map(abs, d)) for d in overlapping)
        # Span of the codes h * span + body key (see lowlevel._reserve).
        self.span = 2 * max(self.keys, default=0) \
            + 2 * max(map(abs, self.overlap_offsets)) + 1

    @property
    def vertex_count(self) -> int:
        return len(self.lattice)

    @cached_property
    def coords(self) -> list[tuple[float, float]]:
        """Vertex id -> continuous (x, y) in cell units."""
        step = 1.0 / self.resolution
        return [(0.5 + i * step, 0.5 + j * step) for (i, j) in self.lattice]

    @cached_property
    def search_index(self) -> SearchIndex:
        """The low level's per-roadmap tables, derived on first use."""
        cols = self.resolution * (self.grid.width - 1) + 1
        bits = [i + j * cols for (i, j) in self.lattice]
        right, down = [], []
        for v, nbrs in enumerate(self.adjacency):
            for u in nbrs:
                if u > v:  # row-major ids: the right or the down neighbour
                    (right if bits[u] - bits[v] < cols else down).append(
                        bits[v])
        return SearchIndex(cols, bits, _bitset(bits), _bitset(right),
                           _bitset(down), [(*nbrs, v) for v, nbrs
                                           in enumerate(self.adjacency)])

    def vertex_id(self, i: int, j: int) -> int | None:
        """Vertex at lattice indices (i, j); None off the lattice or blocked."""
        if 0 <= j < len(self._ids) and 0 <= i < len(self._ids[j]):
            return self._ids[j][i]
        return None

    def cell_vertex(self, col: int, row: int) -> int | None:
        """Vertex at the center of a map cell, present at every resolution."""
        return self.vertex_id(col * self.resolution, row * self.resolution)

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


def _bitset(positions: list[int]) -> int:
    """The int whose set bits are ``positions``, built in linear time."""
    digits = bytearray(b"0") * (max(positions, default=0) + 1)
    for p in positions:
        digits[-1 - p] = ord("1")
    return int(digits, 2)


def _covered(centers: list[float], half: float, extent: int,
             masks: list[int], outside: int) -> list[int]:
    """Per body center on one axis: the union of ``masks`` over the cells the
    body overlaps (touching is not overlap), or ``outside`` off the map."""
    return [outside if c - half < 0.0 or c + half > extent else
            reduce(or_, masks[max(0, int(math.floor(c - half))):
                              min(extent, int(math.ceil(c + half)))], 0)
            for c in centers]


def build_roadmap(grid: GridMap, resolution: int = 1,
                  robot_width: float = DEFAULT_ROBOT_WIDTH) -> GridRoadmap:
    """Construct the roadmap for a map at a given subdivision resolution."""
    if not isinstance(resolution, int) or resolution < 1:
        raise ValueError(f"resolution must be a positive integer, got {resolution!r}")
    if not 0.0 < robot_width <= 1.0:
        raise ValueError(f"robot width must be in (0, 1], got {robot_width!r}")

    half = robot_width / 2.0
    step = 1.0 / resolution
    xs = [0.5 + i * step for i in range(resolution * (grid.width - 1) + 1)]
    ys = [0.5 + j * step for j in range(resolution * (grid.height - 1) + 1)]
    # A body is clear when the columns it covers (a bit mask) miss the
    # blocked columns of the rows it covers. Bit w is an outside column that
    # every row blocks; a body off the map covers it or meets every bit.
    w = grid.width
    bits = [1 << col for col in range(w)]
    blocked = [sum(bits[col] for col in range(w) if grid.blocked[row * w + col])
               | 1 << w for row in range(grid.height)]
    cols = _covered(xs, half, w, bits, 1 << w)
    mid_cols = _covered([x + step / 2.0 for x in xs], half, w, bits, 1 << w)
    rows = _covered(ys, half, grid.height, blocked, -1)
    mid_rows = _covered([y + step / 2.0 for y in ys], half, grid.height,
                        blocked, -1)

    lattice = [(i, j) for j in range(len(ys)) for i in range(len(xs))
               if not cols[i] & rows[j]]
    # ids[j][i]: the vertex at (i, j), else None. A spare column and row of
    # None spare the bounds tests below.
    ids: list[list[int | None]] = [[None] * (len(xs) + 1)
                                   for _ in range(len(ys) + 1)]
    for v, (i, j) in enumerate(lattice):
        ids[j][i] = v
    adjacency: list[list[int]] = [[] for _ in lattice]
    for v, (i, j) in enumerate(lattice):
        # Each undirected edge is examined once, from its lower end, so every
        # list receives its neighbours in id order: up, left, right, down.
        if (u := ids[j][i + 1]) is not None and not mid_cols[i] & rows[j]:
            adjacency[v].append(u)
            adjacency[u].append(v)
        if (u := ids[j + 1][i]) is not None and not cols[i] & mid_rows[j]:
            adjacency[v].append(u)
            adjacency[u].append(v)
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
        starts = [2 * keys[t.start] for t in self.tasks]
        goals = [2 * keys[t.goal] for t in self.tasks]
        # One C-level test over all pairs of each end; only an instance that
        # hits is walked pair by pair, to name its first colliding pair.
        if offsets.isdisjoint(starmap(sub, combinations(starts, 2))) \
                and offsets.isdisjoint(starmap(sub, combinations(goals, 2))):
            return
        for a in range(len(self.tasks)):
            for b in range(a + 1, len(self.tasks)):
                ta, tb = self.tasks[a], self.tasks[b]
                if starts[a] - starts[b] in offsets:
                    raise ValueError(
                        f"agents {ta.agent_id} and {tb.agent_id} have overlapping starts")
                if goals[a] - goals[b] in offsets:
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

