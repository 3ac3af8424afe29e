"""Deterministic generators for benchmark-style maps.

Each generator is seeded and reproducible, covering the map families the
harness groups runs by: empty rooms, uniformly scattered obstacles, mazes
with fixed corridor width, and city-like layouts mixing plazas with narrow
doorways. ``python -m mapf_lab.mapgen OUTDIR`` writes the standard fixture
set used by the bundled benchmark configs.
"""

from __future__ import annotations

import os
import random
import sys

from .mapio import GridMap


def empty_map(width: int, height: int) -> GridMap:
    return GridMap(width, height, tuple([False] * (width * height)))


def random_map(width: int, height: int, density: float, seed: int = 0) -> GridMap:
    """Scatter round(width*height*density) blocked cells, keeping the free
    space connected so any sampled start can reach any sampled goal."""
    count = round(width * height * density)
    rng = random.Random(seed)
    cells = list(range(width * height))
    for _ in range(10_000):
        picks = rng.sample(cells, count)
        blocked = [False] * (width * height)
        for p in picks:
            blocked[p] = True
        grid = GridMap(width, height, tuple(blocked))
        if set(grid.component_labels().values()) == {0}:
            return grid
    raise RuntimeError("could not place obstacles while keeping space connected")


def maze_map(width: int, height: int, corridor: int = 2, wall: int = 1,
             seed: int = 0) -> GridMap:
    """Perfect maze with corridors ``corridor`` cells wide.

    A depth-first spanning tree over coarse cells is carved into the grid;
    the tree structure keeps every passage narrow and winding.
    """
    unit = corridor + wall
    cols = (width - wall) // unit
    rows = (height - wall) // unit
    if cols < 2 or rows < 2:
        raise ValueError("map too small for this corridor/wall size")
    blocked = [True] * (width * height)

    def carve(c0: int, r0: int, cw: int, rh: int) -> None:
        for r in range(r0, min(r0 + rh, height)):
            for c in range(c0, min(c0 + cw, width)):
                blocked[r * width + c] = False

    def origin(cx: int, cy: int) -> tuple[int, int]:
        return wall + cx * unit, wall + cy * unit

    rng = random.Random(seed)
    visited = {(0, 0)}
    stack = [(0, 0)]
    ox, oy = origin(0, 0)
    carve(ox, oy, corridor, corridor)
    while stack:
        cx, cy = stack[-1]
        options = [(dx, dy) for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1))
                   if 0 <= cx + dx < cols and 0 <= cy + dy < rows
                   and (cx + dx, cy + dy) not in visited]
        if not options:
            stack.pop()
            continue
        dx, dy = rng.choice(options)
        nx, ny = cx + dx, cy + dy
        visited.add((nx, ny))
        ox, oy = origin(nx, ny)
        carve(ox, oy, corridor, corridor)
        # Open the wall between the two coarse cells.
        px, py = origin(cx, cy)
        if dx:
            gx = min(px, ox) + corridor
            carve(gx, py, wall, corridor)
        else:
            gy = min(py, oy) + corridor
            carve(px, gy, corridor, wall)
        stack.append((nx, ny))
    return GridMap(width, height, tuple(blocked))


def city_map(width: int = 32, height: int = 32, seed: int = 0) -> GridMap:
    """City-like layout: four plazas behind building walls, linked by short
    doorways, with a small street loop so traffic funnels through few cells."""
    rng = random.Random(seed)
    blocked = [True] * (width * height)

    def carve(c0: int, r0: int, cw: int, rh: int) -> None:
        for r in range(r0, min(r0 + rh, height)):
            for c in range(c0, min(c0 + cw, width)):
                blocked[r * width + c] = False

    qw, qh = width // 2, height // 2
    margin = 2
    wall = 2
    # One plaza per quadrant, building walls of ``wall`` cells between them.
    plazas = [
        (margin, margin, qw - margin - wall // 2, qh - margin - wall // 2),
        (qw + wall // 2, margin, width - margin - qw - wall // 2,
         qh - margin - wall // 2),
        (margin, qh + wall // 2, qw - margin - wall // 2,
         height - margin - qh - wall // 2),
        (qw + wall // 2, qh + wall // 2, width - margin - qw - wall // 2,
         height - margin - qh - wall // 2),
    ]
    for c0, r0, cw, rh in plazas:
        carve(c0, r0, cw, rh)
    # Doorways through the separating walls, one per adjacent plaza pair.
    doors = [
        (qw - wall // 2, rng.randrange(margin + 1, qh - margin - 1), wall + 1, 1),
        (qw - wall // 2, rng.randrange(qh + margin, height - margin - 1),
         wall + 1, 1),
        (rng.randrange(margin + 1, qw - margin - 1), qh - wall // 2, 1, wall + 1),
        (rng.randrange(qw + margin, width - margin - 1), qh - wall // 2,
         1, wall + 1),
    ]
    for c0, r0, cw, rh in doors:
        carve(c0, r0, cw, rh)
    return GridMap(width, height, tuple(blocked))


FIXTURES = {
    "empty-8-8.map": lambda: empty_map(8, 8),
    "empty-16-16.map": lambda: empty_map(16, 16),
    "empty-32-32.map": lambda: empty_map(32, 32),
    "empty-48-48.map": lambda: empty_map(48, 48),
    "random-32-32-10.map": lambda: random_map(32, 32, 0.10, seed=7),
    "maze-32-32-2.map": lambda: maze_map(32, 32, corridor=2, wall=1, seed=3),
    "city-32-32.map": lambda: city_map(32, 32, seed=11),
}


def write_fixture_maps(out_dir: str | os.PathLike) -> list[str]:
    """Write the fixture maps plus one seeded scenario file per map."""
    from .bench import generate_scenario_pairs
    from .mapio import write_scenario

    os.makedirs(out_dir, exist_ok=True)
    written = []
    for name, make in FIXTURES.items():
        grid = make()
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="ascii") as fh:
            fh.write(grid.to_text())
        written.append(path)
        stem = os.path.splitext(name)[0]
        pairs = generate_scenario_pairs(grid, min(grid.passable_count() // 3, 48),
                                        f"0:{stem}:scenfile")
        scen_path = os.path.join(out_dir, f"{stem}.scen")
        write_scenario(scen_path, name, grid, pairs)
        written.append(scen_path)
    return written


if __name__ == "__main__":
    target = sys.argv[1] if len(sys.argv) > 1 else "data"
    for p in write_fixture_maps(target):
        print(p)
