"""Grid map and scenario file ingestion.

Maps use the plain-text benchmark format: a short header (``type octile``,
``height H``, ``width W``, ``map``) followed by one character per cell.
``.`` and ``G`` are passable; ``@``, ``O``, ``T`` and ``W`` are blocked.
Scenario files list start/goal cell pairs, tab separated, after a
``version`` header. Cell coordinates are (column, row) with (0, 0) in the
upper-left corner.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

PASSABLE_CHARS = frozenset(".G")
BLOCKED_CHARS = frozenset("@OTW")


class MapFormatError(ValueError):
    """Malformed map text. Carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"map line {line}: {message}")
        self.line = line


class ScenarioFormatError(ValueError):
    """Malformed or inconsistent scenario text. Carries the 0-based record index."""

    def __init__(self, record: int, message: str):
        super().__init__(f"scenario record {record}: {message}")
        self.record = record


@dataclass(frozen=True)
class GridMap:
    """Rectangular occupancy grid. ``blocked`` is row-major, one flag per cell."""

    width: int
    height: int
    blocked: tuple[bool, ...]

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValueError("map dimensions must be positive")
        if len(self.blocked) != self.width * self.height:
            raise ValueError(
                f"occupancy has {len(self.blocked)} entries for a "
                f"{self.width}x{self.height} map"
            )

    def in_bounds(self, col: int, row: int) -> bool:
        return 0 <= col < self.width and 0 <= row < self.height

    def is_blocked(self, col: int, row: int) -> bool:
        return self.blocked[row * self.width + col]

    def passable_count(self) -> int:
        return len(self.blocked) - sum(self.blocked)

    def component_labels(self) -> dict[tuple[int, int], int]:
        """4-neighbor component of every passable (col, row) cell, numbered
        0, 1, ... in row-major order of each component's first cell."""
        labels: dict[tuple[int, int], int] = {}
        count = 0
        for row in range(self.height):
            for col in range(self.width):
                if self.is_blocked(col, row) or (col, row) in labels:
                    continue
                labels[(col, row)] = count
                queue = [(col, row)]
                for c, r in queue:
                    for cell in ((c + 1, r), (c - 1, r), (c, r + 1), (c, r - 1)):
                        if self.in_bounds(*cell) and not self.is_blocked(*cell) \
                                and cell not in labels:
                            labels[cell] = count
                            queue.append(cell)
                count += 1
        return labels

    def to_text(self) -> str:
        rows = []
        for r in range(self.height):
            base = r * self.width
            rows.append("".join("@" if self.blocked[base + c] else "."
                                for c in range(self.width)))
        header = f"type octile\nheight {self.height}\nwidth {self.width}\nmap\n"
        return header + "\n".join(rows) + "\n"


def parse_map(text: str) -> GridMap:
    """Parse map text into a GridMap. Raises MapFormatError with a line number."""
    lines = text.splitlines()
    pos = 0

    def next_line() -> tuple[int, str]:
        nonlocal pos
        while pos < len(lines) and not lines[pos].strip():
            pos += 1
        if pos >= len(lines):
            raise MapFormatError(len(lines) + 1, "unexpected end of file")
        pos += 1
        return pos, lines[pos - 1].strip()

    ln, first = next_line()
    if first != "type octile":
        raise MapFormatError(ln, f"expected 'type octile' header, got {first!r}")

    height = width = None
    for _ in range(2):
        ln, line = next_line()
        parts = line.split()
        if len(parts) != 2 or parts[0] not in ("height", "width"):
            raise MapFormatError(ln, f"expected 'height N' or 'width N', got {line!r}")
        try:
            value = int(parts[1])
        except ValueError:
            raise MapFormatError(ln, f"{parts[0]} is not an integer: {parts[1]!r}") from None
        if value <= 0:
            raise MapFormatError(ln, f"{parts[0]} must be positive, got {value}")
        if parts[0] == "height":
            height = value
        else:
            width = value
    if height is None or width is None:
        raise MapFormatError(pos, "header must declare both height and width")

    ln, line = next_line()
    if line != "map":
        raise MapFormatError(ln, f"expected 'map' line, got {line!r}")

    blocked: list[bool] = []
    for r in range(height):
        ln, row = next_line()
        if len(row) != width:
            raise MapFormatError(ln, f"row {r} has {len(row)} cells, expected {width}")
        for ch in row:
            if ch in PASSABLE_CHARS:
                blocked.append(False)
            elif ch in BLOCKED_CHARS:
                blocked.append(True)
            else:
                raise MapFormatError(ln, f"unknown cell character {ch!r}")
    while pos < len(lines):
        if lines[pos].strip():
            raise MapFormatError(
                pos + 1, f"expected {height} rows, found extra content")
        pos += 1
    return GridMap(width=width, height=height, blocked=tuple(blocked))


def load_map(path: str | os.PathLike) -> GridMap:
    with open(path, "r", encoding="ascii") as fh:
        return parse_map(fh.read())


Cell = tuple[int, int]


def parse_scenario(text: str, grid: GridMap) -> list[tuple[Cell, Cell]]:
    """Parse scenario text into ordered (start, goal) cell pairs.

    Every endpoint is validated against ``grid``: in bounds, passable, and
    with matching declared dimensions. Errors carry the record index.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].lstrip().startswith("version"):
        raise ScenarioFormatError(-1, "missing 'version' header")
    pairs: list[tuple[Cell, Cell]] = []
    for idx, line in enumerate(lines[1:]):
        fields = line.split()
        if len(fields) != 9:
            raise ScenarioFormatError(idx, f"expected 9 fields, got {len(fields)}")
        try:
            width, height = int(fields[2]), int(fields[3])
            sx, sy, gx, gy = (int(f) for f in fields[4:8])
            float(fields[8])
        except ValueError:
            raise ScenarioFormatError(idx, f"non-numeric field in {line!r}") from None
        if (width, height) != (grid.width, grid.height):
            raise ScenarioFormatError(
                idx, f"declared {width}x{height} does not match map "
                     f"{grid.width}x{grid.height}")
        for label, (cx, cy) in (("start", (sx, sy)), ("goal", (gx, gy))):
            if not grid.in_bounds(cx, cy):
                raise ScenarioFormatError(idx, f"{label} ({cx}, {cy}) out of bounds")
            if grid.is_blocked(cx, cy):
                raise ScenarioFormatError(idx, f"{label} ({cx}, {cy}) is blocked")
        pairs.append(((sx, sy), (gx, gy)))
    return pairs


def load_scenario(path: str | os.PathLike, grid: GridMap) -> list[tuple[Cell, Cell]]:
    with open(path, "r", encoding="ascii") as fh:
        return parse_scenario(fh.read(), grid)


def write_scenario(path: str | os.PathLike, map_name: str, grid: GridMap,
                   pairs: list[tuple[Cell, Cell]]) -> None:
    """Write pairs in the benchmark scenario format (bucket 0 and optimal
    length 0 for every record)."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("version 1\n")
        for (sx, sy), (gx, gy) in pairs:
            fh.write(f"0\t{map_name}\t{grid.width}\t{grid.height}\t"
                     f"{sx}\t{sy}\t{gx}\t{gy}\t0.00000000\n")
