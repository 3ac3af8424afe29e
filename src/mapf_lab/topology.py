"""Betweenness-centrality fields and roadmap topology labeling.

Betweenness here counts, for each vertex, the fraction of shortest paths
between unordered vertex pairs that pass through it. On grid roadmaps the
field exposes structure: corridors show up as connected runs of
high-centrality vertices, doorway bottlenecks as isolated high-centrality
vertices, and plazas as wide low-centrality patches. The classifier turns
those signatures into one of four labels used to pick solver settings.
Each source's dependencies accumulate level-synchronously: a breadth-first
pass counts shortest paths level by level, and a backward pass over the
levels gives each vertex one coefficient that its shallower neighbours sum.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from enum import Enum
from statistics import median
from typing import Sequence

from .roadmap import GridRoadmap


@dataclass
class CentralityField:
    raw: list[float]
    normalized: list[float]
    raw_variance: float
    raw_mean: float = 0.0

    @classmethod
    def from_raw(cls, raw: list[float]) -> "CentralityField":
        if raw:
            mean = sum(raw) / len(raw)
            variance = sum((v - mean) ** 2 for v in raw) / len(raw)
            lo, hi = min(raw), max(raw)
            if hi > lo:
                normalized = [(v - lo) / (hi - lo) for v in raw]
            else:
                normalized = [0.0] * len(raw)
        else:
            mean = variance = 0.0
            normalized = []
        return cls(raw=list(raw), normalized=normalized, raw_variance=variance,
                   raw_mean=mean)


def _accumulate_from_source(adjacency: Sequence[Sequence[int]], s: int,
                            score: list[float]) -> None:
    # Brandes (2001) from s, level-synchronous after Madduri et al. (IPDPS
    # 2009): coef[w] = (1 + delta[w]) / sigma[w], and delta[w] is sigma[w]
    # times the sum of coef over w's neighbours one level deeper.
    n = len(adjacency)
    sigma = [0.0] * n
    dist = [-1] * n
    sigma[s] = 1.0
    dist[s] = 0
    levels = []
    level = [s]
    d = 0
    while level:
        levels.append(level)
        d += 1
        following = []
        for v in level:
            sv = sigma[v]
            for w in adjacency[v]:
                dw = dist[w]
                if dw == d:
                    sigma[w] += sv
                elif dw < 0:
                    dist[w] = d
                    sigma[w] = sv
                    following.append(w)
        level = following
    coef = [0.0] * n
    for d in range(len(levels) - 1, 0, -1):
        for w in levels[d]:
            acc = 0.0
            for u in adjacency[w]:
                if dist[u] > d:  # neighbours lie at most one level apart
                    acc += coef[u]
            delta = sigma[w] * acc
            score[w] += delta
            coef[w] = (1.0 + delta) / sigma[w]


def betweenness(adjacency: Sequence[Sequence[int]],
                sample: int | None = None, seed: int = 0) -> CentralityField:
    """Betweenness over unordered pairs, exact or source-sampled.

    With ``sample`` set, only that many uniformly drawn sources accumulate
    and the result is scaled by V/sample, an unbiased estimate of the exact
    field. Disconnected inputs are fine: pairs in different components
    contribute nothing.
    """
    n = len(adjacency)
    if sample is not None:
        if not 0 < sample <= n:
            raise ValueError(f"sample must be in 1..{n}, got {sample}")
        sources = sorted(random.Random(seed).sample(range(n), sample))
        scale = n / sample / 2.0
    else:
        sources = range(n)
        scale = 0.5  # each unordered pair was seen from both endpoints
    score = [0.0] * n
    for s in sources:
        _accumulate_from_source(adjacency, s, score)
    return CentralityField.from_raw([v * scale for v in score])


class Label(Enum):
    LARGE_OPEN = "large_open"
    NARROW_DOMINATED = "narrow_dominated"
    MIXED = "mixed"
    FEATURELESS = "featureless"


@dataclass(frozen=True)
class ClassifierConfig:
    # Upper bound on the squared coefficient of variation of the raw field
    # (variance over squared mean) for the large-open label; an almost
    # uniform raw field means no structure worth reacting to.
    empty_cv_threshold: float = 0.5
    # Normalized score at or above which a vertex counts as high-centrality.
    high_threshold: float = 0.6
    # Minimum vertices for a connected high run to count as a corridor chain.
    chain_min: int = 5
    # Chain share of high-centrality mass needed to call the map corridor-bound.
    narrow_fraction: float = 0.5
    # Normalized score at or below which a vertex counts as open ground.
    low_threshold: float = 0.2
    # Minimum vertices for a low-centrality patch to count as a plaza.
    open_cluster_min: int = 16
    # Plaza share of all vertices needed for the mixed label.
    mixed_low_fraction: float = 0.2
    # High-centrality share of all vertices above which peaks are too broad
    # to be doorway bottlenecks.
    bottleneck_fraction: float = 0.08
    # Widest free cross-section (in cells) a high-centrality feature may sit
    # in and still count as a passage or doorway rather than open ground.
    passage_width_max: float = 4.0
    # Share of high-centrality mass that must sit in narrow cross-sections
    # before isolated peaks count as doorway bottlenecks.
    narrow_mass_min: float = 0.25

    def __post_init__(self):
        # Every value is finite: the two counts at least 1, the cv and width
        # bounds at least 0, and the other thresholds and fractions in [0, 1].
        for name, value in vars(self).items():
            low, high = {"chain_min": (1, math.inf),
                         "open_cluster_min": (1, math.inf),
                         "empty_cv_threshold": (0, math.inf),
                         "passage_width_max": (0, math.inf)}.get(name, (0, 1))
            if not (math.isfinite(value) and low <= value <= high):
                raise ValueError(f"threshold {name!r} must be finite and in "
                                 f"[{low}, {high}], got {value!r}")


@dataclass
class TopologyLabel:
    label: Label
    evidence: dict[str, float] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"label": self.label.value, "evidence": dict(self.evidence)}


def _components(members: list[int], member_set: set[int],
                adjacency: Sequence[Sequence[int]]) -> list[list[int]]:
    seen: set[int] = set()
    comps = []
    for v in members:
        if v in seen:
            continue
        comp = [v]
        seen.add(v)
        stack = [v]
        while stack:
            u = stack.pop()
            for w in adjacency[u]:
                if w in member_set and w not in seen:
                    seen.add(w)
                    comp.append(w)
                    stack.append(w)
        comps.append(comp)
    return comps


def _runs(blocked: list[bool]) -> list[int]:
    """Per cell of one row or column: the length of the passable run it
    lies in, 0 when blocked."""
    out = [0] * len(blocked)
    start = 0
    for end in range(len(blocked) + 1):
        if end == len(blocked) or blocked[end]:
            out[start:end] = [end - start] * (end - start)
            start = end + 1
    return out


def _passage_widths(roadmap: GridRoadmap) -> list[int]:
    """Free cross-section per vertex: the smaller of the horizontal and
    vertical passable runs through the vertex's cell, in cell units."""
    grid = roadmap.grid
    w, h = grid.width, grid.height
    blocked = [grid.is_blocked(col, row) for row in range(h) for col in range(w)]
    hor = [_runs(blocked[row * w:(row + 1) * w]) for row in range(h)]
    ver = [_runs(blocked[col::w]) for col in range(w)]
    r = roadmap.resolution
    widths = []
    for (i, j) in roadmap.lattice:
        row, col = (2 * j + r) // (2 * r), (2 * i + r) // (2 * r)
        widths.append(min(hor[row][col], ver[col][row]))
    return widths


def _in_passage(vertices: list[int], widths: list[int],
                config: ClassifierConfig) -> bool:
    if not vertices:
        return False
    return median(widths[v] for v in vertices) <= config.passage_width_max


def classify(roadmap: GridRoadmap, field_: CentralityField,
             config: ClassifierConfig = ClassifierConfig()) -> TopologyLabel:
    """Label the roadmap's dominant structure from its centrality field.

    Statistics are taken over the largest connected component; the component
    count is reported as evidence. The checks run in a fixed order: nearly
    uniform raw field, then corridor chains, then bottlenecks-plus-plazas,
    else featureless.
    """
    n = roadmap.vertex_count
    if n == 0:
        raise ValueError("cannot classify an empty roadmap")
    all_comps = _components(list(range(n)), set(range(n)), roadmap.adjacency)
    main = max(all_comps, key=lambda c: (len(c), -c[0]))
    main_set = set(main)

    cf = CentralityField.from_raw([field_.raw[v] for v in main])
    mean = cf.raw_mean
    rel_var = cf.raw_variance / (mean * mean) if mean > 0 else 0.0
    norm = {v: cf.normalized[k] for k, v in enumerate(main)}

    evidence = {
        "component_count": float(len(all_comps)),
        "raw_cv_sq": rel_var,
        "vertices": float(len(main)),
    }
    if rel_var < config.empty_cv_threshold:
        return TopologyLabel(Label.LARGE_OPEN, evidence)

    widths = _passage_widths(roadmap)
    high = [v for v in main if norm[v] >= config.high_threshold]
    high_mass = sum(norm[v] for v in high)
    comps = _components(high, set(high), roadmap.adjacency)
    chain_mass = sum(sum(norm[v] for v in comp) for comp in comps
                     if len(comp) >= config.chain_min
                     and _in_passage(comp, widths, config))
    chain_fraction = chain_mass / high_mass if high_mass > 0 else 0.0
    evidence["high_fraction"] = len(high) / len(main)
    evidence["chain_fraction"] = chain_fraction
    evidence["isolated_fraction"] = 1.0 - chain_fraction if high_mass > 0 else 0.0
    if high and chain_fraction >= config.narrow_fraction and chain_mass > 0.0:
        return TopologyLabel(Label.NARROW_DOMINATED, evidence)

    narrow_mass = sum(norm[v] for v in high
                      if widths[v] <= config.passage_width_max)
    evidence["narrow_high_mass"] = narrow_mass / high_mass if high_mass > 0 else 0.0
    low = [v for v in main if norm[v] <= config.low_threshold]
    low_comps = _components(low, set(low), roadmap.adjacency)
    plaza = sum(len(c) for c in low_comps if len(c) >= config.open_cluster_min)
    evidence["low_cluster_cover"] = plaza / len(main)
    if high and evidence["high_fraction"] <= config.bottleneck_fraction \
            and evidence["narrow_high_mass"] >= config.narrow_mass_min \
            and evidence["low_cluster_cover"] >= config.mixed_low_fraction:
        return TopologyLabel(Label.MIXED, evidence)
    return TopologyLabel(Label.FEATURELESS, evidence)


def emit_heatmap(roadmap: GridRoadmap, field_: CentralityField, path) -> int:
    """Write one CSV row per vertex: continuous x, y and normalized score."""
    if len(field_.normalized) != roadmap.vertex_count:
        raise ValueError("field size does not match roadmap")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("x,y,bc\n")
        for v, (x, y) in enumerate(roadmap.coords):
            fh.write(f"{x:.6f},{y:.6f},{field_.normalized[v]:.6f}\n")
    return roadmap.vertex_count
