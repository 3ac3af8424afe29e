"""Multi-agent pathfinding laboratory.

Grid roadmaps with explicit robot geometry, two conflict-resolution
strategies over a shared constraint-tree search, centrality-based topology
analysis, and a benchmark harness with a command-line front end.
"""

from .bench import (AggregateMetrics, ExperimentConfig, ExperimentRecord,
                    MapSpec, aggregate, export, load_config, run_experiment)
from .conflicts import (AgentPath, Conflict, ConflictKind, TeamPlan,
                        bodies_overlap, find_first_conflict, validate_plan)
from .highlevel import Budget, Outcome, SolveResult, Strategy, solve
from .lowlevel import (MotionConstraint, SearchLimits, distances_to_goal,
                       shortest_path)
from .mapio import (GridMap, MapFormatError, ScenarioFormatError, load_map,
                    load_scenario, parse_map, parse_scenario)
from .roadmap import (AgentTask, GridRoadmap, ProblemInstance, build_roadmap,
                      instance_from_cells)
from .topology import (CentralityField, ClassifierConfig, Label, TopologyLabel,
                       betweenness, classify, emit_heatmap)

__all__ = [
    "AgentPath", "AgentTask", "AggregateMetrics", "Budget", "CentralityField",
    "ClassifierConfig", "Conflict", "ConflictKind", "ExperimentConfig",
    "ExperimentRecord", "GridMap", "GridRoadmap", "Label", "MapFormatError",
    "MapSpec", "MotionConstraint", "Outcome", "ProblemInstance",
    "ScenarioFormatError", "SearchLimits", "SolveResult", "Strategy",
    "TeamPlan", "TopologyLabel", "aggregate", "betweenness", "bodies_overlap",
    "build_roadmap", "classify", "distances_to_goal", "emit_heatmap",
    "export", "find_first_conflict", "instance_from_cells", "load_config",
    "load_map", "load_scenario", "parse_map", "parse_scenario",
    "run_experiment", "solve", "shortest_path", "validate_plan",
]
