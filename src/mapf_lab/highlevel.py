"""Best-first constraint-tree search over joint plans.

Both strategies share one loop: plan every agent alone, pop the cheapest
node, find its first conflict, and branch two ways. They differ only in what
a branch adds. Motion branching (cbs) forbids one agent its own conflict
location at the conflict time and replans that agent; with best-first order
this is complete and returns minimal sum-of-costs. Priority branching
(cbswp) orders the two agents and replans the lower one around every
strictly-higher path; it prunes far harder but can miss solutions and
returns costs at or above the motion-branching optimum. A priority child
walks the agents in priority order and replans each one that collides with
a higher path; since ordered pairs are conflict-free, only the new lower
agent and its descendants can. Each node keeps its conflicts per agent
pair, and one routine keeps a child's table exact: after every (re)plan it
rescans the pairs that touch the replanned agent, so the walk reads
collisions off the table. This is exact because goals never overlap; a
pair whose lattice boxes lie beyond the bodies' reach is clean unscanned.
Each agent's goal record (``lowlevel.GoalDistances``) is built on its first
plan, the root walk, and serves every later search of that agent in the
solve.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import asdict, dataclass, field
from enum import Enum
from typing import Callable

from .conflicts import (AgentPath, Conflict, TeamPlan, iter_conflicts,
                        paths_apart)
# Not called here; benchmark/tracing.py swaps this name with the others.
from .conflicts import find_first_conflict  # noqa: F401
from .lowlevel import (GoalDistances, MotionConstraint, SearchBudgetExceeded,
                       SearchLimits, distances_to_goal, shortest_path)
from .roadmap import ProblemInstance


class Strategy(Enum):
    CBS = "cbs"
    CBSWP = "cbswp"


class Outcome(Enum):
    SOLVED = "solved"
    INFEASIBLE = "infeasible"
    TIMEOUT = "timeout"
    EXHAUSTED = "exhausted"


class ConsistencyError(RuntimeError):
    """An internal tree invariant broke; indicates a solver bug, not bad input."""


@dataclass(frozen=True)
class Budget:
    time_limit: float | None = None       # seconds of wall time
    node_limit: int | None = None         # high-level expansions
    low_level_budget: int = 1_000_000     # expansions per low-level call


@dataclass
class SearchStats:
    nodes_expanded: int = 0
    nodes_generated: int = 0
    conflicts_resolved: int = 0
    low_level_calls: int = 0
    goal_levels: int = 0  # BFS levels grown from the agents' goals
    pair_scans: int = 0       # two-path conflict scans run
    wall_time: float = 0.0

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class SearchNode:
    node_id: int
    paths: dict[int, AgentPath]
    cost: int
    conflict_count: int
    first_conflict: Conflict | None
    # Conflicting agent pair -> (its first conflict, its conflict count).
    pair_conflicts: dict[tuple[int, int], tuple[Conflict, int]]
    constraints: dict[int, frozenset[MotionConstraint]]
    priorities: frozenset[tuple[int, int]]  # (higher, lower) pairs
    parent: int | None = None
    branch_pair: tuple[int, int] | None = None  # conflict pair the parent split on

    def sort_key(self) -> tuple[int, int, int]:
        return (self.cost, self.conflict_count, self.node_id)


@dataclass
class SolveResult:
    outcome: Outcome
    strategy: Strategy
    plan: TeamPlan | None
    stats: SearchStats

    def __post_init__(self):
        assert (self.plan is not None) == (self.outcome is Outcome.SOLVED)

    def to_json(self) -> dict:
        doc = {
            "outcome": self.outcome.value,
            "strategy": self.strategy.value,
            "cost": self.plan.cost if self.plan else None,
            "makespan": self.plan.makespan if self.plan else None,
            "stats": self.stats.to_json(),
        }
        if self.plan:
            doc["paths"] = [{"agent": p.agent_id, "states": list(p.states)}
                            for p in self.plan.paths]
        return doc


def resolve_motion(conflict: Conflict) -> tuple[MotionConstraint, MotionConstraint]:
    """Two keep-out constraints, one per agent, each on that agent's own location."""
    out = []
    for agent, loc in zip(conflict.agents, conflict.locations):
        if isinstance(loc, tuple):
            out.append(MotionConstraint(agent, conflict.timestep, edge=loc))
        else:
            out.append(MotionConstraint(agent, conflict.timestep, vertex=loc))
    return out[0], out[1]


def _priority_order(agent_ids: list[int], pairs: frozenset[tuple[int, int]]
                    ) -> tuple[list[int], dict[int, frozenset[int]]]:
    """Agents in priority order, the lowest id first among those ready, and
    each agent's strictly-higher agents under the transitive order.

    An agent's set is final when it is popped: all its parents came first.
    """
    below: dict[int, list[int]] = {a: [] for a in agent_ids}
    indeg = dict.fromkeys(agent_ids, 0)
    for hi, lo in pairs:
        below[hi].append(lo)
        indeg[lo] += 1
    above = dict.fromkeys(agent_ids, frozenset())
    ready = sorted(a for a in agent_ids if indeg[a] == 0)
    order = []
    while ready:
        hi = heapq.heappop(ready)
        order.append(hi)
        for lo in below[hi]:
            above[lo] = above[lo].union(above[hi], (hi,))
            indeg[lo] -= 1
            if indeg[lo] == 0:
                heapq.heappush(ready, lo)
    if len(order) != len(agent_ids):
        raise ConsistencyError("priority order contains a cycle")
    return order, above


def resolve_priority(conflict: Conflict, priorities: frozenset[tuple[int, int]]
                     ) -> list[tuple[tuple[int, int], frozenset[tuple[int, int]]]]:
    """The two (new_pair, extended_order) orderings of a conflicting pair.

    Raises ConsistencyError if the pair is already ordered: ordered pairs
    must never conflict. An unordered pair closes no cycle either way.
    """
    i, j = conflict.agents
    _, above = _priority_order(list({i, j}.union(*priorities)), priorities)
    if i in above[j] or j in above[i]:
        raise ConsistencyError(
            f"conflict between ordered agents {i} and {j} at t={conflict.timestep}")
    return [((hi, lo), priorities | {(hi, lo)}) for hi, lo in ((i, j), (j, i))]


class _Solver:
    def __init__(self, instance: ProblemInstance, strategy: Strategy,
                 budget: Budget,
                 inspect: Callable[[SearchNode], None] | None = None):
        self.instance = instance
        self.roadmap = instance.roadmap
        self.strategy = strategy
        self.budget = budget
        self.inspect = inspect
        self.stats = SearchStats()
        self.started = time.perf_counter()
        self.deadline = None if budget.time_limit is None \
            else self.started + budget.time_limit
        self.limits = SearchLimits(node_budget=budget.low_level_budget,
                                   deadline=self.deadline)
        self.dist: dict[int, GoalDistances] = {}  # built on an agent's first plan
        self.tasks = {t.agent_id: t for t in instance.tasks}
        self.next_id = 0

    def _plan_one(self, agent: int,
                  constraints: frozenset[MotionConstraint],
                  obstacle_paths: list[AgentPath]) -> AgentPath | None:
        self.stats.low_level_calls += 1
        dist = self.dist.get(agent)
        if dist is None:
            dist = self.dist[agent] = distances_to_goal(
                self.roadmap, self.tasks[agent].goal)
        return shortest_path(self.roadmap, self.tasks[agent],
                             constraints=list(constraints),
                             obstacles=obstacle_paths,
                             limits=self.limits, dist=dist)

    def _rescan(self, table: dict[tuple[int, int], tuple[Conflict, int]],
                paths: dict[int, AgentPath], agents: list[int]) -> None:
        """Make ``table`` exact again after ``agents`` were (re)planned.

        Only pairs with a (re)planned agent can change. A pair's conflicts
        end by its later arrival: then both rest on goals, which
        ProblemInstance keeps apart. So a two-path scan finds exactly the
        pair's share of a full scan.
        """
        done = set()
        for i in agents:
            done.add(i)
            for j in paths:
                if j in done:
                    continue
                pair = (i, j) if i < j else (j, i)
                if paths_apart(paths[i], paths[j], self.roadmap):
                    table.pop(pair, None)
                    continue
                self.stats.pair_scans += 1
                scan = iter_conflicts(TeamPlan([paths[i], paths[j]]),
                                      self.roadmap)
                first = next(scan, None)
                if first is None:
                    table.pop(pair, None)
                else:
                    table[pair] = (first, 1 + sum(1 for _ in scan))

    def _make_node(self, paths: dict[int, AgentPath],
                   table: dict[tuple[int, int], tuple[Conflict, int]],
                   constraints: dict[int, frozenset[MotionConstraint]],
                   priorities: frozenset[tuple[int, int]],
                   parent: SearchNode | None = None) -> SearchNode:
        parent_id = branch_pair = None
        if parent is not None:
            parent_id, branch_pair = parent.node_id, parent.first_conflict.agents
        first = min((c for c, _ in table.values()), default=None,
                    key=Conflict.sort_key)
        node = SearchNode(self.next_id, paths,
                          sum(p.cost for p in paths.values()),
                          sum(count for _, count in table.values()), first,
                          table, constraints, priorities, parent_id, branch_pair)
        self.next_id += 1
        self.stats.nodes_generated += 1
        return node

    def _root(self) -> SearchNode | None:
        paths = {}
        for task in self.instance.tasks:
            path = self._plan_one(task.agent_id, frozenset(), [])
            if path is None:
                return None
            paths[task.agent_id] = path
        table: dict[tuple[int, int], tuple[Conflict, int]] = {}
        self._rescan(table, paths, sorted(paths))
        empty = {t.agent_id: frozenset() for t in self.instance.tasks}
        return self._make_node(paths, table, empty, frozenset())

    def _children_motion(self, node: SearchNode) -> list[SearchNode]:
        children = []
        for constraint in resolve_motion(node.first_conflict):
            agent = constraint.agent
            if constraint in node.constraints[agent]:
                continue  # already forbidden once on this branch; re-adding loops
            per_agent = dict(node.constraints)
            per_agent[agent] = node.constraints[agent] | {constraint}
            path = self._plan_one(agent, per_agent[agent], [])
            if path is None:
                continue
            paths = dict(node.paths)
            paths[agent] = path
            table = dict(node.pair_conflicts)
            self._rescan(table, paths, [agent])
            children.append(self._make_node(paths, table, per_agent,
                                            node.priorities, node))
        return children

    def _children_priority(self, node: SearchNode) -> list[SearchNode]:
        children = []
        agent_ids = sorted(self.tasks)
        for _, pairs in resolve_priority(node.first_conflict, node.priorities):
            paths = dict(node.paths)
            table = dict(node.pair_conflicts)
            order, above = _priority_order(agent_ids, pairs)
            for agent in order:
                higher = above[agent]
                if not any((min(agent, h), max(agent, h)) in table
                           for h in higher):
                    continue
                path = self._plan_one(agent, node.constraints[agent],
                                      [paths[h] for h in sorted(higher)])
                if path is None:
                    break
                paths[agent] = path
                self._rescan(table, paths, [agent])
            else:
                children.append(self._make_node(paths, table, node.constraints,
                                                pairs, node))
        return children

    def _finish(self, outcome: Outcome, plan: TeamPlan | None = None) -> SolveResult:
        self.stats.wall_time = time.perf_counter() - self.started
        self.stats.goal_levels = sum(len(d.levels) - 1
                                     for d in self.dist.values())
        return SolveResult(outcome, self.strategy, plan, self.stats)

    def run(self) -> SolveResult:
        try:
            root = self._root()
            if root is None:
                return self._finish(Outcome.INFEASIBLE)
            open_heap: list[tuple[tuple[int, int, int], SearchNode]] = []
            heapq.heappush(open_heap, (root.sort_key(), root))
            while open_heap:
                if self.deadline is not None \
                        and time.perf_counter() > self.deadline:
                    return self._finish(Outcome.TIMEOUT)
                if self.budget.node_limit is not None \
                        and self.stats.nodes_expanded >= self.budget.node_limit:
                    return self._finish(Outcome.EXHAUSTED)
                _, node = heapq.heappop(open_heap)
                self.stats.nodes_expanded += 1
                if self.inspect is not None:
                    self.inspect(node)
                if node.first_conflict is None:
                    plan = TeamPlan([node.paths[a] for a in sorted(node.paths)])
                    return self._finish(Outcome.SOLVED, plan)
                self.stats.conflicts_resolved += 1
                if self.strategy is Strategy.CBS:
                    children = self._children_motion(node)
                else:
                    children = self._children_priority(node)
                for child in children:
                    heapq.heappush(open_heap, (child.sort_key(), child))
            return self._finish(Outcome.INFEASIBLE)
        except SearchBudgetExceeded as exc:
            return self._finish(Outcome.TIMEOUT if exc.reason == "time"
                                else Outcome.EXHAUSTED)


def solve(instance: ProblemInstance, strategy: Strategy = Strategy.CBS,
          budget: Budget = Budget(),
          inspect: Callable[[SearchNode], None] | None = None) -> SolveResult:
    """Solve an instance with the chosen branching strategy.

    ``inspect``, when given, observes every expanded node in pop order; it is
    meant for audits and instrumentation and must not mutate the node.
    """
    if isinstance(strategy, str):
        strategy = Strategy(strategy)
    return _Solver(instance, strategy, budget, inspect).run()
