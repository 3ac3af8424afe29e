"""Independent reference implementations used to cross-check the package.

Everything here is written straight from the problem definitions rather
than from the package internals: classical vertex/swap collision rules at
unit spacing, literal shortest-path enumeration for centrality, and plain
layered searches over explicit state spaces. Slow on purpose; only run on
tiny inputs.
"""

import heapq
import math
from collections import deque
from itertools import count, product


def bfs_dist(adjacency, source):
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


# ---------------------------------------------------------------- roadmap


def _body_clear(grid, x, y, half):
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


def roadmap_reference(grid, resolution, robot_width):
    """(lattice, adjacency) of the roadmap, one float clearance test per
    vertex and per edge midpoint, straight from the module definition."""
    half = robot_width / 2.0
    step = 1.0 / resolution
    ni = resolution * (grid.width - 1) + 1
    nj = resolution * (grid.height - 1) + 1
    lattice, ids = [], {}
    for j in range(nj):
        y = 0.5 + j * step
        for i in range(ni):
            if _body_clear(grid, 0.5 + i * step, y, half):
                ids[(i, j)] = len(lattice)
                lattice.append((i, j))
    adjacency = [[] for _ in lattice]
    for v, (i, j) in enumerate(lattice):
        x, y = 0.5 + i * step, 0.5 + j * step
        for di, dj in ((1, 0), (0, 1)):
            u = ids.get((i + di, j + dj))
            if u is None:
                continue
            if _body_clear(grid, x + di * step / 2.0, y + dj * step / 2.0, half):
                adjacency[v].append(u)
                adjacency[u].append(v)
    for nbrs in adjacency:
        nbrs.sort()
    return lattice, adjacency


# ------------------------------------------------------------ joint search


def joint_optimal_cost(adjacency, starts, goals, node_cap=2_000_000):
    """Minimal sum of arrival timesteps under classical unit-grid rules.

    Two agents may not share a vertex at any timestep and may not swap
    across one edge. Each agent pays one unit per timestep until it
    irrevocably commits to sitting at its goal; committing is free. The
    commit flag makes the cost Markovian: the optimal value here equals
    the minimal sum-of-costs with trailing rest uncharged. Exhaustive
    over the joint space, so only usable on tiny instances. Returns None
    when no collision-free plan exists.
    """
    n = len(starts)
    dists = [bfs_dist(adjacency, g) for g in goals]
    if any(starts[i] not in dists[i] for i in range(n)):
        return None
    full = (1 << n) - 1

    def heuristic(positions, done):
        return sum(dists[i][positions[i]]
                   for i in range(n) if not done >> i & 1)

    tie = count()
    start = (tuple(starts), 0)
    best = {start: 0}
    heap = [(heuristic(*start), next(tie), 0, start)]
    expanded = 0
    while heap:
        _, _, g, state = heapq.heappop(heap)
        if g > best.get(state, g):
            continue
        positions, done = state
        if done == full:
            return g
        expanded += 1
        if expanded > node_cap:
            raise RuntimeError("joint oracle budget exceeded")

        def push(state, g):
            if g < best.get(state, g + 1):
                best[state] = g
                heapq.heappush(heap, (g + heuristic(*state), next(tie), g,
                                      state))

        for i in range(n):
            if not done >> i & 1 and positions[i] == goals[i]:
                push((positions, done | 1 << i), g)
        choices = []
        for i in range(n):
            if done >> i & 1:
                choices.append((positions[i],))
            else:
                choices.append((positions[i],) + tuple(adjacency[positions[i]]))
        active = n - bin(done).count("1")
        for moved in product(*choices):
            if len(set(moved)) < n:
                continue
            if any(moved[i] == positions[j] and moved[j] == positions[i]
                   and positions[i] != positions[j]
                   for i in range(n) for j in range(i + 1, n)):
                continue
            push((moved, done), g + active)
    return None


# ------------------------------------------------------ space-time search


def _overlap(p, q, width=0.5):
    return abs(p[0] - q[0]) < width and abs(p[1] - q[1]) < width


def _obstacle_pos(states, t):
    return states[t] if t < len(states) else states[-1]


def spacetime_reference(coords, adjacency, start, goal, horizon,
                        vertex_bans=(), edge_bans=(), obstacles=(),
                        width=0.5):
    """Earliest valid arrival timestep by layered breadth-first search.

    ``vertex_bans`` holds (vertex, t); ``edge_bans`` holds (u, v, t) and
    is honored in both directions; ``obstacles`` are vertex-id paths that
    rest at their last state forever. Bodies are squares of side
    ``width``. A candidate arrival is valid only if resting at the goal
    collides with no obstacle at any later integer time or transition
    midpoint. Returns None when no arrival at or below the horizon is
    valid.
    """
    vertex_bans = set(vertex_bans)
    banned_edges = set()
    for u, v, t in edge_bans:
        banned_edges.add((u, v, t))
        banned_edges.add((v, u, t))
    longest_obstacle = max((len(p) for p in obstacles), default=0)

    def blocked_vertex(v, t):
        p = coords[v]
        return any(_overlap(p, coords[_obstacle_pos(states, t)], width)
                   for states in obstacles)

    def blocked_transition(u, v, t):
        # Agent and obstacle positions halfway through step t -> t+1.
        pu, pv = coords[u], coords[v]
        mid = ((pu[0] + pv[0]) / 2, (pu[1] + pv[1]) / 2)
        for states in obstacles:
            a = coords[_obstacle_pos(states, t)]
            b = coords[_obstacle_pos(states, t + 1)]
            if _overlap(mid, ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2), width):
                return True
        return False

    latest_goal_ban = max((t for v, t in vertex_bans if v == goal),
                          default=-1)

    def rest_valid(t):
        if latest_goal_ban > t:
            return False
        for u in range(t + 1, longest_obstacle + 1):
            if blocked_vertex(goal, u) or blocked_transition(goal, goal, u - 1):
                return False
        return True

    if (start, 0) in vertex_bans or blocked_vertex(start, 0):
        return None
    layer = {start}
    if start == goal and rest_valid(0):
        return 0
    for t in range(horizon):
        nxt = set()
        for u in sorted(layer):
            for v in sorted((u,) + tuple(adjacency[u])):
                if (v, t + 1) in vertex_bans or (u, v, t) in banned_edges:
                    continue
                if blocked_vertex(v, t + 1) or blocked_transition(u, v, t):
                    continue
                nxt.add(v)
        if goal in nxt and rest_valid(t + 1):
            return t + 1
        layer = nxt
        if not layer:
            return None
    return None


# ------------------------------------------------------------ conflict scan


def scan_reference(coords, paths, width=0.5):
    """Every body overlap in a plan, straight from the definition.

    ``paths`` maps agent id to a vertex-id path that rests at its last
    state forever. Every pair of agents is compared at every integer
    timestep (a vertex conflict) and at every transition midpoint (an edge
    conflict, skipped when both agents wait). Returns (timestep, kind,
    agents, locations) tuples, a location being the vertex held or the
    (from, to) move made, sorted by timestep, vertex before edge, then
    agent pair.
    """
    agents = sorted(paths)
    horizon = max(len(p) for p in paths.values()) - 1
    found = []
    for t in range(horizon + 1):
        for i, a in enumerate(agents):
            for b in agents[i + 1:]:
                u = _obstacle_pos(paths[a], t)
                v = _obstacle_pos(paths[b], t)
                if _overlap(coords[u], coords[v], width):
                    found.append((t, "vertex", (a, b), (u, v)))
        if t == horizon:
            continue
        for i, a in enumerate(agents):
            for b in agents[i + 1:]:
                moves = [(_obstacle_pos(paths[x], t),
                          _obstacle_pos(paths[x], t + 1)) for x in (a, b)]
                if all(u == v for u, v in moves):
                    continue
                mids = [((coords[u][0] + coords[v][0]) / 2,
                         (coords[u][1] + coords[v][1]) / 2) for u, v in moves]
                if _overlap(mids[0], mids[1], width):
                    locations = tuple(u if u == v else (u, v)
                                      for u, v in moves)
                    found.append((t, "edge", (a, b), locations))
    return sorted(found, key=lambda c: (c[0], c[1] == "edge", c[2]))


def first_overlapping_ends(coords, tasks, width=0.5):
    """The first pair of (agent, start, goal) tasks, in list order, whose
    starts or else goals overlap as bodies: (agent, agent, "starts" or
    "goals"), or None when every pair is apart at both ends."""
    for i, (a, a_start, a_goal) in enumerate(tasks):
        for b, b_start, b_goal in tasks[i + 1:]:
            for ends, u, v in (("starts", a_start, b_start),
                               ("goals", a_goal, b_goal)):
                if _overlap(coords[u], coords[v], width):
                    return (a, b, ends)
    return None


# --------------------------------------------------------------- centrality


def _path_counts(adjacency, source, dist):
    sigma = {v: 0 for v in dist}
    sigma[source] = 1
    for v in sorted(dist, key=dist.get):
        for u in adjacency[v]:
            if u in dist and dist[u] == dist[v] + 1:
                sigma[u] += sigma[v]
    return sigma


def bc_reference(adjacency):
    """Betweenness over unordered pairs via per-pair path counting."""
    n = len(adjacency)
    bc = [0.0] * n
    dists = [bfs_dist(adjacency, s) for s in range(n)]
    sigmas = [_path_counts(adjacency, s, dists[s]) for s in range(n)]
    for s in range(n):
        for t in range(s + 1, n):
            if t not in dists[s]:
                continue
            d = dists[s][t]
            sigma = sigmas[s][t]
            for v in range(n):
                if v in (s, t) or v not in dists[s] or v not in dists[t]:
                    continue
                if dists[s][v] + dists[t][v] == d:
                    bc[v] += sigmas[s][v] * sigmas[t][v] / sigma
    return bc


def bc_enumerated(adjacency):
    """Betweenness by literally listing every shortest path. Tiny inputs."""
    n = len(adjacency)
    bc = [0.0] * n
    for s in range(n):
        dist_s = bfs_dist(adjacency, s)
        for t in range(s + 1, n):
            if t not in dist_s:
                continue
            dist_t = bfs_dist(adjacency, t)
            paths = []
            stack = [(s,)]
            while stack:
                path = stack.pop()
                v = path[-1]
                if v == t:
                    paths.append(path)
                    continue
                for u in adjacency[v]:
                    if (u in dist_s and dist_s[u] == dist_s[v] + 1
                            and dist_s[u] + dist_t[u] == dist_s[t]):
                        stack.append(path + (u,))
            for path in paths:
                for v in path[1:-1]:
                    bc[v] += 1.0 / len(paths)
    return bc


def bc_brandes_reference(adjacency, sources):
    """Betweenness from ``sources`` by Brandes' algorithm as first written:
    a queue-driven BFS that records every vertex's predecessor list, then
    dependencies pushed back along those lists in reverse finish order.
    Scaled by V / (2 * len(sources)) like ``betweenness``, so that all
    sources give the exact unordered-pair field."""
    n = len(adjacency)
    score = [0.0] * n
    for s in sources:
        sigma = [0.0] * n
        dist = [-1] * n
        preds = [[] for _ in range(n)]
        sigma[s] = 1.0
        dist[s] = 0
        order = []
        queue = deque([s])
        while queue:
            v = queue.popleft()
            order.append(v)
            for w in adjacency[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        delta = [0.0] * n
        for w in reversed(order):
            for v in preds[w]:
                delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w])
            if w != s:
                score[w] += delta[w]
    scale = n / len(sources) / 2.0
    return [v * scale for v in score]


def random_connected_graph(rng, max_vertices=30):
    """Random tree plus a few extra edges; sorted adjacency tuples."""
    n = rng.randint(2, max_vertices)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    for _ in range(rng.randint(0, n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    adjacency = [set() for _ in range(n)]
    for u, v in edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    return [tuple(sorted(neighbors)) for neighbors in adjacency]


# ------------------------------------------------------------- priorities


def transitive_pairs(priorities):
    """Every (higher, lower) pair the (higher, lower) pairs imply."""
    above = {}
    for hi, lo in priorities:
        above.setdefault(lo, set()).add(hi)
    closed = set()
    for agent in above:
        frontier = list(above[agent])
        while frontier:
            hi = frontier.pop()
            if (hi, agent) in closed:
                continue
            closed.add((hi, agent))
            frontier.extend(above.get(hi, ()))
    return closed
