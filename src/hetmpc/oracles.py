"""Brute-force reference implementations used to validate the simulator.

Everything here runs centrally on the host, ignoring the cluster model.
"""

from __future__ import annotations

from collections import deque


class UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))
        self.rank = [0] * n

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        return True


def edge_key(e):
    """Total order on weighted edges: (w, min, max) makes weights unique."""
    u, v, w = e
    return (w, min(u, v), max(u, v))


def kruskal_msf(n, edges):
    """Minimum spanning forest under the (w, u, v) lexicographic order."""
    uf = UnionFind(n)
    forest = []
    for e in sorted(edges, key=edge_key):
        if uf.union(e[0], e[1]):
            forest.append(e)
    return forest


def components(n, edges):
    """Component label per vertex = smallest member id."""
    uf = UnionFind(n)
    for e in edges:
        uf.union(e[0], e[1])
    smallest = {}
    for v in range(n):
        r = uf.find(v)
        if r not in smallest or v < smallest[r]:
            smallest[r] = v
    return [smallest[uf.find(v)] for v in range(n)]


def max_stretch(graph, spanner_edges):
    """Largest spanner distance over graph edges (None if disconnected in H).

    One level-by-level BFS in H from each edge's first endpoint, the edges
    grouped by it, which stops once it has reached every second endpoint
    of the group: their distances are final then."""
    n = graph.n
    adj = [[] for _ in range(n)]
    for e in spanner_edges:
        adj[e[0]].append(e[1])
        adj[e[1]].append(e[0])
    targets = {}
    for e in graph.edges:
        targets.setdefault(e[0], []).append(e[1])
    worst = 0
    for u, vs in targets.items():
        dist = {u: 0}
        left = set(vs)
        left.discard(u)
        frontier, d = [u], 0
        while left and frontier:
            d += 1
            nxt = []
            for x in frontier:
                for y in adj[x]:
                    if y not in dist:
                        dist[y] = d
                        nxt.append(y)
            left.difference_update(nxt)
            frontier = nxt
        if left:
            return None
        worst = max(worst, *(dist[v] for v in vs))
    return worst


def is_matching(edges):
    seen = set()
    for u, v, *_ in edges:
        if u in seen or v in seen:
            return False
        seen.add(u)
        seen.add(v)
    return True


def is_maximal_matching(graph, matching):
    if not is_matching(matching):
        return False
    matched = {x for e in matching for x in e[:2]}
    for e in graph.edges:
        if e[0] not in matched and e[1] not in matched:
            return False
    return True


def tree_path_max(n, forest_edges):
    """All-pairs heaviest-edge-on-path table; -1 for different trees, 0 on the diagonal."""
    adj = [[] for _ in range(n)]
    for u, v, w in forest_edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    table = [[-1] * n for _ in range(n)]
    for s in range(n):
        table[s][s] = 0
        q = deque([s])
        seen = {s}
        while q:
            u = q.popleft()
            for v, w in adj[u]:
                if v not in seen:
                    seen.add(v)
                    table[s][v] = max(table[s][u], w)
                    q.append(v)
    return table


def f_light_edges(n, forest_edges, edges):
    """Edges kept by the F-light filter: endpoints in different trees, or
    weight <= the heaviest tree-path edge weight between the endpoints.
    Weight ties are kept (conservative; F-heavy means strictly heavier)."""
    table = tree_path_max(n, forest_edges)
    kept = []
    for e in edges:
        pm = table[e[0]][e[1]]
        if pm < 0 or e[2] <= pm:
            kept.append(e)
    return kept
