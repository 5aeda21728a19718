"""`oracles.max_stretch` as it was before it grouped the edges by source
and stopped each BFS early, kept verbatim with its BFS as the reference
(see test_spanner.py)."""

from collections import deque


def bfs_dist(adj, src):
    dist = [-1] * len(adj)
    dist[src] = 0
    q = deque([src])
    while q:
        u = q.popleft()
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                q.append(v)
    return dist


def max_stretch(graph, spanner_edges):
    """Largest spanner distance over graph edges (None if disconnected in H)."""
    n = graph.n
    adj = [[] for _ in range(n)]
    for e in spanner_edges:
        adj[e[0]].append(e[1])
        adj[e[1]].append(e[0])
    worst = 0
    for u in sorted({e[0] for e in graph.edges}):
        dist = bfs_dist(adj, u)
        for e in graph.edges:
            if e[0] == u:
                if dist[e[1]] < 0:
                    return None
                worst = max(worst, dist[e[1]])
    return worst
