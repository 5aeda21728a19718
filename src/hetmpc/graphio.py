"""Graph representation, file I/O, and seeded generators.

File format: first line "n m" or "n m w", then one edge per line
"u v" or "u v w", 0-indexed, whitespace-separated; '#' starts a comment.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .simcore import ConfigError


@dataclass
class SimGraph:
    n: int
    edges: list = field(default_factory=list)  # (u, v) or (u, v, w) tuples
    weighted: bool = False

    def __post_init__(self):
        norm = []
        for e in self.edges:
            if self.weighted:
                u, v, w = e
                norm.append((min(u, v), max(u, v), int(w)))
            else:
                u, v = e[0], e[1]
                norm.append((min(u, v), max(u, v)))
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge endpoint out of range: {e}")
            if u == v:
                raise ValueError(f"self-loop not allowed: {e}")
        self.edges = norm

    @property
    def m(self) -> int:
        return len(self.edges)

    def degrees(self):
        deg = [0] * self.n
        for e in self.edges:
            deg[e[0]] += 1
            deg[e[1]] += 1
        return deg

    def unweighted(self) -> "SimGraph":
        return SimGraph(self.n, [(u, v) for u, v, *_ in self.edges], weighted=False)


def parse_graph(text: str) -> SimGraph:
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise ValueError("empty graph file")
    header = lines[0].split()
    if len(header) not in (2, 3):
        raise ValueError(f"bad header: {lines[0]!r}")
    n, m = int(header[0]), int(header[1])
    weighted = len(header) == 3 and header[2] == "w"
    edges = []
    for line in lines[1:]:
        parts = line.split()
        if weighted:
            if len(parts) != 3:
                raise ValueError(f"weighted edge needs 3 fields: {line!r}")
            edges.append((int(parts[0]), int(parts[1]), int(parts[2])))
        else:
            if len(parts) != 2:
                raise ValueError(f"edge needs 2 fields: {line!r}")
            edges.append((int(parts[0]), int(parts[1])))
    if len(edges) != m:
        raise ValueError(f"header says m={m} but file has {len(edges)} edges")
    return SimGraph(n, edges, weighted=weighted)


def load_graph(path) -> SimGraph:
    with open(path) as fh:
        return parse_graph(fh.read())


def format_graph(graph: SimGraph) -> str:
    out = [f"{graph.n} {graph.m} w" if graph.weighted else f"{graph.n} {graph.m}"]
    for e in graph.edges:
        out.append(" ".join(str(x) for x in e))
    return "\n".join(out) + "\n"


def _attach_weights(n, edges, rng, max_weight=None):
    top = max_weight if max_weight is not None else n ** 3
    # Unique (w, u, v) order is enforced downstream via lexicographic
    # tie-break, so repeated raw weights are fine.
    return [(u, v, rng.randint(1, top)) for u, v in edges]


def generate_graph(kind, n, seed=0, m=None, p=None, weighted=False, max_weight=None,
                   split=2, rows=None, cols=None) -> SimGraph:
    """Deterministic seeded generators.

    kinds: gnp (edge prob p), gnm (m uniform distinct edges), two-cycles
    (split=2: two n/2 cycles; split=1: one n-cycle), grid (rows x cols),
    star (hub 0), complete.
    """
    rng = random.Random((kind, n, seed, m, p, split, rows, cols).__repr__())
    if kind == "gnp":
        if p is None or not (0.0 <= p <= 1.0):
            raise ValueError("gnp needs p in [0,1]")
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    elif kind == "gnm":
        if m is None or m < 0 or m > n * (n - 1) // 2:
            raise ValueError("gnm needs 0 <= m <= n(n-1)/2")
        chosen = set()
        while len(chosen) < m:
            u = rng.randrange(n)
            v = rng.randrange(n)
            if u != v:
                chosen.add((min(u, v), max(u, v)))
        edges = sorted(chosen)
    elif kind == "two-cycles":
        if split not in (1, 2):
            raise ValueError("two-cycles needs split 1 or 2")
        if n // split < 3:
            raise ConfigError(f"two-cycles with split {split} needs n >= "
                              f"{3 * split}, so that every cycle has 3 vertices")
        edges = []
        if split == 1:
            edges = [(i, (i + 1) % n) for i in range(n)]
        else:
            h = n // 2
            edges = [(i, (i + 1) % h) for i in range(h)]
            edges += [(h + i, h + (i + 1) % (n - h)) for i in range(n - h)]
    elif kind == "grid":
        r = rows if rows is not None else int(n ** 0.5)
        c = cols if cols is not None else (n + r - 1) // r
        if r * c < n:
            raise ValueError("grid rows*cols must cover n")
        edges = []
        for i in range(n):
            x, y = divmod(i, c)
            if y + 1 < c and i + 1 < n:
                edges.append((i, i + 1))
            if (x + 1) * c + y < n:
                edges.append((i, (x + 1) * c + y))
    elif kind == "star":
        edges = [(0, v) for v in range(1, n)]
    elif kind == "complete":
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    else:
        raise ValueError(f"unknown generator kind {kind!r}")
    if weighted:
        return SimGraph(n, _attach_weights(n, edges, rng, max_weight), weighted=True)
    return SimGraph(n, edges)
