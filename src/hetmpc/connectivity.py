"""Linear sketches and sketch-based connectivity.

Every vertex gets an L0-sampler sketch of its incidence vector (signed
coordinates over ordered vertex pairs).  Sketches are linear, so the sum
over a vertex set S is supported exactly on the cut E[S, V-S]; the large
machine runs Boruvka on summed sketches, drawing one cut edge per
supernode per phase, to find connected components in a constant number
of simulated rounds.  Component counts over geometric weight thresholds
give a (1 +/- 2*eps) estimate of the minimum spanning forest weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import primitives
from .simcore import Cluster, ConfigError, RunFailed, distribute_edges


# ---------------------------------------------------------------------------
# field arithmetic (prime q > n^4, products split into _SPLIT-bit limbs)

_SPLIT = 21  # limb width: two limbs hold any value below q < 2^41 (n <= 1217)
_LO = (1 << _SPLIT) - 1


def _is_prime(x):
    if x < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if x % p == 0:
            return x == p
    d, s = x - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        y = pow(a, d, x)
        if y in (1, x - 1):
            continue
        for _ in range(s - 1):
            y = y * y % x
            if y == x - 1:
                break
        else:
            return False
    return True


def field_prime(n):
    """Smallest prime above n^4 (checksums live in this field).

    Raises ConfigError when the prime reaches 2^41: past that, the split
    products in `_mulmod` and `_poly_eval` can exceed int64 (n=1300
    already gives wrong products).
    """
    q = n ** 4 + 1
    while not _is_prime(q):
        q += 1
    if q >= 1 << 41:
        raise ConfigError(
            f"n={n} needs a sketch field prime of {q.bit_length()} bits; "
            "the int64 field arithmetic is exact only below 2^41"
        )
    return q


def _mulmod(a, b, q):
    """(a*b) % q on int64 numpy arrays, a,b in [0,q), q < 2^41."""
    hi = b >> _SPLIT
    lo = b & _LO
    return ((a * hi % q << _SPLIT) + a * lo) % q


def _mod(a, q):
    """Reduce the int64 array `a` mod q in place and return it.

    Floor division by a scalar runs through libdivide in NumPy 2.x, and
    `np.remainder` does not, so on a contiguous block of thousands of
    entries, such as a limb product's, a - (a // q) * q costs under half
    of `%`.  It equals `%` for negative entries too, and
    |(a // q) * q| <= |a| + q, so it is exact while |a| + q < 2^63.
    """
    f = np.floor_divide(a, q)
    f *= q
    a -= f
    return a


def _powers(xs, t, q):
    """The float64 high and low `_SPLIT`-bit limbs of the (t, len(xs))
    powers x^(t-1-j) mod q at the 1-D int64 coordinates xs, from t-1
    passes of (x^i mod q) * x < 2^62."""
    p = np.empty((t, len(xs)), np.int64)
    p[-1] = 1
    for j in range(t - 2, -1, -1):
        np.remainder(p[j + 1] * xs, q, out=p[j])
    return (p >> _SPLIT).astype(np.float64), (p & _LO).astype(np.float64)


def _poly_eval(coeffs, xs, q, powers=None):
    """Evaluation mod q of every polynomial in the (..., t) coefficient
    block `coeffs` (highest degree first) at the 1-D int64 array xs of
    coordinates below n^2; returns the (..., len(xs)) values.  `powers`
    is `_powers(xs, t, q)`, given when blocks share the coordinates.

    Four float64 products of the coefficient and power limbs, then two
    shift-and-`_mod` steps.  Exact while q < 2^41 (see field_prime): a
    limb product is below 2^42 and a sum of t <= 22 of them below 2^47,
    under 2^53 in any summation order, and each step stays below 2^63.
    The field 2^61-1 (ROADMAP item 4(a)) would need three limbs a side.
    """
    ph, pl = _powers(xs, coeffs.shape[-1], q) if powers is None else powers
    ch = (coeffs >> _SPLIT).astype(np.float64)
    cl = (coeffs & _LO).astype(np.float64)
    acc = _mod((ch @ ph).astype(np.int64), q)
    acc <<= _SPLIT
    acc += (ch @ pl + cl @ ph).astype(np.int64)
    _mod(acc, q)
    acc <<= _SPLIT
    acc += (cl @ pl).astype(np.int64)
    return _mod(acc, q)


# ---------------------------------------------------------------------------
# sketch keys and per-coordinate tables


@dataclass
class SketchKeys:
    """Shared hash randomness: one level-selection polynomial per
    (instance, level) and one checksum polynomial per instance, each of
    degree t-1 over the prime field (t-wise independence).

    All coefficients expand deterministically from a small master seed,
    so only the seed (a handful of words) travels over the network.
    """

    n: int
    q: int
    R: int  # sampler instances
    L: int  # subsampling levels
    t: int  # independence
    master_seed: int
    level_coeffs: np.ndarray  # (R, L, t)
    check_coeffs: np.ndarray  # (R, t)

    def __post_init__(self):
        # bits of one word, as the cluster counts them
        self.word_bits = max(1, math.ceil(math.log2(self.n)))

    def words(self):
        return 4  # the master seed (128 bits)


def sketch_params(n):
    wb = max(1, math.ceil(math.log2(n)))
    return 2 * wb, 2 * wb, 2 * wb  # R, L, t


def make_keys(rng, n) -> SketchKeys:
    return keys_from_seed(rng.getrandbits(128), n)


def _draws(rng, q, k):
    """[rng.randrange(q) for _ in range(k)] in one loop, leaving `rng` in
    the same state: each draw is CPython's `_randbelow_with_getrandbits`,
    q.bit_length() random bits redrawn until they fall below q."""
    bits = q.bit_length()
    getrandbits = rng.getrandbits
    out = []
    for _ in range(k):
        r = getrandbits(bits)
        while r >= q:
            r = getrandbits(bits)
        out.append(r)
    return out


def keys_from_seed(master_seed, n) -> SketchKeys:
    import random as _random

    q = field_prime(n)
    R, L, t = sketch_params(n)
    exp = _random.Random(master_seed)
    # level coefficients in (r, l, j) order, then checksum ones in (r, j)
    level = np.array(_draws(exp, q, R * L * t), np.int64).reshape(R, L, t)
    check = np.array(_draws(exp, q, R * t), np.int64).reshape(R, t)
    return SketchKeys(n=n, q=q, R=R, L=L, t=t, master_seed=master_seed,
                      level_coeffs=level, check_coeffs=check)


class CoordTable:
    """Level membership and checksum values of a fixed coordinate set.

    Coordinate of edge (a,b), a<b, is a*n + b.  A coordinate belongs to
    level l of instance r with probability ~2^-l (hash threshold test).
    """

    def __init__(self, keys: SketchKeys, coords):
        self.keys = keys
        c = np.sort(np.fromiter(coords, np.int64))
        self.coords = c[np.diff(c, prepend=-1) != 0]  # coordinates are >= 0
        q, R, L = keys.q, keys.R, keys.L
        mc = len(self.coords)
        self.member = np.empty((mc, R, L), dtype=bool)
        self.member[:, :, 0] = True  # u < q: level 0 holds every coordinate
        self.check = np.zeros((mc, R), dtype=np.int64)
        # (u << l) < q, i.e. u <= (q - 1) >> l, without the shifted copy
        top = (q - 1) >> np.arange(1, L, dtype=np.int64)[:, None]
        powers = _powers(self.coords, keys.t, q)
        for r in range(R):
            # instance r's level polynomials 1..L-1 and its checksum one
            u = _poly_eval(np.vstack((keys.level_coeffs[r, 1:],
                                      keys.check_coeffs[r])), self.coords, q,
                           powers)
            self.member[:, r, 1:] = (u[:-1] <= top).T
            self.check[:, r] = u[-1]


def edge_coord(n, u, v):
    a, b = (u, v) if u < v else (v, u)
    return a * n + b


class SketchPartial:
    """Partial (or complete) sketch of a sum of incidence vectors, holding
    only its occupied cells: `cells` are the ascending flat indices r*L + l
    of the cells whose count, signed id-sum or field checksum is nonzero,
    and `vals` is one (count, id-sum, checksum) row per occupied cell.
    `dense()` gives the full cells."""

    __slots__ = ("cells", "vals", "keys")

    def __init__(self, cells, vals, keys: SketchKeys):
        self.cells = cells
        self.vals = vals
        self.keys = keys

    def words(self):
        # an occupancy mask of R*L bits, then count 1 word, id-sum 2 and
        # checksum 4 per occupied cell
        k = self.keys
        return -(-k.R * k.L // k.word_bits) + 7 * len(self.cells)

    @classmethod
    def _of_flat(cls, flat, keys):
        # flat: (R*L, 3) cells in r*L + l order; keeps the occupied ones
        cells = np.flatnonzero(flat.any(axis=1))
        return cls(cells, flat[cells], keys)

    def dense(self):
        """(R, 3, L) array of the count, id-sum and checksum cells."""
        R, L = self.keys.R, self.keys.L
        flat = np.zeros((R * L, 3), np.int64)
        flat[self.cells] = self.vals
        return flat.reshape(R, L, 3).transpose(0, 2, 1)


def _sum_partials(parts, keys: SketchKeys):
    """Sum of SketchPartials (the aggregation's reducer)."""
    flat = np.zeros((keys.R * keys.L, 3), np.int64)
    for p in parts:
        flat[p.cells] += p.vals  # a partial's cells are distinct
    _mod(flat[:, 2], keys.q)
    return SketchPartial._of_flat(flat, keys)


def _weight_classes(taus):
    """Part columns (source, smallest i with w <= taus[i]) of records
    (u, v, w), compared exactly: w <= tau iff w <= floor(tau) for int w."""
    floors = np.array([math.floor(t) for t in taus])
    return lambda cols: (cols[:, 0], np.searchsorted(floors, cols[:, 2]))


def _leaf_partials(table: CoordTable, cut, cols, parts):
    """A `Cluster.segmented` step: machine j's leaf sketches {part:
    SketchPartial} sum the signed coordinates of its directed records
    `cols[cut[j-1]:cut[j]]` (u, v, ...), +x for u < v and -x otherwise, x
    being the coordinate of edge {u, v}, grouped by part.  `parts` holds
    one column per field of a part (a one-field part is its int, others
    a tuple); a part's records must be consecutive on a machine.

    One gather of the table rows of the endpoints, then one segment sum
    over the occupied (run, cell) keys, a run being a part on one machine:
    memory follows the occupied cells, not records x R*L.
    """
    keys = table.keys
    n, k, RL = keys.n, len(cols), keys.R * keys.L
    uv = cols[:, :2].astype(np.int64)
    sign = np.where(uv[:, 0] < uv[:, 1], 1, -1)
    x = uv.min(axis=1) * n + uv.max(axis=1)
    rows = np.searchsorted(table.coords, x)
    if not (table.coords[np.minimum(rows, len(table.coords) - 1)] == x).all():
        raise KeyError("a record's edge is not a table coordinate")
    # runs break where a part field changes and at every machine boundary
    new = np.zeros(k, bool)
    new[np.r_[0, cut[:-1]]] = True
    for p in parts:
        new[1:] |= p[1:] != p[:-1]
    starts = np.flatnonzero(new)
    run = np.cumsum(new) - 1
    # every (record, cell r*L + l) membership
    i, c = np.divmod(np.flatnonzero(table.member[rows]), RL)
    key = run[i] * RL + c
    s = sign[i]
    contrib = np.stack((s, s * x[i], s * table.check[rows[i], c // keys.L]),
                       axis=1)
    order = np.argsort(key)
    key = key[order]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    sums = np.add.reduceat(contrib[order], first, axis=0)
    _mod(sums[:, 2], keys.q)
    occupied = (sums[:, 0] | sums[:, 1] | sums[:, 2]) != 0
    at, cells = np.divmod(key[first[occupied]], RL)
    vals = sums[occupied]
    bounds = np.searchsorted(at, np.arange(len(starts) + 1)).tolist()
    # copies, so that no partial keeps this group's arrays alive
    partials = [SketchPartial(cells[a:b].copy(), vals[a:b].copy(), keys)
                for a, b in zip(bounds, bounds[1:])]
    names = [p[starts].tolist() for p in parts]
    names = names[0] if len(names) == 1 else list(zip(*names))
    ends = np.searchsorted(starts, cut).tolist()  # of each machine's runs
    return [dict(zip(names[a:b], partials[a:b]))
            for a, b in zip([0] + ends, ends)]


def sketch_build(cluster: Cluster, keys: SketchKeys, table: CoordTable,
                 state_key="E", key=None, part_cols=lambda c: (c[:, 0],)):
    """Per-part sketches at the large machine.

    Keys are broadcast, edges arranged by endpoint (ordered by `key`, as
    in `arrange_nodes`), and the small machines sketch their records in
    groups, one `_leaf_partials` pass a `Cluster.segmented` group; the
    partial sketches are summed up the aggregation tree using linearity.
    `part_cols` maps the columns of directed records (source, target,
    ...) to their part columns; parts must be contiguous in the arranged
    order.  The default part is the source vertex.
    Returns {part: SketchPartial}.
    """
    primitives.tree_broadcast(cluster, [(keys,)])
    primitives.arrange_nodes(cluster, state_key, key=key)
    leaves = cluster.segmented(
        lambda cut, cols: _leaf_partials(table, cut, cols, part_cols(cols)),
        "D")
    out = primitives.aggregate(cluster, leaves,
                               lambda parts: _sum_partials(parts, keys))
    cluster.drop("D")
    return out


# ---------------------------------------------------------------------------
# decoding


EMPTY = "empty"
FAIL = "fail"


def _decode(count, idsum, check, keys: SketchKeys, r: int, n: int,
            table: CoordTable | None = None):
    """Decode one edge per row of instance-r cells, all rows at once.

    count, idsum and check are (G, L) int64 arrays, one row per summed
    sketch.  A cell verifies when count != 0, the id-sum is a multiple
    of the count, the coordinate x = idsum/count lies in [0, n^2),
    (count mod q) * g_r(x) = check (mod q) for the instance-r checksum
    polynomial g_r, and x = a*n + b with a < b.  g_r(x) is read from
    `table` when x is one of its coordinates and evaluated otherwise, so
    the result does not depend on the table.  Each row decodes to the
    edge of its highest verifying level; an all-zero row is EMPTY and
    any other row without a verifying cell is FAIL.
    Returns a list of (a, b), EMPTY or FAIL, one per row.
    """
    q = keys.q
    nonzero = count != 0
    div = np.where(nonzero, count, 1)
    x = idsum // div
    cand = nonzero & (idsum % div == 0) & (x >= 0) & (x < n * n)
    xs = x[cand]
    gx = np.empty_like(xs)
    miss = np.ones(xs.shape, dtype=bool)
    if table is not None and len(table.coords):
        at = np.minimum(np.searchsorted(table.coords, xs),
                        len(table.coords) - 1)
        miss = table.coords[at] != xs
        gx[~miss] = table.check[at[~miss], r]
    if miss.any():
        gx[miss] = _poly_eval(keys.check_coeffs[r], xs[miss], q)
    valid = np.zeros(count.shape, dtype=bool)
    valid[cand] = ((_mulmod(count[cand] % q, gx, q) == check[cand] % q)
                   & (xs // n < xs % n))
    top = count.shape[1] - 1 - np.argmax(valid[:, ::-1], axis=1)
    found = valid.any(axis=1).tolist()
    empty = ~(count.any(axis=1) | idsum.any(axis=1) | check.any(axis=1))
    best = x[np.arange(len(top)), top].tolist()
    return [EMPTY if e else divmod(xv, n) if f else FAIL
            for e, f, xv in zip(empty.tolist(), found, best)]


def _add_into(stack, sketches, keys: SketchKeys):
    """Add {vertex: SketchPartial} into the C-contiguous (n, R, 3, L)
    per-vertex cells `stack` with one fancy-indexed add a field on its
    flat view, which is exact because the (vertex, r, l) triples are
    distinct.  The checksums of the cells it adds to are reduced mod q;
    every other checksum must be reduced already."""
    if sketches:
        parts = sketches.values()
        v = np.repeat(np.fromiter(sketches, np.int64, len(sketches)),
                      [len(s.cells) for s in parts])
        r, l = np.divmod(np.concatenate([s.cells for s in parts]), keys.L)
        vals = np.concatenate([s.vals for s in parts])
        flat = stack.reshape(-1)
        at = (v * keys.R + r) * 3 * keys.L + l  # the count cells
        flat[at] += vals[:, 0]
        flat[at + keys.L] += vals[:, 1]
        at += 2 * keys.L
        flat[at] = _mod(flat[at] + vals[:, 2], keys.q)


def _stack(sketches, keys: SketchKeys, n: int):
    """Per-vertex sketches as one (n, R, 3, L) array holding the count,
    id-sum and checksum cells of each instance; a vertex without a
    sketch is a zero row."""
    stack = np.zeros((n, keys.R, 3, keys.L), np.int64)
    _add_into(stack, sketches, keys)
    return stack


# ---------------------------------------------------------------------------
# connectivity by sketch Boruvka


def _roots(dsu, n):
    """dsu.find(v) for every vertex v of DSU(range(n)), as an int64 array,
    by pointer jumping over its parent array (kept in vertex order)."""
    roots = np.fromiter(dsu.p.values(), np.int64, n)
    while True:
        up = roots[roots]
        if (up == roots).all():
            return roots
        roots = up


def _boruvka(stack, keys: SketchKeys, n: int, table: CoordTable):
    """Sketch Boruvka on per-vertex cells `stack` (see `_stack`).

    Each phase sums the cells inside every current supernode and draws
    one cut edge from a fresh sampler instance, decoding all supernodes
    in one pass.  Returns (labels, phases), labels being the smallest
    member id per vertex, or None when the samplers fail outright.
    """
    dsu = primitives.DSU(range(n))
    for r in range(keys.R):
        roots = _roots(dsu, n)
        # supernodes in ascending root, which is also the order of
        # their first members, since a root is its smallest member; each
        # supernode's cells are one segment sum
        order = np.argsort(roots, kind="stable")
        first = np.flatnonzero(np.diff(roots[order], prepend=-1))
        sums = np.add.reduceat(stack[order, r], first, axis=0)
        _mod(sums[:, 2], keys.q)
        merged_any = False
        failed_any = False
        for res in _decode(sums[:, 0], sums[:, 1], sums[:, 2], keys, r, n,
                           table):
            if res == EMPTY:
                continue
            if res == FAIL:
                failed_any = True
                continue
            a, b = res
            if dsu.union(a, b):
                merged_any = True
        if not merged_any and not failed_any:
            return dict(enumerate(roots.tolist())), r + 1
    return None


def _sketch_components(cluster: Cluster, keys: SketchKeys, state_key):
    """Sketch the edges under state_key and run `_boruvka` on them."""
    n = cluster.config.n
    coords = cluster.local(
        lambda _, es: [edge_coord(n, e[0], e[1]) for e in es], state_key)
    table = CoordTable(keys, chain.from_iterable(coords.values()))
    stack = _stack(sketch_build(cluster, keys, table, state_key), keys, n)
    return _boruvka(stack, keys, n, table)


def connected_components(cluster: Cluster, graph):
    """Component label (smallest member id) per vertex of an unweighted
    graph, which it distributes; O(1) rounds.

    Boruvka on sketches (`_boruvka`).  A run whose samplers fail outright
    is retried once with fresh keys.
    """
    n = cluster.config.n
    distribute_edges(cluster, [(e[0], e[1]) for e in graph.edges])
    for attempt in range(2):
        keys = make_keys(cluster.rng("sketch-keys", "cc", attempt), n)
        found = _sketch_components(cluster, keys, "E")
        if found is not None:
            labels, phases = found
            return labels, {"phases": phases, "instances": keys.R,
                            "retried": attempt}
    raise RunFailed("sketch samplers failed on both key draws")


# ---------------------------------------------------------------------------
# MST weight estimation by threshold component counting


def mst_weight_estimate(cluster: Cluster, graph, eps, max_weight=None):
    """(1 +/- 2*eps) estimate of the minimum spanning forest weight.

    Counts the components cc_i of every threshold subgraph (edge weight
    <= (1+eps)^i) and combines them:
    w_hat = n - cc_r + sum_i eps*(1+eps)^i * (cc_i - cc_r).

    One sketch aggregation serves every threshold.  Its parts are
    (vertex, weight class), the class of an edge being the smallest i
    with w <= (1+eps)^i; edges heavier than the last threshold are
    dropped on the small machines.  Sketches are linear, so the large
    machine adds the classes in increasing order into one prefix sum,
    which is threshold i's sketch once class i is in, and decodes it
    whenever a class arrives; a threshold without a class of its own has
    the previous threshold's count.  If threshold i's samplers fail, its
    subgraph is sketched once more with fresh keys.
    """
    if not (0 < eps <= 1):
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    n = cluster.config.n
    W = max_weight
    if W is None:
        W = max((e[2] for e in graph.edges), default=1)
    r = 0 if W <= 1 else math.ceil(math.log(W) / math.log(1 + eps))
    taus = [(1 + eps) ** i for i in range(r + 1)]

    distribute_edges(cluster, [tuple(e) for e in graph.edges])
    keys = make_keys(cluster.rng("sketch-keys", "est"), n)
    table = CoordTable(keys, [edge_coord(n, e[0], e[1]) for e in graph.edges])

    def keep(i):
        # threshold i's subgraph under "T" on every small machine
        cluster.local(lambda _, es: [e for e in es if e[2] <= taus[i]], "E", "T")

    keep(r)
    partials = sketch_build(cluster, keys, table, "T", key=(0, 2, 1),
                            part_cols=_weight_classes(taus))
    cluster.drop("T")
    by_class = {}
    for (v, c), s in partials.items():
        by_class.setdefault(c, {})[v] = s

    stack = np.zeros((n, keys.R, 3, keys.L), np.int64)
    ccs = []
    cc = n
    for i in range(r + 1):
        if i in by_class:
            _add_into(stack, by_class[i], keys)
            found = _boruvka(stack, keys, n, table)
            if found is None:
                keep(i)
                found = _sketch_components(
                    cluster,
                    make_keys(cluster.rng("sketch-keys", ("est", i), 1), n),
                    "T")
                cluster.drop("T")
                if found is None:
                    raise RunFailed("sketch samplers failed on both key draws")
            cc = len(set(found[0].values()))
        ccs.append(cc)

    cc_r = ccs[-1]
    w_hat = float(n - cc_r)
    for i in range(r):
        w_hat += eps * (1 + eps) ** i * (ccs[i] - cc_r)
    report = {
        "eps": eps,
        "max_weight": W,
        "thresholds": r + 1,
        "cc_per_threshold": ccs,
        "estimate": w_hat,
    }
    return w_hat, report
