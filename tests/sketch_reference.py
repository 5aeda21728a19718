"""Sketch code that `connectivity` replaced, kept verbatim as the
references its ports are compared with.

- `boruvka`, the sketch Boruvka phase loop that `connectivity._boruvka`
  replaced: each phase finds every vertex's root with one `DSU.find`
  call, groups the vertices with `np.unique`, sums each supernode's cells
  with `np.add.at` and reduces the checksums with `%=`.
- `leaf_partials`, one machine's leaf sketches, which the segmented
  `connectivity._leaf_partials` replaced: it ran once per machine and
  took its parts from a per-record `part_fn`.
"""

from __future__ import annotations

import numpy as np

from hetmpc import primitives
from hetmpc.connectivity import (EMPTY, FAIL, CoordTable, SketchKeys,
                                 SketchPartial, _decode, _mod)
from hetmpc.simcore import as_records


def boruvka(stack, keys: SketchKeys, n: int, table: CoordTable):
    dsu = primitives.DSU(range(n))
    for r in range(keys.R):
        roots = np.fromiter((dsu.find(v) for v in range(n)), np.int64, n)
        _, group = np.unique(roots, return_inverse=True)
        sums = np.zeros((group.max() + 1, 3, keys.L), np.int64)
        np.add.at(sums, group, stack[:, r])
        sums[:, 2] %= keys.q
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
            return {v: dsu.find(v) for v in range(n)}, r + 1
    return None


def leaf_partials(table: CoordTable, part_fn, records):
    """One machine's leaf sketches: {part: SketchPartial} summing the
    signed coordinates of its directed records (u, v, ...), +x for u < v
    and -x otherwise, x being the coordinate of edge {u, v}, grouped by
    `part_fn`.  A part's records must be consecutive.

    One gather of the table rows of the records' endpoint columns, then
    one segment sum over the occupied (part, cell) keys only, so memory
    stays proportional to the occupied cells rather than to records x R*L.
    """
    if not records:
        return {}
    keys = table.keys
    n, k, RL = keys.n, len(records), keys.R * keys.L
    parts = [part_fn(r) for r in records]
    starts = [0] + [i for i in range(1, k) if parts[i] != parts[i - 1]]
    uv = as_records(records).columns()[:, :2].astype(np.int64)
    sign = np.where(uv[:, 0] < uv[:, 1], 1, -1)
    x = uv.min(axis=1) * n + uv.max(axis=1)
    rows = np.searchsorted(table.coords, x)
    if not (table.coords[np.minimum(rows, len(table.coords) - 1)] == x).all():
        raise KeyError("a record's edge is not a table coordinate")
    # every (record, r, l) membership; level 0 holds every coordinate
    i, r, l = np.nonzero(table.member[rows])
    run = np.repeat(np.arange(len(starts)), np.diff(starts + [k]))
    key = run[i] * RL + r * keys.L + l
    s = sign[i]
    contrib = np.stack((s, s * x[i], s * table.check[rows[i], r]), axis=1)
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    sums = np.add.reduceat(contrib[order], first, axis=0)
    _mod(sums[:, 2], keys.q)
    occupied = sums.any(axis=1)
    at, cells = np.divmod(key[first][occupied], RL)
    vals = sums[occupied]
    bounds = np.searchsorted(at, np.arange(len(starts) + 1)).tolist()
    # copies, so that no partial keeps this machine's arrays alive
    return {parts[j]: SketchPartial(cells[a:b].copy(), vals[a:b].copy(), keys)
            for j, a, b in zip(starts, bounds, bounds[1:])}
