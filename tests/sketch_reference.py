"""The sketch Boruvka phase loop that `connectivity._boruvka` replaced,
kept verbatim as the reference its segment-sum port is compared with:
each phase finds every vertex's root with one `DSU.find` call, groups
the vertices with `np.unique`, sums each supernode's cells with
`np.add.at` and reduces the checksums with `%=`."""

from __future__ import annotations

import numpy as np

from hetmpc import primitives
from hetmpc.connectivity import EMPTY, FAIL, CoordTable, SketchKeys, _decode


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
