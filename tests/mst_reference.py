"""The tuple versions of the machine-local steps that `mst.boruvka_step` and
`primitives.arrange_nodes` now run on Records columns, kept verbatim as the
reference the column steps are compared with (see test_mst.py): the
endpoint rename, the self-loop filter, the parallel-edge sort key and
`first_per_pair`, and `arrange_nodes`' directed copies and
`counts_by_vertex`."""

from __future__ import annotations

from operator import itemgetter

from hetmpc import primitives
from hetmpc.simcore import Records

# the unchecked constructor `copies` used is gone; the checked one builds
# the same Records
_trusted = Records

wkey = itemgetter(2, 3, 4)


def rename_apply(side):
    """`deliver_by_endpoint`'s apply of the rename by endpoint `side`."""
    return lambda es, got, side=side: [
        r[:side] + (got[r[side]],) + r[side + 1:] for r in es
    ]


def drop_self_loops(_, es):
    return [r for r in es if r[0] != r[1]]


def pair_key(r):
    """The per-record key of the parallel-edge sort."""
    return primitives._pair(r[0], r[1]) + wkey(r)


def first_per_pair_step(pred):
    """The `first_per_pair` local step, given {machine: predecessor's last
    pair}."""
    def first_per_pair(i, es):
        # a pair spanning machines: only the first machine's first record
        # survives, so inherit the predecessor's last pair as "seen"
        kept, prev = [], pred.get(i)
        for r in es:
            pair = primitives._pair(r[0], r[1])
            if pair != prev:
                kept.append(r)
                prev = pair
        return kept
    return first_per_pair


def copies(_, es):
    directed = list(es) + [(e[1], e[0]) + tuple(e[2:]) for e in es]
    # swapping the endpoints of Records leaves Records of one arity
    return _trusted(directed) if type(es) is Records else directed


def counts_by_vertex(shard):
    out = []
    for r in shard:
        if out and out[-1][0] == r[0]:
            out[-1][1] += 1
        else:
            out.append([r[0], 1])
    return [tuple(t) for t in out]
