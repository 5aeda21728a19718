"""A slow meter, independent of the barrier's arithmetic: the words of any
payload by a recursive walk, a round of (src, dst, payload) sends charged
through it, and the charges of a `Slices` batch re-metered record by
record."""

from __future__ import annotations

from operator import itemgetter

import numpy as np

from hetmpc.simcore import Records, Slices


def reference_words(obj):
    """The metering rules, written out recursively: an int (a bool among
    them), a str or None is one word, a list, tuple or Records the sum of
    its items, a dict the sum of its keys and values, and any other value
    its `words()` (Packed, sketch keys and partials, flow labels)."""
    if isinstance(obj, (bool, int, str)) or obj is None:
        return 1
    if isinstance(obj, (tuple, list, Records)):
        return sum(reference_words(x) for x in obj)
    if isinstance(obj, dict):
        return sum(reference_words(k) + reference_words(v) for k, v in obj.items())
    words = getattr(obj, "words", None)
    if words is None:
        raise TypeError(type(obj).__name__)
    return words()


def reference_round(cluster, sends):
    """One round of the (src, dst, payload) triples `sends`, in send order:
    each payload is walked (`reference_words`) and charged as the header of
    an empty slice.  Returns each receiver's inbox, {dst: [(src, payload),
    ...]} sorted by sender, one sender's messages in send order."""
    inbox = {}
    for src, dst, payload in sends:
        inbox.setdefault(dst, []).append((src, payload))
    for box in inbox.values():
        box.sort(key=itemgetter(0))
    src = np.array([s for s, _, _ in sends], np.int64)
    dst = np.array([d for _, d, _ in sends], np.int64)
    words = np.array([reference_words(p) for _, _, p in sends], np.int64)
    cluster.round(Slices(Records(), src, dst, np.zeros(len(sends), np.int64), words))
    return inbox


def reference_charges(batch):
    """({sender: words}, {receiver: words}) of the `Slices` batch `batch`,
    each side in order of first send: each send is charged its header plus
    the walked words of every record of its slice."""
    rows = list(batch.records)
    header = np.broadcast_to(batch.header, len(batch)).tolist()
    sent, received, at = {}, {}, 0
    for src, dst, count, head in zip(batch.src.tolist(), batch.dst.tolist(),
                                     batch.count.tolist(), header):
        words = head + sum(reference_words(r) for r in rows[at:at + count])
        at += count
        sent[src] = sent.get(src, 0) + words
        received[dst] = received.get(dst, 0) + words
    return sent, received
