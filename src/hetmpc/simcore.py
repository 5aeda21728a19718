"""Round-based simulator of a heterogeneous cluster.

One "large" machine with near-linear (optionally superlinear) memory plus
K small machines with sublinear memory.  All memory and traffic is counted
in words of ceil(log2 n) bits.  Computation proceeds in synchronous rounds;
between rounds local computation is free, only resident state and traffic
are metered.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import itemgetter

import numpy as np


class ConfigError(ValueError):
    """Invalid cluster configuration."""


class CapacityError(RuntimeError):
    """Input or intermediate data does not fit the available memory."""


class BudgetError(RuntimeError):
    """A machine exceeded its word budget in strict mode."""


class RunFailed(RuntimeError):
    """A randomized algorithm exhausted its retries."""


# Machine ids are plain ints: 0 is the large machine, 1..K the small ones,
# so sorting ids puts the large machine first, then the small ones by index.
LARGE = 0


def machine_name(mid: int) -> str:
    """Export name of a machine id: "L" for the large one, "S<i>" otherwise."""
    return "L" if mid == LARGE else f"S{mid}"


def seed_hash(seed, *tags) -> int:
    """The int of an 8-byte blake2b hash of `repr((seed,) + tags)`: one
    deterministic draw per (seed, *tags)."""
    h = hashlib.blake2b(repr((seed,) + tags).encode(), digest_size=8).digest()
    return int.from_bytes(h, "big")


def global_tree_depth(gamma: float) -> int:
    """Depth bound for a tree over all K <= n^(2-gamma) small machines."""
    return math.ceil((2 - gamma) / gamma)


@dataclass
class ClusterConfig:
    """Model parameters fixing every machine's word budget.

    Small machines have polylog_c * n^gamma * ceil(log2 n)^polylog_e words.
    The large machine has polylog_c * n^(1+f) * ceil(log2 n)^polylog_e words
    when the superlinear exponent f_exp is set, else the same with n^1.
    """

    n: int
    m: int
    gamma: float = 0.5
    polylog_c: int = 128
    polylog_e: int = 2
    f_exp: Fraction | None = None
    seed: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise ConfigError(f"need n >= 2, got {self.n}")
        if self.m < 1:
            raise ConfigError(f"need m >= 1, got {self.m}")
        if not (0.0 < self.gamma < 1.0):
            raise ConfigError(f"gamma must lie in (0,1), got {self.gamma}")
        if self.polylog_c < 1 or self.polylog_e < 1:
            raise ConfigError("polylog_c and polylog_e must be positive")
        if self.f_exp is not None:
            f = Fraction(self.f_exp)
            if f < Fraction(1, max(1, math.ceil(math.log2(self.n)))):
                raise ConfigError(f"f_exp must be >= 1/log2(n), got {f}")
            self.f_exp = f
        if self.num_small > self.branching ** self.tree_depth:
            raise ConfigError(
                f"{self.num_small} small machines need a machine tree deeper "
                f"than its round charge of {self.tree_depth} levels of "
                f"branching {self.branching} (n={self.n}, m={self.m}, "
                f"gamma={self.gamma})"
            )

    @property
    def word_bits(self) -> int:
        return max(1, math.ceil(math.log2(self.n)))

    @property
    def num_small(self) -> int:
        return max(1, math.ceil(self.m / (self.n ** self.gamma)))

    @property
    def branching(self) -> int:
        """Fan-out of the global machine tree."""
        return max(2, int(self.n ** self.gamma))

    @property
    def tree_depth(self) -> int:
        """Levels of the global machine tree that the round charges pay
        for, a function of gamma alone."""
        return global_tree_depth(self.gamma)

    @property
    def small_budget(self) -> int:
        return math.floor(
            self.polylog_c * (self.n ** self.gamma) * self.word_bits ** self.polylog_e
        )

    @property
    def large_budget(self) -> int:
        exp = 1.0 if self.f_exp is None else 1.0 + float(self.f_exp)
        return math.floor(
            self.polylog_c * round(self.n ** exp) * self.word_bits ** self.polylog_e
        )


class Packed:
    """Payload wrapper for bit-packed values (membership masks etc.).

    Charged ceil(bits / word_bits) words instead of one word per item.
    """

    __slots__ = ("value", "bits", "_wb")

    def __init__(self, value, bits, word_bits):
        self.value = value
        self.bits = bits
        self._wb = word_bits

    def words(self):
        return max(1, math.ceil(self.bits / self._wb))


_INT_ONLY = frozenset({int})
_TUPLE_ONLY = frozenset({tuple})


class Records:
    """Immutable batch of records: tuples, all of one arity.

    `Records(records)` checks that every record is a `tuple` and that all
    have one length, and raises TypeError otherwise.  An all-int batch
    (every field an int; a bool or a float is not) is charged `len *
    arity` words without a walk; any other (flow labels, strings) is
    charged the walked words of its fields.

    A batch has two forms, each built from the other when first asked
    for, and then kept:
    - the tuple of its records, which iteration, indexing and equality
      read;
    - its columns (`columns()`), a read-only (len, arity) array, int64 or
      else object, which selections (`take`), concatenations and column
      steps read.  A slice or selection keeps the all-int flag.
    `as_records` builds Records from an int64 (len, arity) array, and
    `_of_columns` from columns taken from Records.
    """

    __slots__ = ("_tuples", "_cols", "_flat")

    def __init__(self, records=()):
        tuples = tuple(records)
        if tuples and not (_TUPLE_ONLY.issuperset(map(type, tuples))
                           and len(set(map(len, tuples))) == 1):
            raise TypeError("Records holds tuples of one arity")
        self._tuples, self._cols = tuples, None
        self._flat = _INT_ONLY.issuperset(map(type, chain.from_iterable(tuples)))

    def _rows(self) -> tuple:
        t = self._tuples
        if t is None:
            t = self._tuples = tuple(map(tuple, self._cols.tolist()))
        return t

    def columns(self) -> np.ndarray:
        """The records as a (len, arity) array: int64, or object when a
        field is not an int or is beyond int64."""
        c = self._cols
        if c is None:
            t = self._tuples
            arity = len(t[0]) if t else 0
            try:
                c = np.fromiter(chain.from_iterable(t),
                                np.int64 if self._flat else object, len(t) * arity)
            except OverflowError:
                c = np.fromiter(chain.from_iterable(t), object, len(t) * arity)
            c = self._cols = c.reshape(len(t), arity)
            c.flags.writeable = False
        return c

    def take(self, idx) -> Records:
        """The records at the positions `idx`, selected from the columns."""
        return _of_columns(self.columns()[idx], self._flat)

    def words(self) -> int:
        if not self._flat:
            return payload_words(self._rows())
        t = self._tuples
        if t is not None:
            return len(t) * len(t[0]) if t else 0
        return self._cols.size

    def __len__(self):
        t = self._tuples
        return len(t) if t is not None else len(self._cols)

    def __iter__(self):
        return iter(self._rows())

    def __getitem__(self, i):
        t, c = self._tuples, self._cols
        if type(i) is slice:
            out = object.__new__(Records)
            out._tuples = None if t is None else t[i]
            out._cols = None if c is None else c[i]
            out._flat = self._flat
            return out
        return t[i] if t is not None else tuple(c[i].tolist())

    def __eq__(self, other):
        if type(other) is Records:
            other = other._rows()
        elif type(other) is not tuple:
            return NotImplemented
        return self._rows() == other

    def __hash__(self):
        return hash(self._rows())

    def __repr__(self):
        return f"Records({list(self._rows())!r})"


def _of_columns(cols, flat=True) -> Records:
    """Records whose columns are `cols`, which it makes read-only, without
    checking them: only for the int64 columns of records, or for columns
    taken from Records (selections, slices and concatenations), `flat`
    being whether those Records are all-int."""
    cols.flags.writeable = False
    out = object.__new__(Records)
    out._tuples, out._cols, out._flat = None, cols, flat
    return out


_EMPTY = Records()


def _join(batches):
    """The records of the Records `batches` in order, joined by their
    columns: Records, all-int when every batch is."""
    full = [b for b in batches if len(b)]
    if len(full) <= 1:
        return full[0] if full else _EMPTY
    return _of_columns(np.concatenate([b.columns() for b in full]),
                       all(b._flat for b in full))


def as_records(value) -> Records:
    """`value` as Records: Records as given, a list or tuple of tuples of
    one arity, or an array of shape (len, arity) whose rows are the
    records (an int64 one becomes the columns of Records unchecked, and
    read-only).  Raises TypeError for any other value (mixed arities,
    bare ints, a dict)."""
    t = type(value)
    if t is Records:
        return value
    if t is np.ndarray and value.ndim == 2:
        if value.dtype == np.int64:
            return _of_columns(value)
        value, t = list(map(tuple, value.tolist())), list
    if t is list or t is tuple:
        return Records(value)
    raise TypeError(f"{t.__name__} is not a record batch")


def payload_words(obj) -> int:
    """Number of words a payload occupies when serialized.

    Integers, identifiers, weights and ranks are one word each; an edge
    record (tuple of three ints) is three words.  Floats are rejected:
    all metered data is integral.  An all-int Records batch is charged
    `len * arity` without a walk; every other payload (Records with other
    fields, such as flow labels, lists and tuples, dicts, Packed) is
    walked.
    """
    if type(obj) is Records:
        return obj.words()
    if isinstance(obj, (tuple, list)):
        # Fast path for the common flat shapes: plain ints and tuples of
        # plain ints are counted in this loop; anything else recurses.
        total = 0
        for x in obj:
            t = type(x)
            if t is int:
                total += 1
            elif t is tuple and _INT_ONLY.issuperset(map(type, x)):
                total += len(x)
            else:
                total += payload_words(x)
        return total
    if isinstance(obj, int) or obj is None or isinstance(obj, str):
        return 1
    if isinstance(obj, dict):
        if _INT_ONLY.issuperset(map(type, obj)) and _INT_ONLY.issuperset(
                map(type, obj.values())):
            return 2 * len(obj)  # plain int keys and values: a word each
        return sum(payload_words(k) + payload_words(v) for k, v in obj.items())
    w = getattr(obj, "words", None)
    if w is not None:
        return w() if callable(w) else int(w)
    raise TypeError(f"unmeterable payload of type {type(obj).__name__}")


class Slices:
    """A columnar batch of record-slice sends for `Cluster.round`.

    Send j moves the next `count[j]` records of `records` (the sends take
    consecutive slices that cover `records` in order) from machine
    `src[j]` to machine `dst[j]`, after `header` words of its own (a
    count, say): one number for every send, or an array of one per send.
    The barrier charges each send its header plus the words of its slice
    of `records` (Records): `count × arity` when they are all-int, else
    each record's walked words.  The slices are not put into the inbox:
    the caller moves the records it sent.
    """

    __slots__ = ("records", "src", "dst", "count", "header")

    def __init__(self, records, src, dst, count, header=0):
        if int(count.sum()) != len(records):
            raise ValueError("the slices must cover the records")
        self.records = records
        self.src, self.dst, self.count = src, dst, count
        self.header = header

    def __len__(self):
        return len(self.count)

    def charges(self):
        """(senders, their words, receivers, their words): arrays, each
        side's machines in order of first send (see `_by_machine`)."""
        recs, count = self.records, self.count
        if recs._flat:
            words = count * (recs.words() // len(recs) if recs else 0)
        else:
            per = np.fromiter(map(payload_words, recs), np.int64, len(recs))
            cum = np.concatenate(([0], np.cumsum(per)))
            ends = np.cumsum(count)
            words = cum[ends] - cum[ends - count]
        words = words + self.header
        return _by_machine(self.src, words) + _by_machine(self.dst, words)


def _by_machine(mids, words):
    """(machines, their summed words) over the sends, the machines in
    order of first send: read off in one pass when `mids` ascends (the
    sample, route and summary rounds), else ordered by the first index of
    each machine.  A machine whose sends carry no words keeps its entry."""
    if len(mids) < 2:
        return mids, words
    total = np.bincount(mids, weights=words).astype(np.int64)
    if (mids[1:] >= mids[:-1]).all():
        seen = mids[np.concatenate(([True], mids[1:] != mids[:-1]))]
    else:
        first = np.full(len(total), len(mids))
        np.minimum.at(first, mids, np.arange(len(mids)))
        seen = np.flatnonzero(first < len(mids))
        seen = seen[np.argsort(first[seen])]
    return seen, total[seen]


class RoundTelemetry:
    """One round's row: the words each machine sent and received
    ({machine: words}, in order of first send), its budget violations, and
    `changed`, the resident words of the machines whose words changed
    since the previous row.  `resident`, the resident words of every
    machine in machine order, is replayed from the rows' deltas when read;
    it is read-only, like `Machine.state`."""

    __slots__ = ("round", "sent", "received", "changed", "violations", "_prev",
                 "_replay")

    def __init__(self, round, sent, received, changed, violations, prev, replay):
        self.round, self.sent, self.received = round, sent, received
        self.changed, self.violations = changed, violations
        self._prev, self._replay = prev, replay  # the previous row, or None

    @property
    def resident(self) -> dict:
        return self._replay.resident(self)


class _Replay:
    """Replays the resident words of a cluster's rows from their deltas.
    It keeps the table of the row read last, so reading the rows in order
    replays each delta once; a row before it is replayed from zeros.  A
    table, once returned, is never changed.  It holds no row, so the rows
    and it hold no reference cycle."""

    __slots__ = ("zero", "at", "table")

    def __init__(self, mids):
        self.zero = dict.fromkeys(mids, 0)
        self.at, self.table = -1, self.zero

    def resident(self, row) -> dict:
        r = row.round
        if r != self.at:
            at, table = (self.at, self.table) if r > self.at else (-1, self.zero)
            deltas = []
            while row is not None and row.round > at:
                deltas.append(row.changed)
                row = row._prev
            table = dict(table)
            for changed in reversed(deltas):
                table.update(changed)
            self.at, self.table = r, table
        return self.table


class Machine:
    """One machine: its word budget and its resident state, a dict from
    key to Records.

    State changes only through the cluster's steps (`Cluster.local`,
    `drop`, `load`, `unload` and `distribute_edges`); `state` is read-only
    to callers.  Every store goes through `_store`, which meters it.
    """

    __slots__ = ("mid", "budget", "state", "_words", "_total", "_changed", "_over")

    def __init__(self, mid, budget, changed, over):
        self.mid = mid
        self.budget = budget
        self.state = {}
        self._words = {}  # key -> words of its value
        self._total = 0  # sum of _words
        self._changed, self._over = changed, over


_POP = object()  # the `_store` value that pops its key


def _store(key, items):
    """The one write of machine state.  Each (machine, value) of `items`
    stores the Records `value` under `key`, or pops `key` when `value` is
    `_POP`.  A value is metered when it is stored (all-int Records in
    O(1)); Records are immutable, so that charge stays true.  When a
    machine's resident words change, they are written into `changed`, the
    delta since the last round that every machine of a cluster shares,
    and the machine's membership of `over`, the shared set of machines
    over budget, is kept."""
    for mach, value in items:
        words = mach._words
        if value is _POP:
            mach.state.pop(key, None)
            delta = -words.pop(key, 0)
        else:
            mach.state[key] = value
            w = value.words()
            delta = w - words.get(key, 0)
            words[key] = w
        if delta:
            total = mach._total = mach._total + delta
            mach._changed[mach.mid] = total
            if total > mach.budget:
                mach._over.add(mach.mid)
            else:
                mach._over.discard(mach.mid)


_SENDER = itemgetter(0)
_NO_PAYLOAD = object()
# The most records a `Cluster.segmented` group joins: a step's temporaries
# grow with its group (one group of all machines raised a sketch run's
# peak RSS by a quarter), and one call still serves many small machines.
SEGMENT_RECORDS = 512


class Cluster:
    """1 large + K small machines exchanging messages in synchronous rounds.

    `local(fn, key, out)` runs one machine-local step between rounds, one
    call a machine; `segmented(fn, key)` runs a read-only one, one call a
    group of machines, so that a step vectorized over records pays its
    fixed cost once a group while its memory stays bounded.
    `drop(*keys)` pops keys on every small machine.  The bulk shard moves
    `shards(key)`, `unload(key, mids)` and `load(key, mids, ordered, cut)`
    read, pop and store one key on many machines in one loop.
    `round(sends)` runs one communication round: it delivers the queued
    messages (canonically ordered by sender then sequence number), meters
    per-machine traffic and resident state, and records telemetry.  Budget
    violations raise in strict mode and are only logged otherwise.
    """

    def __init__(self, config: ClusterConfig, strict: bool = True):
        self.config = config
        self.strict = strict
        # the resident words of the machines whose words changed since the
        # last round, and the machines over budget; kept by `_store`
        self._changed, self._over = {}, set()
        self.small_ids = list(range(1, config.num_small + 1))
        budgets = [config.large_budget] + [config.small_budget] * len(self.small_ids)
        self.machines = {mid: Machine(mid, b, self._changed, self._over)
                         for mid, b in enumerate(budgets)}
        self._small = [self.machines[i] for i in self.small_ids]
        self.telemetry: list[RoundTelemetry] = []
        self._replay = _Replay(self.machines)

    # -- basic accessors -------------------------------------------------

    @property
    def rounds_used(self) -> int:
        return len(self.telemetry)

    def rng(self, *tags) -> random.Random:
        """Deterministic substream for (seed, *tags)."""
        return random.Random(seed_hash(self.config.seed, *tags))

    # -- local steps and the round barrier -------------------------------

    def local(self, fn, key, out=None) -> dict:
        """One machine-local step: `fn(i, records)` on each small machine i
        that holds records under `key`, in ascending order, `records`
        being what it stores there.  With `out`, each result is stored
        under `out` as Records (see `as_records`: a record batch, or an
        int64 array of its columns), and a None result pops `out`; an
        idle machine (nothing under `key`) runs nothing, and pops `out`
        when `out` is not `key`.  A result that is neither raises
        TypeError naming `out`.  Every machine runs before any result is
        stored, in one `_store` pass, so a raise stores nothing.  Returns
        {i: result} over the machines that ran.
        """
        results, items = {}, []
        idle_pop = out is not None and out != key
        for mach in self._small:
            recs = mach.state.get(key)
            if not recs:
                if idle_pop and out in mach.state:
                    items.append((mach, _POP))
                continue
            value = results[mach.mid] = fn(mach.mid, recs)
            if out is not None:
                try:
                    items.append((mach, _POP if value is None else as_records(value)))
                except TypeError as err:
                    raise TypeError(f"state key {out!r}: {err}") from None
        _store(out, items)
        return results

    def segmented(self, fn, key) -> dict:
        """A read-only local step, one call per group of consecutive small
        machines that hold Records under `key`, at most SEGMENT_RECORDS
        records a group (a larger machine is a group of its own):
        `fn(cut, columns)` gets the joined columns of the group, machine j
        holding `columns[cut[j-1]:cut[j]]` (from 0 for j = 0), and returns
        one result per machine.  Returns {i: result}, as `local` does."""
        busy = [(mid, recs.columns())
                for mid, recs in zip(self.small_ids, self.shards(key)) if recs]
        mids, cols = [mid for mid, _ in busy], [c for _, c in busy]
        ends = np.cumsum([0] + [len(c) for c in cols])
        results, a = {}, 0
        while a < len(cols):  # the group of machines a..b-1
            top = np.searchsorted(ends, ends[a] + SEGMENT_RECORDS, "right")
            b = max(a + 1, int(top) - 1)
            joined = cols[a] if b == a + 1 else np.concatenate(cols[a:b])
            cut = ends[a + 1:b + 1] - ends[a]
            results.update(zip(mids[a:b], fn(cut, joined), strict=True))
            a = b
        return results

    def drop(self, *keys):
        """Each small machine discards what it stores under `keys`."""
        for key in keys:
            _store(key, [(mach, _POP) for mach in self._small])

    # -- bulk shard moves ------------------------------------------------
    # One `_store` pass each over the machines that act.

    def shards(self, key) -> list:
        """The Records each small machine stores under `key` (None where
        it stores nothing), in machine order."""
        return [mach.state.get(key) for mach in self._small]

    def unload(self, key, mids):
        """Machines `mids` (small machine ids) each pop `key`."""
        _store(key, [(self.machines[mid], _POP) for mid in mids])

    def load(self, key, mids, ordered, cut):
        """Each machine i of `mids` (small machine ids) stores the slice
        `ordered[cut[i-1]:cut[i]]` of the Records `ordered` under `key`."""
        machines = self.machines
        rows, cols, flat = ordered._tuples, ordered._cols, ordered._flat
        items = []
        for mid in mids:  # ordered[a:b], built here
            a, b = cut[mid - 1], cut[mid]
            shard = object.__new__(Records)
            shard._tuples = None if rows is None else rows[a:b]
            shard._cols = None if cols is None else cols[a:b]
            shard._flat = flat
            items.append((machines[mid], shard))
        _store(key, items)

    def round(self, sends) -> dict:
        """Deliver messages; returns {dst: [(src, payload), ...]}.

        `sends` is a list of (src, dst, payload) triples in send order.
        Consecutive sends of one payload object are metered once and each
        is charged its words.  `sends` may instead be one `Slices` batch of
        record slices, charged per sender and receiver in bulk and left out
        of the inbox.
        """
        inbox = {}
        if type(sends) is Slices:
            src, sw, dst, dw = sends.charges()
            sent = dict(zip(src.tolist(), sw.tolist()))
            received = dict(zip(dst.tolist(), dw.tolist()))
        else:
            sent, received = {}, {}
            last = _NO_PAYLOAD
            for src, dst, payload in sends:
                if payload is not last:  # a repeated payload is metered once
                    w = payload_words(payload)
                    last = payload
                sent[src] = sent.get(src, 0) + w
                received[dst] = received.get(dst, 0) + w
                box = inbox.get(dst)
                if box is None:
                    inbox[dst] = [(src, payload)]
                else:
                    box.append((src, payload))
            # stable: messages of one sender stay in send order
            for box in inbox.values():
                if len(box) > 1:
                    box.sort(key=_SENDER)
        machines = self.machines
        violations = [(mid, "SendBudget") for mid, w in sent.items()
                      if w > machines[mid].budget]
        violations += [(mid, "RecvBudget") for mid, w in received.items()
                       if w > machines[mid].budget]
        violations.extend((mid, "StateBudget") for mid in sorted(self._over))

        changed = self._changed.copy()
        self._changed.clear()
        rows = self.telemetry
        tel = RoundTelemetry(len(rows), sent, received, changed, violations,
                             rows[-1] if rows else None, self._replay)
        self.telemetry.append(tel)
        if violations and self.strict:
            raise BudgetError(
                "budget violations: "
                + ", ".join(f"{machine_name(mid)}:{kind}" for mid, kind in violations)
            )
        return inbox

    def empty_round(self):
        return self.round([])


def init_cluster(config: ClusterConfig, strict: bool = True) -> Cluster:
    return Cluster(config, strict=strict)


def distribute_edges(cluster: Cluster, edges, placement="seeded", shard_size=None):
    """Place edge records on the small machines (initial input placement).

    adversarial: pack in input order, `shard_size` per machine;
    roundrobin: stripe; seeded: permute with the global seed, then stripe.
    """
    K = len(cluster.small_ids)
    records = Records([tuple(e) for e in edges])
    rec_words = payload_words(records)
    if rec_words > K * cluster.config.small_budget:
        raise CapacityError(
            f"{rec_words} edge words exceed aggregate small memory "
            f"{K * cluster.config.small_budget}"
        )
    order = np.arange(len(records))
    if placement == "adversarial":
        per = shard_size if shard_size is not None else math.ceil(len(records) / K)
        if len(records) > per * K:
            raise CapacityError("adversarial shard size too small for machine count")
        shards = [order[k * per:(k + 1) * per] for k in range(K)]
    elif placement == "roundrobin":
        shards = [order[k::K] for k in range(K)]
    elif placement == "seeded":
        order = order.tolist()
        cluster.rng("placement").shuffle(order)
        order = np.array(order, np.int64)
        shards = [order[k::K] for k in range(K)]
    else:
        raise ConfigError(f"unknown placement {placement!r}")
    shards = [records.take(sel) for sel in shards]
    for mid, shard in zip(cluster.small_ids, shards):
        if payload_words(shard) > cluster.config.small_budget:
            raise CapacityError(f"shard for {machine_name(mid)} exceeds its budget")
    _store("E", zip(cluster._small, shards))


def telemetry_json(cluster: Cluster) -> dict:
    """Telemetry export: one JSON-ready document per run.  Each row's
    resident words are replayed from the rows' deltas."""
    name = list(map(machine_name, cluster.machines))  # ids are 0..K
    resident = [0] * len(name)
    rounds = []
    for t in cluster.telemetry:
        for mid, w in t.changed.items():
            resident[mid] = w
        sent, received = t.sent, t.received
        rounds.append(
            {
                "round": t.round,
                "traffic": [
                    {
                        "machine": name[mid],
                        "sent": sent.get(mid, 0),
                        "received": received.get(mid, 0),
                        "resident": resident[mid],
                    }
                    for mid in sorted(sent.keys() | received.keys())
                ],
                "violations": [[name[mid], kind] for mid, kind in t.violations],
            }
        )
    return {
        "rounds_used": cluster.rounds_used,
        "rounds": rounds,
        "violations": [
            [t.round, name[mid], kind]
            for t in cluster.telemetry
            for mid, kind in t.violations
        ],
    }
