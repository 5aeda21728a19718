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
from types import MappingProxyType
from typing import NamedTuple

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
    charged the `payload_words` of each of its fields.

    A batch has two forms, each built from the other when first asked
    for, and then kept: the tuple of its records, which iteration,
    indexing and equality read, and its columns (`columns()`), a
    read-only (len, arity) array, int64 or else object, which selections,
    concatenations and column steps read.  A selection (`take`) holds the
    columns it selects from and the positions until it is first read, so
    one that is only counted, charged or sliced is never gathered.  A
    slice or selection keeps the all-int flag.
    """

    __slots__ = ("_tuples", "_cols", "_flat", "_pick")

    def __init__(self, records=()):
        tuples = tuple(records)
        if tuples and not (_TUPLE_ONLY.issuperset(map(type, tuples))
                           and len(set(map(len, tuples))) == 1):
            raise TypeError("Records holds tuples of one arity")
        self._tuples, self._cols, self._pick = tuples, None, None
        self._flat = _INT_ONLY.issuperset(map(type, chain.from_iterable(tuples)))

    def _rows(self) -> tuple:
        t = self._tuples
        if t is None:
            t = self._tuples = tuple(map(tuple, self.columns().tolist()))
        return t

    def columns(self) -> np.ndarray:
        """The records as a (len, arity) array: int64, or object when a
        field is not an int or is beyond int64."""
        c = self._cols
        if c is None:
            if self._pick is not None:
                base, idx = self._pick
                c, self._pick = base[idx], None
            else:
                t = self._tuples
                arity = len(t[0]) if t else 0
                try:
                    c = np.fromiter(chain.from_iterable(t),
                                    np.int64 if self._flat else object, len(t) * arity)
                except OverflowError:
                    c = np.fromiter(chain.from_iterable(t), object, len(t) * arity)
                c = c.reshape(len(t), arity)
            c.flags.writeable = False
            self._cols = c
        return c

    def take(self, idx) -> Records:
        """The records at the positions `idx` (an int array)."""
        p = self._pick
        return _records(None, None, (p[0], p[1][idx]) if p is not None
                        else (self.columns(), np.asarray(idx, np.int64)), self._flat)

    def words(self) -> int:
        if not self._flat:
            return int(_row_words(self.columns()).sum())
        t, c = self._tuples, self._cols
        if t is not None:
            return len(t) * len(t[0]) if t else 0
        return c.size if c is not None else len(self._pick[1]) * self._pick[0].shape[1]

    def __len__(self):
        t, c = self._tuples, self._cols
        return len(t if t is not None else c if c is not None else self._pick[1])

    def __iter__(self):
        return iter(self._rows())

    def __getitem__(self, i):
        t, c, p = self._tuples, self._cols, self._pick
        if type(i) is slice:
            return _records(None if t is None else t[i], None if c is None else c[i],
                            None if p is None else (p[0], p[1][i]), self._flat)
        return t[i] if t is not None else tuple(self.columns()[i].tolist())

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
    return _records(None, cols, None, flat)


def _records(tuples, cols, pick, flat) -> Records:
    """Records of the forms given, unchecked."""
    out = object.__new__(Records)
    out._tuples, out._cols, out._pick, out._flat = tuples, cols, pick, flat
    return out


_EMPTY = Records()


def _join(batches):
    """The records of the Records `batches` in order, all-int when every
    batch is: joined as tuples when some batch is held as tuples only (a
    local step's list), else by columns.  Two arities raise ValueError."""
    full = [b for b in batches if len(b)]
    if len(full) <= 1:
        return full[0] if full else _EMPTY
    flat = all(b._flat for b in full)
    if all(b._tuples is not None for b in full) and any(b._cols is None for b in full):
        if len({len(b._tuples[0]) for b in full}) > 1:
            raise ValueError("batches of two arities do not join")
        return _records(tuple(chain.from_iterable(b._tuples for b in full)), None,
                        None, flat)
    return _of_columns(np.concatenate([b.columns() for b in full]), flat)


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


def payload_words(field) -> int:
    """Words of one field of a record: an int (a bool among them), a str
    or None is one word, and any other value (Packed, Records, sketch
    keys and partials, flow labels) its `words()`.  A value without
    `words()`, a float or a nested tuple say, is unmeterable: TypeError.
    """
    if isinstance(field, (int, str)) or field is None:
        return 1
    w = getattr(field, "words", None)
    if w is None:
        raise TypeError(f"unmeterable field of type {type(field).__name__}")
    return w()


def _row_words(cols) -> np.ndarray:
    """The words of each record of the (len, arity) columns `cols`: the
    sum of its fields' `payload_words`, a column of ints one word a row."""
    per = np.zeros(len(cols), np.int64)
    for col in cols.T.tolist():
        if _INT_ONLY.issuperset(map(type, col)):
            per += 1
        else:
            per += np.fromiter(map(payload_words, col), np.int64, len(col))
    return per


class Slices:
    """One round's sends for `Cluster.round`, the one send form.

    Send j moves the next `count[j]` records of `records` (the sends take
    consecutive slices that cover `records` in order) from machine
    `src[j]` to machine `dst[j]`, after `header` words of its own (a
    count, say): one number for every send, or an array of one per send.
    The barrier charges each send its header plus the words of its slice
    of `records` (Records): `count × arity` when they are all-int, else
    the words of each record's fields.  Nothing is delivered: each
    receiver reads, in sender order, values its caller holds.
    """

    __slots__ = ("records", "src", "dst", "count", "header")

    def __init__(self, records, src, dst, count, header=0):
        if int(count.sum()) != len(records):
            raise ValueError("the slices must cover the records")
        self.records, self.src, self.dst = records, src, dst
        self.count, self.header = count, header

    def __len__(self):
        return len(self.count)

    def charges(self):
        """(senders, their words, receivers, their words): arrays, each
        side's machines in order of first send (see `_by_machine`)."""
        words = _slice_words(self.records, self.count) + self.header
        return _by_machine(self.src, words) + _by_machine(self.dst, words)


def _slice_words(recs, count):
    """The words of each of the consecutive slices of `count` records that
    cover the Records `recs`: count × arity when all-int, else its records'
    walked words, a selection walking each distinct record it picks once."""
    if recs._flat:
        return count * (recs.words() // len(recs) if recs else 0)
    if recs._pick is not None:
        base, idx = recs._pick
        seen, inv = np.unique(idx, return_inverse=True)
        cols = base[seen]
    else:
        cols, inv = recs.columns(), slice(None)
    per = _row_words(cols)[inv]
    return np.diff(np.concatenate(([0], np.cumsum(per)))[np.cumsum(count)], prepend=0)


_NONE = np.zeros(0, np.int64)
_NO_SENDS = Slices(_EMPTY, _NONE, _NONE, _NONE)


def _stable_order(key):
    """np.argsort(key, kind="stable") of a non-negative int64 array, as
    one plain sort of key * n + position when that fits in int64."""
    n = len(key)
    if n and int(key.max()) * n + n < 2 ** 63:
        return np.sort(key * n + np.arange(n)) % n
    return np.argsort(key, kind="stable")


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
    ({machine: words}, in order of first send), its budget violations,
    `changed`, the resident words of the machines whose words changed
    since the previous row, and `resident`, every machine's resident
    words in machine order (a new dict each read)."""

    __slots__ = ("round", "sent", "received", "changed", "violations", "_words")

    def __init__(self, round, sent, received, changed, violations, words):
        self.round, self.sent, self.received = round, sent, received
        self.changed, self.violations, self._words = changed, violations, words

    @property
    def resident(self) -> dict:
        return dict(enumerate(self._words.tolist()))


class Machine:
    """One machine: its id, its word budget and its state."""

    __slots__ = ("mid", "budget", "_tables")

    def __init__(self, mid, budget, batches, shards):
        # the cluster's batches and shard cache, not the cluster, so that
        # a cluster and its machines hold no reference cycle
        self.mid, self.budget, self._tables = mid, budget, (batches, shards)

    @property
    def state(self):
        """The read-only mapping from each key this machine stores to its
        Records, read off the cluster's batches."""
        (batches, cache), mid = self._tables, self.mid
        return MappingProxyType({key: _shards_of(batches, cache, key)[mid]
                                 for key, b in batches.items() if b.held[mid]})


def _shards_of(batches, cache, key) -> list:
    """Each machine's Records under `key` by machine id (None where it
    stores nothing): slices of its batch in `batches` (None when no
    machine stores it), built when first read and kept in `cache`."""
    shards = cache.get(key)
    if shards is None and key in batches:
        b = batches[key]
        if b.records._pick is not None:
            b.records.columns()  # gather once, then slice views
        ends = b.cut.tolist()
        shards = cache[key] = [None if not h else b.records[x:y] if x < y else _EMPTY
                               for x, y, h in zip([0] + ends, ends, b.held.tolist())]
    return shards


class _Batch(NamedTuple):
    """One state key: `records` in machine order, machine i holding
    records[cut[i-1]:cut[i]] (cut[0] = 0: the large machine holds none),
    and by machine id whether each machine stores the key at all and its
    resident words of it."""

    records: Records
    cut: np.ndarray
    held: np.ndarray
    words: np.ndarray


# The most records a `Cluster.segmented` group joins: a step's temporaries
# grow with its group (one group of all machines raised a sketch run's
# peak RSS by a quarter), and one call still serves many small machines.
SEGMENT_RECORDS = 512


class Cluster:
    """1 large + K small machines exchanging messages in synchronous rounds.

    Each state key is one batch (`_Batch`) of Records in machine order
    and its cut.  `local(fn, key, out)` runs a machine-local step between
    rounds, one call a machine; `segmented(fn, key, out)` runs one a group
    of machines, so that a step vectorized over records pays its fixed
    cost once a group while its memory stays bounded.  `store`, `drop`
    and `batch` store, pop and read a whole key.  `round(sends)` runs one
    communication round of one `Slices` batch: it meters per-machine
    traffic and resident state and records telemetry.  Budget violations
    raise in strict mode and are only logged otherwise.
    """

    def __init__(self, config: ClusterConfig, strict: bool = True):
        self.config, self.strict = config, strict
        self.small_ids = list(range(1, config.num_small + 1))
        budgets = [config.large_budget] + [config.small_budget] * len(self.small_ids)
        self._budget = np.array(budgets, np.int64)
        # each key's batch, and the words of the machines whose words
        # changed since the last round; kept by `_store` with `_resident`
        self._batches, self._changed = {}, {}
        self._resident = np.zeros(len(budgets), np.int64)
        self._shards = {}  # key -> each machine's Records, built when read
        self.machines = {mid: Machine(mid, b, self._batches, self._shards)
                         for mid, b in enumerate(budgets)}
        self.telemetry: list[RoundTelemetry] = []

    # -- basic accessors -------------------------------------------------

    @property
    def rounds_used(self) -> int:
        return len(self.telemetry)

    def rng(self, *tags) -> random.Random:
        """Deterministic substream for (seed, *tags)."""
        return random.Random(seed_hash(self.config.seed, *tags))

    # -- machine state ---------------------------------------------------

    def _store(self, key, records=None, cut=None, held=None, shards=None):
        """The one write of machine state: replaces the batch of `key` by
        the Records `records` cut by `cut`, `held` (default: every small
        machine) saying which machines store the key at all; or joins
        `shards`, each machine's Records (None: stores nothing); or, with
        neither, pops `key`.  It meters every machine's words in array
        operations (`_slice_words`) and writes each machine whose resident
        words change into `changed`, the delta since the last round."""
        if records is None and shards is not None:
            held = np.array([s is not None for s in shards])
            records = _join([s for s in shards if s is not None])
            cut = np.cumsum([0 if s is None else len(s) for s in shards])
        old = self._batches.pop(key, None)
        self._shards[key] = shards
        words = 0
        if records is not None and (held is None or held.any()):
            if held is None:
                held = np.arange(len(cut)) > 0
            cut.flags.writeable = held.flags.writeable = False
            words = _slice_words(records, np.diff(cut, prepend=0))
            self._batches[key] = _Batch(records, cut, held, words)
        delta = words if old is None else words - old.words
        moved = np.flatnonzero(delta)
        if len(moved):
            self._resident += delta
            self._changed.update(zip(moved.tolist(), self._resident[moved].tolist()))

    def batch(self, key):
        """(records, cut): the Records every small machine stores under
        `key`, in machine order, machine i holding records[cut[i-1]:cut[i]]
        (cut[0] = 0); empty when no machine stores the key."""
        b = self._batches.get(key)
        return (b.records, b.cut) if b else (_EMPTY, np.zeros_like(self._resident))

    def store(self, key, records, cut):
        """Every small machine i stores records[cut[i-1]:cut[i]] of the
        Records `records` under `key` (`cut` by machine id, cut[0] = 0)."""
        self._store(key, records, np.asarray(cut, np.int64))

    def drop(self, *keys):
        """Each small machine discards what it stores under `keys`."""
        for key in keys:
            self._store(key)

    # -- local steps and the round barrier -------------------------------

    def local(self, fn, key, out=None) -> dict:
        """One machine-local step: `fn(i, records)` on each small machine i
        that holds records under `key`, in ascending order, `records`
        being its slice of the batch.  With `out`, each result is stored
        under `out` as Records (see `as_records`), and a None result pops
        `out`; an idle machine runs nothing, and pops `out` when `out` is
        not `key`.  Any other result raises TypeError naming `out`, before
        anything is stored.  Returns {i: result} over the machines that ran.
        """
        cut = self.batch(key)[1]
        shards = _shards_of(self._batches, self._shards, key) or [None] * len(cut)
        busy = (np.flatnonzero(np.diff(cut)) + 1).tolist()
        results = {mid: fn(mid, shards[mid]) for mid in busy}
        if out is not None:
            parts = list(shards) if out == key else [None] * len(cut)
            try:
                for mid, value in results.items():
                    parts[mid] = None if value is None else as_records(value)
            except TypeError as err:
                raise TypeError(f"state key {out!r}: {err}") from None
            self._store(out, shards=parts)
        return results

    def segmented(self, fn, key, out=None):
        """A local step, one call per group of consecutive small machines
        that hold records under `key`, at most SEGMENT_RECORDS records a
        group (a larger machine is a group of its own): `fn(cut, columns)`
        gets the group's columns, machine j holding columns[cut[j-1]:cut[j]]
        (from 0).  Without `out`, fn returns one result per machine, and it
        returns {i: result} as `local` does.  With `out`, fn returns the
        group's (cut, columns), stored under `out` as `local` stores."""
        records, cut = self.batch(key)
        busy = np.flatnonzero(np.diff(cut)) + 1
        ends = np.concatenate(([0], cut[busy]))
        cols, got, a = records.columns(), [], 0
        while a < len(busy):  # the group of machines a..b-1
            b = int(np.searchsorted(ends, ends[a] + SEGMENT_RECORDS, "right")) - 1
            b = max(a + 1, b)
            got.append(fn(ends[a + 1:b + 1] - ends[a], cols[ends[a]:ends[b]]))
            a = b
        if out is None:
            return dict(zip(busy.tolist(), chain.from_iterable(got), strict=True))
        held = (self._batches[key].held.copy() if out == key and key in self._batches
                else np.zeros(len(cut), bool))
        held[busy] = True
        size = np.zeros(len(cut), np.int64)
        if got:
            size[busy] = np.concatenate([np.diff(c, prepend=0) for c, _ in got])
            records = _of_columns(np.concatenate([c for _, c in got]), records._flat)
        self._store(out, records, np.cumsum(size), held)

    def round(self, sends):
        """One round of the `Slices` batch `sends` (any other value raises
        TypeError), charged per sender and receiver in bulk."""
        if type(sends) is not Slices:
            raise TypeError(f"a round sends one Slices batch, not {type(sends).__name__}")
        src, sw, dst, dw = sends.charges()
        sent = dict(zip(src.tolist(), sw.tolist()))
        received = dict(zip(dst.tolist(), dw.tolist()))
        budget = self._budget.tolist()
        violations = [(mid, "SendBudget") for mid, w in sent.items() if w > budget[mid]]
        violations += [(mid, "RecvBudget") for mid, w in received.items()
                       if w > budget[mid]]
        over = np.flatnonzero(self._resident > self._budget)
        violations.extend((mid, "StateBudget") for mid in over.tolist())

        changed = self._changed.copy()
        self._changed.clear()
        self.telemetry.append(RoundTelemetry(len(self.telemetry), sent, received, changed,
                                             violations, self._resident.copy()))
        if violations and self.strict:
            raise BudgetError(
                "budget violations: "
                + ", ".join(f"{machine_name(mid)}:{kind}" for mid, kind in violations)
            )

    def empty_round(self):
        self.round(_NO_SENDS)


def init_cluster(config: ClusterConfig, strict: bool = True) -> Cluster:
    return Cluster(config, strict=strict)


def distribute_edges(cluster: Cluster, edges, placement="seeded", shard_size=None):
    """Place edge records on the small machines (initial input placement).

    adversarial: pack in input order, `shard_size` per machine;
    roundrobin: stripe; seeded: permute with the global seed, then stripe.
    """
    K = len(cluster.small_ids)
    records = Records([tuple(e) for e in edges])
    rec_words = records.words()
    if rec_words > K * cluster.config.small_budget:
        raise CapacityError(
            f"{rec_words} edge words exceed aggregate small memory "
            f"{K * cluster.config.small_budget}"
        )
    n = len(records)
    order = np.arange(n)
    if placement == "adversarial":
        per = shard_size if shard_size is not None else math.ceil(n / K)
        if n > per * K:
            raise CapacityError("adversarial shard size too small for machine count")
        counts = np.clip(n - per * np.arange(K), 0, per)
    elif placement in ("roundrobin", "seeded"):
        if placement == "seeded":
            order = order.tolist()
            cluster.rng("placement").shuffle(order)
            order = np.array(order, np.int64)
        # machine k holds order[k::K]
        order = order[_stable_order(np.arange(n) % K)]
        counts = np.bincount(np.arange(n) % K, minlength=K)
    else:
        raise ConfigError(f"unknown placement {placement!r}")
    placed = records.take(order)
    cut = np.concatenate(([0], np.cumsum(counts)))
    over = np.flatnonzero(_slice_words(placed, counts) > cluster.config.small_budget) + 1
    if len(over):
        raise CapacityError(f"shard for {machine_name(int(over[0]))} exceeds its budget")
    cluster._store("E", placed, cut)


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
