"""Cluster model: budgets, metering, violations."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetmpc import mst, primitives, simcore
from hetmpc.graphio import generate_graph
from hetmpc.labels import FlowLabel
from hetmpc.simcore import (
    LARGE,
    SEGMENT_RECORDS,
    BudgetError,
    CapacityError,
    Cluster,
    ClusterConfig,
    ConfigError,
    Packed,
    Records,
    Slices,
    as_records,
    distribute_edges,
    init_cluster,
    machine_name,
    payload_words,
    telemetry_json,
)

from meter_reference import reference_words  # beside this file
from sort_reference import place  # sets up machine state, beside this file


def test_budget_formulas_frozen():
    cfg = ClusterConfig(n=16, m=64, gamma=0.5, polylog_c=1, polylog_e=1)
    assert cfg.word_bits == 4
    assert cfg.num_small == 16
    assert cfg.small_budget == 16
    assert cfg.large_budget == 64


def test_superlinear_budget_frozen():
    cfg = ClusterConfig(
        n=16, m=64, gamma=0.5, polylog_c=1, polylog_e=1, f_exp=Fraction(1, 4)
    )
    assert cfg.large_budget == 128


def test_config_validation():
    with pytest.raises(ConfigError):
        ClusterConfig(n=1, m=4)
    with pytest.raises(ConfigError):
        ClusterConfig(n=16, m=0)
    with pytest.raises(ConfigError):
        ClusterConfig(n=16, m=4, gamma=1.0)
    with pytest.raises(ConfigError):
        ClusterConfig(n=16, m=4, polylog_c=0)


def test_payload_words():
    # one field of a record: a scalar is a word, an object its words();
    # containers are not fields and are not walked
    assert payload_words(7) == payload_words(True) == payload_words(None) == 1
    assert payload_words("ab") == 1
    assert payload_words(Packed(0b1011, bits=40, word_bits=8)) == 5
    assert payload_words(Records([(1, 2, 3), (4, 5, 6)])) == 6
    for payload in (1.5, (1, 2, 3), [(1, 2, 3), (4, 5, 6)], [1, [2, (3, 0.5)]],
                    ((1, 2), 3.0), {1: [0.5]}, {1: 2}):
        with pytest.raises(TypeError):
            payload_words(payload)


def record_words(records):
    """reference_words of records whose fields are scalars or objects with
    words(): a record with a nested tuple or list field is unmeterable."""
    if any(isinstance(x, (tuple, list)) for r in records for x in r):
        raise TypeError("a nested field")
    return reference_words(records)


_keys = st.one_of(st.integers(), st.booleans(), st.none(), st.text(max_size=3),
                  st.tuples(st.integers(), st.integers()))
_leaves = st.one_of(
    st.integers(-(1 << 70), 1 << 70), st.booleans(), st.none(), st.text(max_size=3),
    st.builds(Packed, st.integers(0, 255), st.integers(1, 200), st.integers(1, 16)),
    st.floats(allow_nan=False),
)
_payloads = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.lists(st.integers(), max_size=6).map(tuple),  # flat int records
        st.dictionaries(_keys, inner, max_size=3),
    ),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(_payloads)
def test_payload_words_matches_reference(payload):
    # a field (a leaf) is charged as the recursive walk charges it, and a
    # container is refused: it travels as the rows of a record batch
    try:
        expected = reference_words(payload)
    except TypeError:  # a float somewhere in the payload
        expected = None
    if expected is None or isinstance(payload, (tuple, list, dict)):
        with pytest.raises(TypeError):
            payload_words(payload)
    else:
        assert payload_words(payload) == expected


@st.composite
def _flat_batch(draw, arity=None, min_size=0):
    """A list of flat int tuples of one arity."""
    if arity is None:
        arity = draw(st.integers(0, 5))
    field = st.integers(-(1 << 70), 1 << 70)
    return draw(st.lists(st.tuples(*[field] * arity), min_size=min_size,
                         max_size=20))


@settings(max_examples=200, deadline=None)
@given(_flat_batch(), _flat_batch(), st.integers(-25, 25), st.integers(-25, 25))
def test_records_words_match_walk(a, b, i, j):
    ra, rb = Records(a), Records(b)
    assert ra == tuple(a) and type(ra) is Records
    assert payload_words(ra) == ra.words() == reference_words(list(a))
    # the slices that het_sort routes
    piece = ra[i:j]
    assert type(piece) is Records
    assert payload_words(piece) == reference_words(a[i:j])
    # concatenation: Records of one arity; batches of two arities do not
    # join
    if len({len(r) for r in a + b}) > 1:
        with pytest.raises(ValueError):
            simcore._join([ra, piece, rb])
        return
    joined = simcore._join([ra, piece, rb])
    assert type(joined) is Records and list(joined) == a + a[i:j] + b
    assert payload_words(joined) == reference_words(a + a[i:j] + b)


INT64 = st.integers(-2**63, 2**63 - 1)


@st.composite
def _two_forms(draw):
    """(records, Records from their tuples, Records from their columns):
    fields small, any int64, or now and then beyond int64 (no int64
    matrix then: the columns are an object array of the ints)."""
    arity = draw(st.integers(0, 5))
    field = st.one_of(st.integers(-3, 3), INT64, st.integers(2**63, 2**70),
                      st.integers(-2**70, -2**63 - 1))
    records = draw(st.lists(st.tuples(*[field] * arity), max_size=20))
    from_tuples = Records(records)
    cols = from_tuples.columns()
    assert cols is from_tuples.columns()  # built once, then kept
    wide = any(not -2**63 <= x < 2**63 for r in records for x in r)
    assert cols.shape == (len(records), arity if records else 0)
    assert cols.dtype == (object if wide else np.int64)
    from_cols = (simcore._of_columns(cols.copy()) if wide
                 else as_records(np.array(cols)))
    return records, from_tuples, from_cols


@settings(max_examples=200, deadline=None)
@given(_two_forms(), st.data())
def test_records_forms_agree(forms, data):
    records, a, b = forms
    assert type(b) is Records
    n = len(records)
    for batch in (a, b):
        # the tuple view, equality with tuples, metering
        assert batch == tuple(records) and tuple(records) == batch
        assert list(batch) == records and len(batch) == n
        assert batch != list(records) and hash(batch) == hash(tuple(records))
        assert batch.words() == payload_words(batch) == reference_words(records)
        if records:
            assert batch[0] == records[0] and batch[-1] == records[-1]
            assert all(type(x) is int for x in batch[-1])
        # slices and selections of either form are Records of the same
        # records
        i, j = data.draw(st.integers(-25, 25)), data.draw(st.integers(-25, 25))
        piece = batch[i:j]
        assert type(piece) is Records and piece == tuple(records[i:j])
        assert piece.words() == reference_words(records[i:j])
        picks = data.draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=10)) if n else []
        chosen = simcore._of_columns(batch.columns()[picks])
        assert chosen == tuple(records[k] for k in picks)
        assert chosen.words() == reference_words([records[k] for k in picks])
    assert a == b and hash(a) == hash(b)
    for batch in (a, b):  # the columns cannot be changed in place
        with pytest.raises(ValueError):
            batch.columns()[:1] = 0
    # concatenations mixing the forms
    i = data.draw(st.integers(0, n))
    joined = simcore._join([a[:i], b[i:], b, simcore._EMPTY, a])
    assert type(joined) is Records and list(joined) == records * 3
    assert joined.words() == 3 * reference_words(records)
    # Slices charges: each form charges each send its header and the
    # walked words of its slice
    cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=4)))
    bounds = [0] + cuts + [n]
    count = np.diff(bounds)
    src = np.arange(1, len(count) + 1)
    dst = src[::-1].copy()
    per = [1 + reference_words(records[s:e]) for s, e in zip(bounds, bounds[1:])]
    want = [src.tolist(), per, dst.tolist(), per]
    for r in (a, b):
        assert [x.tolist() for x in Slices(r, src, dst, count, header=1).charges()] == want


@pytest.mark.parametrize("records", [
    [(1, 2), (3,)], [(1,), (2, 3)], [[1, 2]], [(1, 2), [3, 4]], [1, 2],
    [(1,), 2], [None], [(), (1,)], ["ab"], [(1, "a"), (2,)],
])
def test_records_constructor_rejects(records):
    # mixed arities, and records that are not tuples (lists, ints, None,
    # strings): not a record batch, so as_records refuses it too
    with pytest.raises(TypeError):
        Records(records)
    with pytest.raises(TypeError):
        as_records(records)


@pytest.mark.parametrize("records", [
    [(True, 1)], [(1, False)], [(1.0, 2)], [(1, 2.5)], [((1, 2), 3)],
    [(1, (2,))], [(1, None)], [(1, "ab"), (2, "")],
])
def test_records_with_other_fields_are_walked(records):
    # bools, floats, nested tuples, None and strings: Records that are not
    # all-int, whose columns are an object array of the fields as given,
    # charged the words of their fields (a float or a nested tuple is
    # unmeterable)
    batch = as_records(records)
    assert type(batch) is Records and batch == tuple(records)
    assert batch.columns().dtype == object
    picked = batch.take(np.arange(len(records)))
    assert picked == batch and [type(x) for x in picked[0]] == list(map(type, records[0]))
    if any(type(x) in (float, tuple) for r in records for x in r):
        with pytest.raises(TypeError):
            payload_words(batch)
    else:
        assert payload_words(batch) == payload_words(picked) == reference_words(records)


_bad_fields = st.one_of(
    st.floats(allow_nan=False), st.booleans(), st.none(), st.text(max_size=2),
    st.tuples(st.integers()), st.builds(Packed, st.integers(0, 7),
                                        st.integers(1, 9), st.integers(1, 4)),
)


@settings(max_examples=200, deadline=None)
@given(_flat_batch(arity=3, min_size=1), st.data())  # one record is one arity
def test_only_record_batches_become_records(batch, data):
    pos = data.draw(st.integers(0, len(batch)))
    kind = data.draw(st.sampled_from(["field", "arity", "list"]))
    if kind == "field":
        bad = list(data.draw(st.tuples(*[st.integers()] * 3)))
        bad[data.draw(st.integers(0, 2))] = data.draw(_bad_fields)
        bad = tuple(bad)
    elif kind == "arity":
        bad = tuple(data.draw(st.lists(st.integers(), max_size=5).filter(
            lambda xs: len(xs) != 3)))
    else:
        bad = data.draw(st.lists(st.integers(), min_size=3, max_size=3))
    records = batch[:pos] + [bad] + batch[pos:]
    if kind != "field":  # not a record batch: refused
        with pytest.raises(TypeError):
            Records(records)
        with pytest.raises(TypeError):
            as_records(records)
        return
    got = as_records(records)
    # a field that is not an int: Records, walked when metered
    assert type(got) is Records and got == tuple(records)
    joined = simcore._join([Records(batch), got])
    assert type(joined) is Records and joined == tuple(batch + records)
    try:
        expected = record_words(records)
    except TypeError:  # a float or a nested tuple
        with pytest.raises(TypeError):
            payload_words(got)
    else:
        assert payload_words(got) == expected
        assert payload_words(joined) == reference_words(batch) + expected


def test_machine_ids_are_ints():
    cl = init_cluster(ClusterConfig(n=16, m=64, gamma=0.5))
    assert LARGE == 0 and LARGE in cl.machines
    assert cl.small_ids == list(range(1, 17)) == sorted(cl.small_ids)
    assert list(cl.machines) == sorted(cl.machines)
    assert [machine_name(m) for m in (0, 1, 16)] == ["L", "S1", "S16"]


def test_resident_words_follow_load_and_unload():
    cl = init_cluster(ClusterConfig(n=16, m=64, gamma=0.5))
    edge = [(1, 2, 3)]
    steps = [
        lambda: place(cl, "E", {1: edge}),
        lambda: place(cl, "E", {2: edge}),
        lambda: place(cl, "X", {1: [(4, "ab")]}),  # a str field: walked
        lambda: place(cl, "E", dict.fromkeys((1, 2), edge + [(7, 8, 9)])),
        lambda: place(cl, "E", {1: edge + [(7, 8, 9)]}),  # same words again
        lambda: place(cl, "X", {1: None}),
        lambda: place(cl, "missing", {1: None}),
        lambda: cl.local(lambda i, es: [(Packed(0, bits=40, word_bits=4), None, "s")],
                         "E", "P"),
        lambda: (place(cl, "E", {1: []}), cl.local(lambda i, es: es, "E", "P")),
        lambda: cl.drop("E", "P"),
    ]
    for step in steps:
        step()
        cl.empty_round()
        fresh = {mid: sum(payload_words(v) for v in mach.state.values())
                 for mid, mach in cl.machines.items()}
        assert cl.telemetry[-1].resident == fresh
    assert cl.telemetry[3].resident[1] == 6 + 2  # E re-metered when stored anew
    assert cl.telemetry[5].resident[1] == 6
    assert [cl.telemetry[r].resident[1] for r in (7, 8, 9)] == [6 + 12, 0, 0]
    assert cl.telemetry[8].resident[2] == 6 + 6  # P a copy of E


def _batch(key, value):
    """Records of the ints of `value`, with an int (key A), a str (key B)
    or a Packed or flow label (key C) beside each."""
    def other(j, x):
        if key == "A":
            return j
        if key == "B":
            return "s" * (j % 3)
        if j % 2:
            return Packed(x, bits=1 + j * 5, word_bits=4)
        return FlowLabel(vertex=j, entries=[(0, 0, x)] * j, component=0)
    return Records([(x, other(j, x)) for j, x in enumerate(value)])


def _sortable(key, value, mid):
    """Records (x, mid, j, field) of the ints x of `value`, the field as
    in `_batch`: (x, mid, j) differs between any two of them, so a sort
    never compares the fields."""
    return Records([(x, mid, j, r[1]) for j, (x, r) in enumerate(zip(value, _batch(key, value)))])


def _every_other(cut, cols):
    """A segmented step that stores every other record of each machine."""
    keep = np.arange(len(cols)) % 2 == 0
    return np.cumsum(keep)[cut - 1], cols[keep]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["store", "pop", "transient", "local",
                                           "unload", "load", "segmented", "sort",
                                           "place", "barrier"]),
                          st.integers(1, 4), st.sampled_from("ABC"),
                          st.lists(st.integers(), max_size=8)),
                max_size=30),
       st.booleans(), st.randoms(use_true_random=False))
def test_resident_words_match_fresh_walk(ops, tiny, rnd):
    # tiny: 16-word small machines on a tolerant cluster, so machines go
    # over budget and back; one left over budget and untouched is reported
    # in every later round
    cfg = ClusterConfig(n=16, m=64, gamma=0.5, polylog_c=1 if tiny else 128,
                        polylog_e=1 if tiny else 2)
    cl = init_cluster(cfg, strict=False)
    snapshots, read = [], []  # each row's fresh walk, and its table as read
    deliver = cl.round

    def checked(sends):
        # after every round, the het_sort rounds among them: its row reads
        # as a fresh walk of every machine's state
        inbox = deliver(sends)
        fresh = {m: sum(payload_words(v) for v in mm.state.values())
                 for m, mm in cl.machines.items()}
        snapshots.append(fresh)
        row = cl.telemetry[-1]
        read.append(row.resident)
        assert row.resident == fresh and list(row.resident) == sorted(fresh)
        assert [v for v in row.violations if v[1] == "StateBudget"] == [
            (m, "StateBudget") for m in sorted(fresh) if fresh[m] > cl.machines[m].budget]
        return inbox

    cl.round = checked
    for op, mid, key, value in ops:
        # small machine mid stores, or pops, Records of its own (see
        # _batch: their fields are walked under keys B and C)
        if op == "store":
            place(cl, key, {mid: _batch(key, value)})
        elif op == "pop":
            place(cl, key, {mid: None})
        elif op == "transient":  # store and pop one key between barriers
            place(cl, "T", {mid: _batch(key, value)})
            place(cl, "T", {mid: None})
        elif op == "local":
            # small machine mid pops key, the other odd ones store their
            # records and a copy of the first, and the even ones store
            # the ints of value as records of two fields
            cl.local(lambda i, recs: None if i == mid else
                     list(recs) + [recs[0]] if i % 2 else [(x, i) for x in value],
                     key, key)
        elif op == "unload":  # small machines 1..mid+1 pop key
            place(cl, key, dict.fromkeys(range(1, mid + 2)))
        elif op == "load":
            # the small machines store key in one batch, machines 1..mid+1
            # consecutive pairs of its records: Records built from tuples
            # (key A), Records that end in a record with a str (key B), or
            # Records selected from columns (key C)
            recs = [(x, j) for j, x in enumerate(value)]
            ordered = {"A": Records(recs), "B": Records(recs + [(0, "s")]),
                       "C": Records(recs).take(np.arange(len(recs)))}[key]
            cl.store(key, ordered, [min(2 * min(i, mid + 1), len(ordered))
                                    for i in range(len(cl.small_ids) + 1)])
        elif op == "segmented":  # every other record of key, stored under S
            cl.segmented(_every_other, key, "S")
        elif op == "sort":
            # machine mid alone holds records under R (their fields as
            # under key), and het_sort routes them over every machine
            cl.drop("R")
            place(cl, "R", {mid: _sortable(key, value, mid)})
            primitives.het_sort(cl, "R")
        elif op == "place":  # the edges (x, field) placed afresh under E
            try:
                distribute_edges(cl, list(_batch(key, value)), placement="roundrobin")
            except CapacityError:  # a shard over budget: nothing is stored
                pass
        cl.empty_round()
        if op == "transient" and len(cl.telemetry) > 1:
            assert cl.telemetry[-1].resident == cl.telemetry[-2].resident
    # rows read in any order, and again after later rounds, read as their
    # fresh walks did; a table read earlier is not changed by later reads
    order = list(range(len(cl.telemetry)))
    rnd.shuffle(order)
    for r in order + order[::-1]:
        got = cl.telemetry[r].resident
        assert got == snapshots[r] and list(got) == sorted(snapshots[r])
    assert read == snapshots


def test_local_step():
    # fn runs exactly on the machines that hold records under the key, in
    # ascending order; the results have no idle entries
    cl = init_cluster(ClusterConfig(n=16, m=64, gamma=0.5))
    place(cl, "E", {1: [(1, 5)], 2: [(1, 2)], 3: [(3, 4)], 4: [(4, 4)],
                    5: Records(),  # holds nothing: idle
                    6: []})  # idle too
    assert cl.machines[1].state["E"] == ((1, 5),)
    assert type(cl.machines[1].state["E"]) is Records
    label = FlowLabel(vertex=3, entries=[(0, 0, 7)], component=0)
    calls = []

    def fn(i, recs):
        calls.append((i, list(recs)))
        if i == 1:
            return [(1, 5), (1, 6)]  # conforms: stored as Records
        if i == 2:
            return None  # pops the key
        if i == 3:
            return [r[:1] + (label,) for r in recs]  # carries a label: walked
        return np.array([[i, i]])  # int64 columns: stored as Records

    got = cl.local(fn, "E", "E")
    assert calls == [(1, [(1, 5)]), (2, [(1, 2)]), (3, [(3, 4)]), (4, [(4, 4)])]
    assert list(got) == [1, 2, 3, 4]
    assert got[1] == [(1, 5), (1, 6)] and got[2] is None
    stored = {i: m.state.get("E") for i, m in cl.machines.items()}
    assert type(stored[1]) is Records and stored[1] == ((1, 5), (1, 6))
    assert "E" not in cl.machines[2].state
    assert type(stored[3]) is Records and stored[3] == ((3, label),)
    assert type(stored[4]) is Records and stored[4] == ((4, 4),)
    # an idle machine keeps what it stores under the key when out is key
    assert [type(stored[i]) for i in (5, 6)] == [Records, Records]
    assert not stored[6] and stored[7] is None
    cl.empty_round()
    assert cl.telemetry[-1].resident[1] == 4
    assert cl.telemetry[-1].resident[2] == 0
    labelled = 1 + payload_words(label)  # the label's words too
    assert cl.telemetry[-1].resident[3] == labelled
    # without an output key nothing is stored; only busy machines report
    assert cl.local(lambda i, recs: len(recs), "E") == {1: 2, 3: 1, 4: 1}
    # with another output key, an idle machine's output is popped
    place(cl, "X", dict.fromkeys((5, 7, 8), [(9, 9)]))
    calls.clear()
    got = cl.local(fn, "E", "X")
    assert [i for i, _ in calls] == [1, 3, 4] and list(got) == [1, 3, 4]
    assert [i for i in cl.small_ids if "X" in cl.machines[i].state] == [1, 3, 4]
    cl.empty_round()
    assert cl.telemetry[-1].changed == {1: 8, 3: 2 * labelled, 4: 4, 5: 0, 7: 0, 8: 0}


def test_segmented_step_groups_busy_machines():
    # consecutive busy machines share a call while their records fit one
    # group; idle machines are skipped, a machine above the bound runs
    # alone, and every busy machine gets the result of its own segment
    cl = init_cluster(ClusterConfig(n=16, m=64, gamma=0.5))
    sizes = {1: 3, 2: 0, 3: SEGMENT_RECORDS - 3, 4: 10,
             5: SEGMENT_RECORDS + 1, 7: 1}
    place(cl, "E", {i: np.full((k, 2), i, np.int64) for i, k in sizes.items()})
    calls = []

    def fn(cut, cols):
        calls.append(cut.tolist())
        starts = [0] + cut[:-1].tolist()
        return [set(cols[a:b, 0].tolist()) | {b - a}
                for a, b in zip(starts, cut.tolist())]

    got = cl.segmented(fn, "E")
    assert calls == [[3, SEGMENT_RECORDS], [10], [SEGMENT_RECORDS + 1], [1]]
    assert got == {i: {i, k} for i, k in sizes.items() if k}
    with pytest.raises(ValueError):  # one arity a key
        place(cl, "E", {5: np.array([[1, 2, 3]])})
    assert cl.segmented(fn, "X") == {}


def test_empty_round_all_zero():
    cl = init_cluster(ClusterConfig(n=16, m=64, gamma=0.5))
    cl.empty_round()
    t = cl.telemetry[0]
    assert t.sent == {} and t.received == {} and t.violations == []


def _one_send(src, dst, record):
    """A `Slices` batch of one send: the one record from src to dst."""
    return Slices(Records([record]), np.array([src]), np.array([dst]), np.array([1]))


def test_send_overflow_strict_raises():
    cfg = ClusterConfig(n=16, m=64, gamma=0.5, polylog_c=1, polylog_e=1)
    cl = init_cluster(cfg)
    src = 1
    with pytest.raises(BudgetError):
        cl.round(_one_send(src, LARGE, tuple(range(17))))


def test_send_overflow_tolerant_logs_one_violation():
    cfg = ClusterConfig(n=16, m=64, gamma=0.5, polylog_c=1, polylog_e=1)
    cl = init_cluster(cfg, strict=False)
    src = 1
    cl.round(_one_send(src, LARGE, tuple(range(17))))
    assert cl.telemetry[0].violations == [(src, "SendBudget")]


def test_traffic_conservation():
    cl = init_cluster(ClusterConfig(n=16, m=64, gamma=0.5))
    a, b = 1, 2
    t5 = (1, 2, 3, 4, 5)
    cl.round(Slices(Records([t5, t5]), np.array([a, b]), np.array([b, a]),
                    np.array([1, 1])))
    t = cl.telemetry[0]
    assert sum(t.sent.values()) == sum(t.received.values()) == 10


@pytest.mark.parametrize("sends", [[], [(1, LARGE, (1, 2))], (), {}, None,
                                   Records([(1, 2)])])
def test_round_takes_only_slices(sends):
    # one send form: a list of (src, dst, payload) triples, or anything
    # else that is not a Slices batch, raises before anything is metered
    cl = init_cluster(ClusterConfig(n=16, m=64, gamma=0.5))
    with pytest.raises(TypeError, match=type(sends).__name__):
        cl.round(sends)
    assert cl.telemetry == []


def test_one_batch_charged_per_send():
    # one batch sent to three receivers, each send a selection of all of
    # it, is charged once a send; so is one batch sent three times to one
    # receiver, and so are its object fields, walked once a record
    cl = init_cluster(ClusterConfig(n=16, m=64, gamma=0.5))
    for shared in (Records([(1, 2, 3), (4, 5, 6)]),
                   Records([(1, Packed(0, bits=40, word_bits=8)), (7, "s")])):
        w = reference_words(shared)
        every = np.tile(np.arange(len(shared)), 3)
        for dst in ([1, 2, 3], [1, 1, 1]):
            cl.round(Slices(shared.take(every), np.full(3, LARGE), np.array(dst),
                            np.full(3, len(shared))))
            t = cl.telemetry[-1]
            assert t.sent == {LARGE: 3 * w}
            want = {d: w * dst.count(d) for d in dst}
            assert t.received == want


def test_state_budget_metered():
    cfg = ClusterConfig(n=16, m=64, gamma=0.5, polylog_c=1, polylog_e=1)
    cl = init_cluster(cfg, strict=False)
    place(cl, "E", {1: [(x,) for x in range(17)]})
    cl.empty_round()
    assert (1, "StateBudget") in cl.telemetry[0].violations


def _four_machine_cluster():
    # K = ceil(m / n^gamma) = ceil(8 / 2) = 4
    return init_cluster(ClusterConfig(n=4, m=8, gamma=0.5))


def test_distribute_roundrobin_even():
    cl = _four_machine_cluster()
    edges = [(i, (i + 1) % 4) for i in range(8)]
    distribute_edges(cl, edges, placement="roundrobin")
    assert [len(cl.machines[i].state["E"]) for i in range(1, 5)] == [2, 2, 2, 2]
    assert all(type(cl.machines[i].state["E"]) is Records for i in range(1, 5))


def test_distribute_adversarial_packing():
    cl = _four_machine_cluster()
    edges = [(i, (i + 1) % 4) for i in range(8)]
    distribute_edges(cl, edges, placement="adversarial", shard_size=3)
    assert [len(cl.machines[i].state["E"]) for i in range(1, 5)] == [3, 3, 2, 0]


def test_distribute_seeded_deterministic():
    edges = [(i, (i + 1) % 4) for i in range(8)]
    shards = []
    for _ in range(2):
        cl = _four_machine_cluster()
        distribute_edges(cl, edges, placement="seeded")
        shards.append([cl.machines[i].state["E"] for i in range(1, 5)])
    assert shards[0] == shards[1]


def test_rng_substreams_deterministic():
    cl1 = init_cluster(ClusterConfig(n=16, m=64, seed=5))
    cl2 = init_cluster(ClusterConfig(n=16, m=64, seed=5))
    assert cl1.rng("a", 1).random() == cl2.rng("a", 1).random()
    assert cl1.rng("a", 1).random() != cl1.rng("a", 2).random()


def test_telemetry_json_shape():
    cl = init_cluster(ClusterConfig(n=16, m=64, gamma=0.5))
    cl.round(_one_send(1, LARGE, (1, 2)))
    doc = telemetry_json(cl)
    assert doc["rounds_used"] == 1
    assert doc["violations"] == []
    row = doc["rounds"][0]["traffic"]
    assert {"machine": "S1", "sent": 2, "received": 0, "resident": 0} in row


def _reference_telemetry_json(cluster):
    """The export as it was written before it named each machine once."""
    rounds = []
    for t in cluster.telemetry:
        machines = sorted(set(t.sent) | set(t.received))
        rounds.append(
            {
                "round": t.round,
                "traffic": [
                    {
                        "machine": machine_name(mid),
                        "sent": t.sent.get(mid, 0),
                        "received": t.received.get(mid, 0),
                        "resident": t.resident.get(mid, 0),
                    }
                    for mid in machines
                ],
                "violations": [[machine_name(mid), kind] for mid, kind in t.violations],
            }
        )
    return {
        "rounds_used": cluster.rounds_used,
        "rounds": rounds,
        "violations": [
            [t.round, machine_name(mid), kind]
            for t in cluster.telemetry
            for mid, kind in t.violations
        ],
    }


@pytest.mark.parametrize("polylog_c", [128, 1])
def test_telemetry_json_matches_reference_export(polylog_c):
    # a fixed MST run; at polylog_c = 1 it runs tolerant and logs violations
    g = generate_graph("gnm", 64, seed=1, m=512, weighted=True)
    cl = init_cluster(ClusterConfig(n=64, m=512, gamma=0.5, seed=1,
                                    polylog_c=polylog_c), strict=polylog_c > 1)
    mst.mst(cl, g)
    assert any(t.violations for t in cl.telemetry) == (polylog_c == 1)
    got = json.dumps(telemetry_json(cl))
    assert got == json.dumps(_reference_telemetry_json(cl))


def _by_machine_reference(mids, words):
    """{machine: summed words} in order of first send, by np.unique."""
    if not len(mids):
        return {}
    total = np.bincount(mids, weights=words).astype(np.int64)
    seen, first = np.unique(mids, return_index=True)
    seen = seen[np.argsort(first)].tolist()
    return dict(zip(seen, total[seen].tolist()))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 6), max_size=40), st.sampled_from([1, 2**40, 2**59]))
def test_stable_order_matches_stable_argsort(keys, scale):
    # small keys take the one plain sort of key * n + position; keys of
    # 2^59 and more overflow that and take the stable argsort
    key = np.array(keys, np.int64) * scale
    assert simcore._stable_order(key).tolist() == np.argsort(key, kind="stable").tolist()


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from(["unsorted", "ascending", "repeated", "single",
                                   "empty"]))
def test_first_send_order_matches_unique(data, shape):
    lo, hi = {"single": (1, 1), "empty": (0, 0)}.get(shape, (2, 30))
    mids = data.draw(st.lists(st.integers(0, 12), min_size=lo, max_size=hi))
    if shape == "ascending":
        mids.sort()
    elif shape == "repeated":
        mids = [mids[0]] * len(mids)
    # words of 0 included: such a machine keeps its entry
    words = data.draw(st.lists(st.integers(0, 3), min_size=len(mids),
                               max_size=len(mids)))
    mids, words = np.array(mids, np.int64), np.array(words, np.int64)
    seen, total = simcore._by_machine(mids, words)
    got = dict(zip(seen.tolist(), total.tolist()))
    want = _by_machine_reference(mids, words)
    assert list(got.items()) == list(want.items())
    assert sorted(got) == sorted(set(mids.tolist()))


def test_slices_charged_per_sender_and_receiver():
    cl = _four_machine_cluster()
    recs = Records([(1, 2, 3), (4, 5, 6), (7, 8, 9), (1, 1, 1)])
    src, dst = np.array([2, 1, 1]), np.array([3, 4, 3])
    batch = Slices(recs, src, dst, np.array([1, 2, 1]))
    assert len(batch) == 3
    assert cl.round(batch) is None  # the caller moves the records
    t = cl.telemetry[-1]
    assert list(t.sent.items()) == [(2, 3), (1, 9)]  # in order of first send
    assert list(t.received.items()) == [(3, 6), (4, 6)]
    # records with other fields are walked: 2 words, then 1 + 5
    cl.round(Slices(Records([(1, "ab"), ("c", Packed(0, bits=40, word_bits=8))]),
                    np.array([1, 1]), np.array([2, 3]), np.array([1, 1])))
    assert cl.telemetry[-1].sent == {1: 8}
    assert cl.telemetry[-1].received == {2: 2, 3: 6}
    with pytest.raises(ValueError):
        Slices(recs, src, dst, np.array([1, 1, 1]))
