"""Linear sketches, one-sparse decoding, and sketch connectivity."""

import functools
import math
import random
from bisect import bisect_left
from dataclasses import replace
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hetmpc import connectivity as cn
from hetmpc import oracles, primitives
from hetmpc.graphio import SimGraph, generate_graph
from hetmpc.simcore import SEGMENT_RECORDS, ClusterConfig, ConfigError, init_cluster

import sketch_reference  # Boruvka and the leaf pass, beside this file
import sort_reference  # its `place` sets up machine state, beside this file


def zero(keys):
    """The sketch of the zero vector: no occupied cell."""
    return cn._sum_partials([], keys)


def added(keys, *sketches):
    return cn._sum_partials(sketches, keys)


def decode_one(sketch, keys, r, n):
    """One edge, EMPTY or FAIL from instance r of one sketch: `_decode` on
    its one row, with every checksum evaluated rather than looked up."""
    count, idsum, check = sketch.dense()[r][:, None]
    return cn._decode(count, idsum, check, keys, r, n)[0]


def of_dense(count, idsum, check, keys):
    """The sketch whose (R, L) cells are count, idsum and check."""
    flat = np.stack((count, idsum, check), axis=-1).reshape(-1, 3)
    return cn.SketchPartial._of_flat(flat.astype(np.int64), keys)


def leaves_of(table, records, part=None):
    """One machine's leaf sketches of the directed `records`
    ({part: SketchPartial}, by one `_leaf_partials` call whose group is
    that machine), each record's part being its source or, when given,
    `part`."""
    if not records:
        return {}
    cols = np.array(records, np.int64)
    parts = (cols[:, 0],) if part is None else (np.full(len(cols), part),)
    return cn._leaf_partials(table, np.array([len(cols)]), cols, parts)[0]


def vertex_sketch(keys, table, n, v, edges):
    """Host-side sketch of vertex v's signed incidence vector."""
    records = [(v, b if a == v else a) for a, b in edges if v in (a, b)]
    return leaves_of(table, records).get(v, zero(keys))


def test_field_prime():
    assert cn.field_prime(4) == 257  # smallest prime above 4^4
    q = cn.field_prime(16)
    assert q > 16 ** 4 and cn._is_prime(q)
    assert not cn._is_prime(q - 1)


def test_field_prime_rejects_overflowing_n():
    assert cn.field_prime(1024) > 1024 ** 4
    cn.keys_from_seed(1, 1024)
    with pytest.raises(ConfigError):
        cn.field_prime(2048)
    with pytest.raises(ConfigError):
        cn.keys_from_seed(1, 2048)


def test_mulmod_exact_at_largest_accepted_n():
    n = 1217  # the last n whose field prime stays below 2^41
    q = cn.field_prime(n)
    with pytest.raises(ConfigError):
        cn.field_prime(n + 1)
    rng = random.Random(0)
    a = [rng.randrange(q) for _ in range(2000)] + [q - 1]
    b = [rng.randrange(q) for _ in range(2000)] + [q - 1]
    got = cn._mulmod(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64), q)
    assert [int(x) for x in got] == [x * y % q for x, y in zip(a, b)]


def horner(coeffs, x, q):
    acc = 0
    for c in coeffs:
        acc = (acc * x + int(c)) % q
    return acc


def test_poly_eval_exact_at_largest_accepted_n():
    # q < 2^41 and x < n^2 < 2^21 at the largest accepted n: every limb
    # product of `_poly_eval` stays below 2^42, every sum of t of them
    # below 2^47 (exact in float64), and each shift-and-`_mod` step below
    # 2^63, for the extreme coordinates and the largest coefficients
    n = 1217
    keys = cn.keys_from_seed(3, n)
    q, L, t = keys.q, keys.L, keys.t
    assert q < 1 << 41 and n * n < 1 << 21 and t == 22
    level = keys.level_coeffs.copy()
    level[0] = q - 1
    check = keys.check_coeffs.copy()
    check[1] = q - 1
    keys = replace(keys, level_coeffs=level, check_coeffs=check)
    rng = random.Random(1)
    xs = [0, 1, n * n - 1] + [rng.randrange(n * n) for _ in range(20)]
    block = np.vstack((level[0], check[:2]))
    got = cn._poly_eval(block, np.array(xs, dtype=np.int64), q)
    assert got.tolist() == [[horner(c, x, q) for x in xs] for c in block]
    # every coefficient q - 1, at n^2 - 1 and its neighbours, where the
    # high limbs of the coefficients and of x peak
    top = [n * n - 3, n * n - 2, n * n - 1]
    got = cn._poly_eval(np.full((2, t), q - 1, np.int64),
                        np.array(top, dtype=np.int64), q)
    assert got.tolist() == [[horner([q - 1] * t, x, q) for x in top]] * 2
    table = cn.CoordTable(keys, xs)
    assert table.coords.tolist() == sorted(xs)
    for i, x in enumerate(table.coords.tolist()):
        for r in range(keys.R):
            assert table.check[i, r] == horner(check[r], x, q)
            assert table.member[i, r].tolist() == [
                horner(level[r, l], x, q) << l < q for l in range(L)]


@st.composite
def poly_blocks(draw):
    """(n, coefficient block, coordinates): a (t,), (k, t) or (R, L, t)
    block of field elements, extremes included, and a coordinate list
    over [0, n^2) that may be empty and may repeat."""
    n = draw(st.sampled_from([2, 3, 8, 256, 1024, 1217]))
    q, t = cn.field_prime(n), cn.sketch_params(n)[2]
    lead = draw(st.sampled_from([(), (st.integers(1, 4),),
                                 (st.integers(1, 3), st.integers(1, 3))]))
    shape = tuple(draw(d) for d in lead) + (t,)
    coeff = st.one_of(st.integers(0, q - 1), st.sampled_from([0, 1, q - 1]))
    coeffs = draw(st.lists(coeff, min_size=math.prod(shape),
                           max_size=math.prod(shape)))
    coord = st.one_of(st.integers(0, n * n - 1), st.sampled_from([0, n * n - 1]))
    xs = draw(st.lists(coord, max_size=12))
    return n, np.array(coeffs, np.int64).reshape(shape), xs


@settings(max_examples=150, deadline=None)
@given(poly_blocks())
@example((1217, np.full((2, 3, 22), cn.field_prime(1217) - 1, np.int64),
          [0, 1217 ** 2 - 1]))
@example((2, np.ones(2, np.int64), []))
def test_poly_eval_matches_horner(case):
    n, coeffs, xs = case
    q = cn.field_prime(n)
    x = np.array(xs, dtype=np.int64)
    got = cn._poly_eval(coeffs, x, q)
    assert got.shape == coeffs.shape[:-1] + x.shape
    assert np.array_equal(got, sketch_reference.poly_eval(coeffs, x, q))
    want = [horner(c, v, q) for c in coeffs.reshape(-1, coeffs.shape[-1])
            for v in xs]
    assert got.reshape(-1).tolist() == want
    keys = cn.keys_from_seed(len(xs), n)
    table = cn.CoordTable(keys, xs)
    ref = sketch_reference.HornerCoordTable(keys, xs)
    assert np.array_equal(table.coords, ref.coords)
    assert np.array_equal(table.member, ref.member)
    assert np.array_equal(table.check, ref.check)


# int64 values of both signs, some near +-2^62, where Horner steps end
near_bound = st.one_of(
    st.integers(-2 ** 62, 2 ** 62),
    st.integers(2 ** 62 - 2 ** 20, 2 ** 62),
    st.integers(-2 ** 62, -2 ** 62 + 2 ** 20),
    st.integers(-10 ** 6, 10 ** 6),
)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 256, 1217]), st.lists(near_bound, min_size=1,
                                                   max_size=40))
def test_mod_matches_remainder(n, values):
    q = cn.field_prime(n)
    a = np.array(values, dtype=np.int64)
    want = (a % q).tolist()
    assert cn._mod(a, q) is a and a.tolist() == want
    # in place through a strided view, as on a block's checksum column
    block = np.array([values, values, values], dtype=np.int64).T
    cn._mod(block[:, 2], q)
    assert block[:, 2].tolist() == want and block[:, 1].tolist() == values


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 128 - 1), st.sampled_from([2, 8, 256, 1217]),
       st.integers(0, 300))
def test_draws_match_randrange(seed, n, k):
    # fails if a Python release changes how randrange(q) draws
    q = cn.field_prime(n)
    got, want = random.Random(seed), random.Random(seed)
    assert cn._draws(got, q, k) == [want.randrange(q) for _ in range(k)]
    assert got.getstate() == want.getstate()


@pytest.mark.parametrize("n", [8, 256])
def test_keys_match_per_coefficient_draws(n):
    keys = cn.keys_from_seed(12345, n)
    q, R, L, t = keys.q, keys.R, keys.L, keys.t
    exp = random.Random(12345)
    level = [[[exp.randrange(q) for _ in range(t)] for _ in range(L)]
             for _ in range(R)]
    check = [[exp.randrange(q) for _ in range(t)] for _ in range(R)]
    assert keys.level_coeffs.tolist() == level
    assert keys.check_coeffs.tolist() == check
    assert keys.word_bits == max(1, math.ceil(math.log2(n)))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1),
                                   st.integers(0, n - 1)), max_size=60))))
def test_pointer_jumped_roots_match_find(case):
    n, unions = case
    dsu = primitives.DSU(range(n))
    for a, b in unions:
        dsu.union(a, b)
    got = cn._roots(dsu, n).tolist()  # before find() compresses any path
    assert got == [dsu.find(v) for v in range(n)]


@st.composite
def sketched_graphs(draw):
    """(n, edges, key seed, cell perturbations) of a small graph."""
    n = draw(st.integers(2, 20))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=30))
    seed = draw(st.integers(0, 2 ** 32))
    # a few cells overwritten, so that some phases fail to decode
    noise = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, 99),
                                    st.integers(0, 2), st.integers(0, 99),
                                    st.integers(-50, 50)), max_size=3))
    return n, edges, seed, noise


@settings(max_examples=120, deadline=None)
@given(sketched_graphs())
def test_boruvka_matches_the_reference(case):
    n, edges, seed, noise = case
    keys = cn.keys_from_seed(seed, n)
    table = cn.CoordTable(keys, [cn.edge_coord(n, a, b) for a, b in edges])
    records = sorted([(a, b) for a, b in edges] + [(b, a) for a, b in edges])
    sketches = leaves_of(table, records)
    stack = cn._stack(sketches, keys, n)
    # a second add reduces only the checksums it adds to, and matches a
    # dense sum reduced mod q
    half = dict(list(sketches.items())[::2])
    twice = stack.copy()
    cn._add_into(twice, half, keys)
    want = np.zeros_like(stack)
    for v, s in [*sketches.items(), *half.items()]:
        want[v] += s.dense()
    want[:, :, 2] %= keys.q
    assert (twice == want).all()
    for v, r, c, l, value in noise:
        stack[v, r % keys.R, c, l % keys.L] = value
    got = cn._boruvka(stack.copy(), keys, n, table)
    assert got == sketch_reference.boruvka(stack.copy(), keys, n, table)
    if not noise and got is not None:
        assert [got[0][v] for v in range(n)] == oracles.components(n, edges)


def test_sketch_params_scale():
    R, L, t = cn.sketch_params(256)
    assert R == L == t == 16


def test_isolated_vertex_empty():
    n = 8
    keys = cn.keys_from_seed(42, n)
    edges = [(0, 1)]
    table = cn.CoordTable(keys, [cn.edge_coord(n, *e) for e in edges])
    s = vertex_sketch(keys, table, n, 5, edges)
    for r in range(keys.R):
        assert decode_one(s, keys, r, n) == cn.EMPTY


def test_single_edge_cancels():
    n = 8
    keys = cn.keys_from_seed(7, n)
    edges = [(1, 2)]
    table = cn.CoordTable(keys, [cn.edge_coord(n, *e) for e in edges])
    s = added(keys, vertex_sketch(keys, table, n, 1, edges),
              vertex_sketch(keys, table, n, 2, edges))
    for r in range(keys.R):
        assert decode_one(s, keys, r, n) == cn.EMPTY


def test_path_cut_edge_recovered():
    n = 4
    edges = [(1, 2), (2, 3)]
    for seed in range(10):
        keys = cn.keys_from_seed(seed, n)
        table = cn.CoordTable(keys, [cn.edge_coord(n, *e) for e in edges])
        s = added(keys, vertex_sketch(keys, table, n, 1, edges),
                  vertex_sketch(keys, table, n, 2, edges))
        for r in range(keys.R):
            got = decode_one(s, keys, r, n)
            if got not in (cn.EMPTY, cn.FAIL):
                assert got == (2, 3)


def test_one_sparse_always_decodes():
    n = 16
    edges = [(3, 9)]
    keys = cn.keys_from_seed(11, n)
    table = cn.CoordTable(keys, [cn.edge_coord(n, *e) for e in edges])
    s = vertex_sketch(keys, table, n, 3, edges)
    for r in range(keys.R):
        assert decode_one(s, keys, r, n) == (3, 9)


def test_cut_sampling_frequencies():
    # a 16-edge cut: decoded edges should be near-uniform over the cut and
    # the per-instance failure rate low
    n = 64
    cut = [(i, 32 + i) for i in range(16)]
    trials = 10_000
    counts = {e: 0 for e in cut}
    fails = 0
    done = 0
    seed = 0
    while done < trials:
        keys = cn.keys_from_seed(10_000 + seed, n)
        table = cn.CoordTable(keys, [cn.edge_coord(n, *e) for e in cut])
        s = added(keys, *(vertex_sketch(keys, table, n, v, cut)
                          for v in range(16)))
        # one trial = the first decode out of a pair of instances (a
        # single instance fails on ~1/5 of cells; the pair on ~1/25)
        for r in range(0, keys.R - 1, 2):
            if done >= trials:
                break
            got = decode_one(s, keys, r, n)
            if got in (cn.EMPTY, cn.FAIL):
                got = decode_one(s, keys, r + 1, n)
            if got in (cn.EMPTY, cn.FAIL):
                fails += 1
            else:
                counts[got] += 1
            done += 1
        seed += 1
    assert fails / trials <= 0.10
    succ = trials - fails
    p = 1 / 16
    sigma = math.sqrt(p * (1 - p) / succ)
    for e, c in counts.items():
        assert abs(c / succ - p) <= 5 * sigma


def l0_sample_reference(sketch, keys, r, n):
    """One-cell-at-a-time decode, the reference for the batched decoder."""
    q = keys.q
    count, idsum, check = sketch.dense()[r]
    if not count.any() and not idsum.any() and not check.any():
        return cn.EMPTY
    for l in range(keys.L - 1, -1, -1):
        c = int(count[l])
        if c == 0:
            continue
        ids = int(idsum[l])
        if ids % c:
            continue
        x = ids // c
        if not (0 <= x < n * n):
            continue
        gx = int(cn._poly_eval(keys.check_coeffs[r],
                               np.array([x], dtype=np.int64), q)[0])
        if (c % q) * gx % q == check[l] % q:
            a, b = divmod(x, n)
            if a < b < n:
                return (a, b)
    return cn.FAIL


DN = 16
DKEYS = cn.keys_from_seed(5, DN)
# half of the edge coordinates; a verifying cell on any other coordinate
# takes the polynomial fallback
DTABLE = cn.CoordTable(DKEYS, [cn.edge_coord(DN, a, b) for a in range(DN)
                               for b in range(a + 1, DN) if (a + b) % 2])


def checksum(r, x):
    g = 0
    for c in DKEYS.check_coeffs[r]:
        g = (g * x + int(c)) % DKEYS.q
    return g


def one_sparse(r, x, c, shift=0):
    """A cell holding coordinate x with count c; shift spoils its checksum."""
    return (c, c * x, (c % DKEYS.q * checksum(r, x) + shift) % DKEYS.q)


@st.composite
def decode_batches(draw):
    r = draw(st.integers(0, DKEYS.R - 1))
    q, nn = DKEYS.q, DN * DN
    cell = st.one_of(
        st.just((0, 0, 0)),
        st.builds(lambda x, c, shift: one_sparse(r, x, c, shift),
                  st.integers(0, nn - 1), st.sampled_from([1, -1]),
                  st.sampled_from([0, 0, 1, q - 1])),
        st.tuples(st.integers(-4, 4), st.integers(-4 * nn, 4 * nn),
                  st.integers(0, q - 1)),
    )
    row = st.one_of(st.just([(0, 0, 0)] * DKEYS.L),
                    st.lists(cell, min_size=DKEYS.L, max_size=DKEYS.L))
    return r, draw(st.lists(row, min_size=1, max_size=6))


CRAFTED = [
    [(0, 0, 0)] * DKEYS.L,  # EMPTY
    [one_sparse(3, cn.edge_coord(DN, 2, 9), 1)] * DKEYS.L,  # in the table
    [one_sparse(3, cn.edge_coord(DN, 2, 8), -1)] * DKEYS.L,  # fallback
    [one_sparse(3, 9 * DN + 2, 1)] * DKEYS.L,  # verifies, but a >= b
    [one_sparse(3, 5 * DN + 5, -1)] * DKEYS.L,  # a == b
    [(0, 0, 0)] * (DKEYS.L - 2)  # top levels spoiled, a lower one decodes
    + [one_sparse(3, cn.edge_coord(DN, 1, 4), -1)]
    + [one_sparse(3, cn.edge_coord(DN, 1, 6), 1, shift=1)],
    [(2, -2 * cn.edge_coord(DN, 0, 3), 7)] * DKEYS.L,  # FAIL
]


@settings(max_examples=300, deadline=None)
@given(decode_batches())
@example((3, CRAFTED))
def test_batched_decode_matches_reference(batch):
    r, rows = batch
    cells = np.array(rows, dtype=np.int64)  # (G, L, 3)
    count, idsum, check = (np.ascontiguousarray(cells[..., i])
                           for i in range(3))
    want = []
    for i in range(len(rows)):
        dense = np.zeros((3, DKEYS.R, DKEYS.L), np.int64)
        dense[:, r] = count[i], idsum[i], check[i]
        s = of_dense(*dense, DKEYS)
        want.append(l0_sample_reference(s, DKEYS, r, DN))
        assert decode_one(s, DKEYS, r, DN) == want[-1]
    assert cn._decode(count, idsum, check, DKEYS, r, DN, DTABLE) == want
    assert cn._decode(count, idsum, check, DKEYS, r, DN) == want


def test_crafted_decode_cases():
    cells = np.array(CRAFTED, dtype=np.int64)
    got = cn._decode(cells[..., 0], cells[..., 1], cells[..., 2],
                     DKEYS, 3, DN, DTABLE)
    assert cn.edge_coord(DN, 2, 9) in DTABLE.coords.tolist()
    assert cn.edge_coord(DN, 2, 8) not in DTABLE.coords.tolist()
    assert got == [cn.EMPTY, (2, 9), (2, 8), cn.FAIL, cn.FAIL, (1, 4),
                   cn.FAIL]

EDGES = [(a, b) for a in range(DN) for b in range(a + 1, DN)]
FTABLE = cn.CoordTable(DKEYS, [cn.edge_coord(DN, a, b) for a, b in EDGES])
MASK_WORDS = math.ceil(DKEYS.R * DKEYS.L / math.ceil(math.log2(DN)))


def dense_rebuild(leaves):
    """(count, id-sum, checksum) cells, each (R, L), of signed coordinates
    (sign, x), from the level and checksum polynomials directly."""
    q = DKEYS.q
    cells = np.zeros((3, DKEYS.R, DKEYS.L), np.int64)
    for sign, x in leaves:
        for r in range(DKEYS.R):
            g = checksum(r, x)
            for l in range(DKEYS.L):
                u = 0
                for c in DKEYS.level_coeffs[r, l]:
                    u = (u * x + int(c)) % q
                if u << l < q:
                    cells[:, r, l] += (sign, sign * x, 0)
                    cells[2, r, l] = (cells[2, r, l] + sign * g) % q
    return cells


def signed_records(leaves):
    """Directed records (u, v) carrying the signed coordinates (sign, x):
    x = a*n + b with a < b is (a, b) when positive and (b, a) otherwise."""
    return [divmod(x, DN)[::sign] for sign, x in leaves]


def sparse_partial(leaves):
    return leaves_of(FTABLE, signed_records(leaves), part=0).get(0, zero(DKEYS))


def assert_matches(s, want):
    assert (s.dense().transpose(1, 0, 2) == want).all()
    assert s.words() == MASK_WORDS + 7 * int(want.any(axis=0).sum())


signed_coords = st.lists(
    st.tuples(st.sampled_from([1, -1]),
              st.sampled_from([cn.edge_coord(DN, a, b) for a, b in EDGES])),
    max_size=5)


@settings(max_examples=60, deadline=None)
@given(st.lists(signed_coords, min_size=1, max_size=4))
@example([[(1, cn.edge_coord(DN, 2, 9))], [(-1, cn.edge_coord(DN, 2, 9))]])
def test_sparse_partials_match_dense(parts):
    # each partial, and their sum in one reducer call and as a running
    # sum, holds the dense cells and is metered as the mask plus 7 words
    # per nonzero cell
    sparse = [sparse_partial(leaves) for leaves in parts]
    for s, leaves in zip(sparse, parts):
        assert_matches(s, dense_rebuild(leaves))
    want = dense_rebuild([c for leaves in parts for c in leaves])
    assert_matches(cn._sum_partials(sparse, DKEYS), want)
    acc = zero(DKEYS)
    for s in sparse:
        acc = added(DKEYS, acc, s)
    assert_matches(acc, want)


def test_opposite_signs_leave_no_cell():
    x = cn.edge_coord(DN, 3, 11)
    plus, minus = sparse_partial([(1, x)]), sparse_partial([(-1, x)])
    assert len(plus.cells) >= DKEYS.R  # level 0 holds every coordinate
    for s in (cn._sum_partials([plus, minus], DKEYS),
              sparse_partial([(1, x), (-1, x)])):
        assert len(s.cells) == 0
        assert s.words() == MASK_WORDS


def test_leaf_pass_matches_dense():
    # machine 1 holds vertex 3's records (mixed signs) and the first half
    # of vertex 5's, machine 2 the rest of vertex 5's, machine 3 a single
    # record; one segmented call sketches all three, and every machine's
    # leaf partials and their aggregate equal the dense cells
    cl = init_cluster(ClusterConfig(n=DN, m=len(EDGES), gamma=0.5, seed=0))
    held = {1: [(3, 1), (3, 9), (3, 12), (5, 0), (5, 7)],
            2: [(5, 8), (5, 2), (5, 14)],
            3: [(7, 4)]}
    sort_reference.place(cl, "D", held)

    def signed(recs):
        return [(1 if u < v else -1, cn.edge_coord(DN, u, v)) for u, v in recs]

    calls = []

    def leaf_fn(cut, cols):
        calls.append(cut.tolist())
        return cn._leaf_partials(FTABLE, cut, cols, (cols[:, 0],))

    leaves = cl.segmented(leaf_fn, "D")
    assert calls == [[5, 8, 9]]
    assert list(leaves) == list(held)
    for i, recs in held.items():
        assert list(leaves[i]) == list(dict.fromkeys(r[0] for r in recs))
        for v, s in leaves[i].items():
            assert_matches(s, dense_rebuild(signed(r for r in recs if r[0] == v)))
    got = primitives.aggregate(cl, leaves,
                               lambda ps: cn._sum_partials(ps, DKEYS))
    assert sorted(got) == [3, 5, 7]
    everything = [r for recs in held.values() for r in recs]
    for v, s in got.items():
        assert_matches(s, dense_rebuild(signed(r for r in everything if r[0] == v)))


@functools.cache
def complete_table(n):
    """A CoordTable over every edge of K_n."""
    return cn.CoordTable(cn.keys_from_seed(n, n), [
        cn.edge_coord(n, a, b) for a in range(n) for b in range(a + 1, n)])


@st.composite
def leaf_layouts(draw):
    """(n, thresholds, part kind, each machine's directed (u, v, w)
    records) for the leaf pass.  Records are sorted so that each part's
    records are consecutive and cut into machines of drawn sizes: a
    machine may be idle, hold one record or more records than a group
    takes, and a part may span machines.  Weights sit at, below and above
    thresholds, some past 2^53 or beyond int64; with n = 5, edges often
    come in both directions, and they cancel in the one-part kind."""
    n = draw(st.sampled_from([5, 40]))
    eps = draw(st.sampled_from([0.1, 1.0]))
    W = draw(st.sampled_from([8, 2 ** 70]))
    r = math.ceil(math.log(W) / math.log(1 + eps))
    taus = [(1 + eps) ** i for i in range(r + 1)]
    kind = draw(st.sampled_from(["source", "class", "one"]))
    sizes = draw(st.lists(st.sampled_from([0, 1, 1, 3, 30, SEGMENT_RECORDS + 1]),
                          min_size=1, max_size=5))
    # the first thresholds and the first past 2^53, where a float
    # comparison would round an int64 weight; maybe the last ones too
    near = taus[:6] + [t for t in taus if t > 2 ** 53][:2]
    if draw(st.booleans()):
        near += taus[-2:] + [2 ** 64]
    weights = {w for t in near
               for w in (math.floor(t), math.ceil(t), math.floor(t) + 1)}
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    weights = sorted(weights)
    records = [(*rng.sample(range(n), 2), rng.choice(weights))
               for _ in range(sum(sizes))]
    if kind == "source":
        records.sort()
    elif kind == "class":
        records.sort(key=itemgetter(0, 2, 1))
    cuts = np.cumsum([0] + sizes).tolist()
    return n, taus, kind, [records[a:b] for a, b in zip(cuts, cuts[1:])]


@settings(max_examples=60, deadline=None)
@given(leaf_layouts())
def test_segmented_leaf_pass_matches_the_reference(layout):
    # every machine's leaf partials equal the per-machine reference's, part
    # keys (ints or tuples) in the same order, and each partial owns its
    # arrays; a group holds at most SEGMENT_RECORDS records unless it is
    # one machine
    n, taus, kind, held = layout
    part_fn, part_cols = {
        "source": (itemgetter(0), lambda cols: (cols[:, 0],)),
        "class": (lambda rec: (rec[0], bisect_left(taus, rec[2])),
                  cn._weight_classes(taus)),
        "one": (lambda rec: 0, lambda cols: (np.zeros(len(cols), np.int64),)),
    }[kind]
    table = complete_table(n)
    cl = init_cluster(ClusterConfig(n=n, m=len(held) * (math.isqrt(n) + 1)))
    sort_reference.place(cl, "D", dict(enumerate(held, start=1)))
    cuts = []

    def leaf_fn(cut, cols):
        cuts.append(cut.tolist())
        return cn._leaf_partials(table, cut, cols, part_cols(cols))

    got = cl.segmented(leaf_fn, "D")
    assert all(c[-1] <= SEGMENT_RECORDS or len(c) == 1 for c in cuts)
    want = {i: sketch_reference.leaf_partials(table, part_fn, recs)
            for i, recs in enumerate(held, start=1) if recs}
    assert list(got) == list(want)
    for i, parts in want.items():
        assert [repr(p) for p in got[i]] == [repr(p) for p in parts]
        for p, s in parts.items():
            g = got[i][p]
            assert g.cells.tolist() == s.cells.tolist()
            assert g.vals.tolist() == s.vals.tolist()
            assert g.cells.base is None and g.vals.base is None


def run_cc(graph, seed=0):
    cl = init_cluster(
        ClusterConfig(n=graph.n, m=max(1, graph.m), gamma=0.5, seed=seed)
    )
    labels, report = cn.connected_components(cl, graph)
    return cl, labels, report


def test_two_triangles():
    g = SimGraph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    _, labels, _ = run_cc(g)
    assert labels[0] == labels[1] == labels[2]
    assert labels[3] == labels[4] == labels[5]
    assert labels[0] != labels[3]


def test_two_vs_one_cycle():
    for split, want in ((2, 2), (1, 1)):
        g = generate_graph("two-cycles", 64, split=split)
        _, labels, _ = run_cc(g, seed=3)
        assert len(set(labels.values())) == want


def test_random_sparse_matches_oracle():
    for seed in range(5):
        g = generate_graph("gnp", 64, seed=seed, p=1.5 / 64)
        cl, labels, _ = run_cc(g, seed=seed)
        want = oracles.components(64, g.edges)
        assert [labels[v] for v in range(64)] == want
        assert not any(t.violations for t in cl.telemetry)


def flaky_boruvka(monkeypatch, fails):
    """Make `_boruvka` fail (return None) on its first `fails` calls."""
    real, calls = cn._boruvka, []

    def boruvka(*args):
        calls.append(None)
        return None if len(calls) <= fails else real(*args)

    monkeypatch.setattr(cn, "_boruvka", boruvka)


def test_cc_retries_with_fresh_keys(monkeypatch):
    # samplers that fail on the first key draw are retried once with
    # fresh keys, and no small machine keeps the arranged copies; a
    # second failure raises
    g = generate_graph("gnp", 64, seed=1, p=1.5 / 64)
    flaky_boruvka(monkeypatch, 1)
    cl, labels, report = run_cc(g, seed=1)
    assert report["retried"] == 1
    assert [labels[v] for v in range(64)] == oracles.components(64, g.edges)
    assert not any("D" in cl.machines[i].state for i in cl.small_ids)
    monkeypatch.undo()
    flaky_boruvka(monkeypatch, 2)
    with pytest.raises(cn.RunFailed):
        run_cc(g, seed=1)


@pytest.mark.parametrize("seed", [0, 3])
def test_sparse_n1024_matches_oracle(seed):
    # G(1024, 0.0008) seed 3 once overloaded a small machine's sends in
    # the sketch aggregation (S13:SendBudget) with dense partials
    g = generate_graph("gnp", 1024, seed=seed, p=0.0008)
    cl, labels, _ = run_cc(g, seed=seed)
    assert [labels[v] for v in range(1024)] == oracles.components(1024, g.edges)
    assert cl.rounds_used == 18
    assert not any(t.violations for t in cl.telemetry)


def threshold_counts(graph, eps, W):
    """Oracle component counts of the threshold subgraphs w <= (1+eps)^i."""
    r = 0 if W <= 1 else math.ceil(math.log(W) / math.log(1 + eps))
    return [
        len(set(oracles.components(graph.n, [
            e for e in graph.edges if e[2] <= (1 + eps) ** i])))
        for i in range(r + 1)
    ]


@pytest.mark.parametrize("W", [8, 64])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_estimate_counts_per_threshold(W, seed):
    g = generate_graph("gnp", 128, seed=seed, p=0.05, weighted=True,
                       max_weight=W)
    cl = init_cluster(ClusterConfig(n=128, m=g.m, gamma=0.5, seed=seed))
    _, report = cn.mst_weight_estimate(cl, g, eps=0.1, max_weight=W)
    assert report["cc_per_threshold"] == threshold_counts(g, 0.1, W)
    assert cl.rounds_used == 18


def test_estimate_excludes_edges_above_max_weight():
    g = generate_graph("gnp", 128, seed=4, p=0.05, weighted=True,
                       max_weight=64)
    assert max(w for *_, w in g.edges) > 8
    cl = init_cluster(ClusterConfig(n=128, m=g.m, gamma=0.5, seed=4))
    _, report = cn.mst_weight_estimate(cl, g, eps=0.1, max_weight=8)
    want = threshold_counts(g, 0.1, 8)
    assert report["cc_per_threshold"] == want
    assert want[-1] > len(set(oracles.components(128, g.edges)))


def test_estimate_resketches_a_failed_threshold(monkeypatch):
    # the second class's decode fails: that threshold's subgraph is
    # sketched again with the retry keys of its threshold, and a failure
    # there too raises
    g = generate_graph("gnp", 128, seed=0, p=0.05, weighted=True, max_weight=8)
    real, seeds = cn._boruvka, []

    def flaky(fail_at):
        def decode(stack, keys, n, table):
            seeds.append(keys.master_seed)
            return None if len(seeds) in fail_at else real(stack, keys, n, table)
        return decode

    monkeypatch.setattr(cn, "_boruvka", flaky({2}))
    cl = init_cluster(ClusterConfig(n=128, m=g.m, gamma=0.5, seed=0))
    _, report = cn.mst_weight_estimate(cl, g, eps=0.1, max_weight=8)
    assert report["cc_per_threshold"] == threshold_counts(g, 0.1, 8)
    assert cl.rounds_used == 2 * 18
    assert seeds[0] == seeds[1] == seeds[3] != seeds[2]
    second = sorted({min(i for i in range(23) if w <= 1.1 ** i)
                     for *_, w in g.edges})[1]
    retry = cn.make_keys(cl.rng("sketch-keys", ("est", second), 1), 128)
    assert seeds[2] == retry.master_seed

    seeds.clear()
    monkeypatch.setattr(cn, "_boruvka", flaky({2, 3}))
    cl = init_cluster(ClusterConfig(n=128, m=g.m, gamma=0.5, seed=0))
    with pytest.raises(cn.RunFailed):
        cn.mst_weight_estimate(cl, g, eps=0.1, max_weight=8)


def test_estimate_unit_weights_exact():
    g0 = generate_graph("gnp", 32, seed=4, p=0.15)
    g = SimGraph(32, [(u, v, 1) for u, v in g0.edges], weighted=True)
    cl = init_cluster(ClusterConfig(n=32, m=g.m, gamma=0.5, seed=4))
    est, _ = cn.mst_weight_estimate(cl, g, eps=0.1, max_weight=1)
    ncomp = len(set(oracles.components(32, [(u, v) for u, v, _ in g.edges])))
    assert est == 32 - ncomp


def test_estimate_tree_two_weights():
    edges = [(i, i + 1, 1 + (i % 2)) for i in range(31)]
    g = SimGraph(32, edges, weighted=True)
    cl = init_cluster(ClusterConfig(n=32, m=g.m, gamma=0.5, seed=5))
    eps = 0.25
    est, report = cn.mst_weight_estimate(cl, g, eps=eps, max_weight=2)
    true = sum(w for *_, w in edges)
    assert (1 - 2 * eps) * true <= est <= (1 + 2 * eps) * true
