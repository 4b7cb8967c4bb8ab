import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from fractions import Fraction
from itertools import accumulate
from hypothesis import given, settings
from hypothesis import strategies as st

from bgcsim.adversary import ClaimedGradientTable, NoAdversary, SymmetrizationAdversary, TableAdversary
from bgcsim.bounds import run_trial
from bgcsim.core import (
    COLUMN_CHUNK,
    RAW_SLAB,
    SchemeParams,
    as_truth,
    block_sums,
    build_fractional_repetition,
    full_gradient,
    random_gradients,
    replication_factor,
    sum_dtype,
    wide_rows,
)


def test_params_derive_n():
    params = SchemeParams(s=2, u=1, m=1, p=8, d=1, q=65536)
    assert params.n == 3
    assert params.group_size == 3
    assert params.block_size == 8


@pytest.mark.parametrize(
    "kwargs, fragment",
    [
        (dict(s=1, u=1, m=0, p=4, d=1, q=65536), "m must be"),
        (dict(s=1, u=1, m=2, p=7, d=1, q=65536), "divide p"),
        (dict(s=1, u=1, m=2, p=2, d=1, q=65536), "p/m must be >= 2"),
        (dict(s=1, u=0, m=1, p=4, d=1, q=65536), "u must be"),
        (dict(s=-1, u=1, m=1, p=4, d=1, q=65536), "s must be"),
        (dict(s=1, u=1, m=1, p=4, d=1, q=1), "q must be"),
        (dict(s=1, u=1, m=1, p=4, d=0, q=65536), "d must be"),
        (dict(s=1, u=1, m=1, p=2**32, d=1, q=2**32), "below 2**63"),
    ],
)
def test_params_rejects_invalid(kwargs, fragment):
    with pytest.raises(ValueError) as err:
        SchemeParams(**kwargs)
    assert fragment in str(err.value)


def test_params_take_no_n():
    with pytest.raises(TypeError):
        SchemeParams(s=2, u=1, m=1, p=8, d=1, q=65536, n=4)


def test_replaced_params_derive_n_again():
    # The figures sweep u by dataclasses.replace, which must recompute n.
    params = SchemeParams(s=4, u=1, m=2, p=8, d=1, q=65536)
    assert dataclasses.replace(params, u=3).n == params.m * (params.s + 3) == 14
    with pytest.raises(ValueError):
        dataclasses.replace(params, n=14)


def test_worker_and_block_indexing():
    params = SchemeParams(s=2, u=1, m=2, p=8, d=1, q=65536)
    assert list(params.workers_of_group(1)) == [1, 2, 3]
    assert list(params.workers_of_group(2)) == [4, 5, 6]
    assert params.group_of_worker(3) == 1
    assert params.group_of_worker(4) == 2
    assert list(params.block_of_group(2)) == [5, 6, 7, 8]



@pytest.mark.parametrize(
    "lookup, bad, message",
    [
        (SchemeParams.group_of_worker, 0, "worker id out of range: 0"),
        (SchemeParams.group_of_worker, 7, "worker id out of range: 7"),
        (SchemeParams.workers_of_group, 0, "group id out of range: 0"),
        (SchemeParams.workers_of_group, 3, "group id out of range: 3"),
        (SchemeParams.block_of_group, 0, "group id out of range: 0"),
        (SchemeParams.block_of_group, 3, "group id out of range: 3"),
    ],
)
def test_worker_and_block_indexing_rejects_ids_out_of_range(lookup, bad, message):
    params = SchemeParams(s=2, u=1, m=2, p=8, d=1, q=65536)  # n = 6 workers in 2 groups
    with pytest.raises(ValueError, match=f"^{message}$"):
        lookup(params, bad)


def test_assignment_single_group_all_ones():
    params = SchemeParams(s=2, u=1, m=1, p=4, d=1, q=65536)
    a = build_fractional_repetition(params)
    assert a.shape == (4, 3)
    assert (a == 1).all()


def test_assignment_two_blocks():
    params = SchemeParams(s=1, u=1, m=2, p=4, d=1, q=65536)
    a = build_fractional_repetition(params)
    expected = np.array(
        [[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]], dtype=np.int8
    )
    assert (a == expected).all()


def test_assignment_block_coverage_by_hand():
    # m=2, s=2, u=1: columns 1-3 cover rows 1-4, columns 4-6 cover rows 5-8
    params = SchemeParams(s=2, u=1, m=2, p=8, d=1, q=65536)
    a = build_fractional_repetition(params)
    assert (a[0:4, 0:3] == 1).all()
    assert (a[4:8, 3:6] == 1).all()
    assert a.sum() == 8 * 3


def _valid_param_grid(n_max, p_max):
    for m in range(1, n_max + 1):
        for s in range(0, n_max):
            for u in range(1, n_max + 1):
                n = m * (s + u)
                if n > n_max:
                    continue
                for block in range(2, p_max // m + 1):
                    p = m * block
                    if p > p_max:
                        continue
                    yield SchemeParams(s=s, u=u, m=m, p=p, d=1, q=2)


def test_assignment_row_and_column_sums_exhaustive():
    count = 0
    for params in _valid_param_grid(n_max=24, p_max=32):
        a = build_fractional_repetition(params)
        assert (a.sum(axis=1) == params.group_size).all()  # every row: n/m ones
        assert (a.sum(axis=0) == params.block_size).all()  # every column: p/m ones
        assert replication_factor(a) == Fraction(params.s + params.u)
        count += 1
    assert count > 100


def test_replication_factor_examples():
    all_ones = np.ones((4, 3), dtype=np.int8)
    assert replication_factor(all_ones) == 3
    fig = build_fractional_repetition(SchemeParams(s=10, u=1, m=1, p=16, d=1, q=65536))
    assert replication_factor(fig) == 11
    draco = build_fractional_repetition(SchemeParams(s=10, u=11, m=1, p=16, d=1, q=65536))
    assert replication_factor(draco) == 21


@pytest.mark.parametrize("shape", [(4,), (2, 3, 1)], ids=["1-D", "3-D"])
def test_replication_factor_rejects_a_matrix_that_is_not_2d(shape):
    with pytest.raises(ValueError, match="assignment must be a 2-D 0/1 matrix"):
        replication_factor(np.ones(shape, dtype=np.int8))


def test_full_gradient_examples():
    zero = full_gradient(np.zeros((5, 3), dtype=np.int64), 7)
    assert (zero == 0).all()
    # g_i = i for p=4, d=1: total is 10
    assert full_gradient(np.array([[1], [2], [3], [4]]), 2**16).tolist() == [10]
    # hand sum mod 5: (1+3+4, 2+4+4) = (8, 10) = (3, 0)
    vecs = np.array([[1, 2], [3, 4], [4, 4]])
    assert full_gradient(vecs, 5).tolist() == [3, 0]
    # zero-width rows, short and long, are no truth: SchemeParams requires d >= 1
    for k in (3, 5000):
        with pytest.raises(ValueError, match="d >= 1"):
            full_gradient(np.zeros((k, 0), dtype=np.int64), 5)


def test_full_gradient_dimension_mismatch():
    with pytest.raises(ValueError):
        full_gradient([np.array([1, 2]), np.array([1, 2, 3])], 5)


def test_random_gradients_deterministic():
    params = SchemeParams(s=1, u=1, m=1, p=6, d=3, q=65536)
    a = random_gradients(params, 1234)
    b = random_gradients(params, 1234)
    assert (a == b).all()
    assert a.shape == (6, 3)
    assert ((a >= 0) & (a < 65536)).all()


def test_random_gradients_vary_across_seeds():
    params = SchemeParams(s=1, u=1, m=1, p=4, d=2, q=65536)
    differing = sum(
        not (random_gradients(params, 2 * k) == random_gradients(params, 2 * k + 1)).all()
        for k in range(100)
    )
    assert differing == 100


def test_random_gradients_binary_alphabet():
    params = SchemeParams(s=0, u=1, m=1, p=2, d=1, q=2)
    for seed in range(20):
        g = random_gradients(params, seed)
        assert set(g.ravel().tolist()) <= {0, 1}


def _generators(seed):
    """Pairs of equal generators: a fresh PCG64, a PCG64 with a buffered half word, an MT19937."""
    buffered = [np.random.default_rng(seed) for _ in range(2)]
    for rng in buffered:
        rng.integers(0, 7, dtype=np.uint32)  # one half word drawn, its twin left buffered
    yield "fresh", [np.random.default_rng(seed) for _ in range(2)]
    yield "buffered", buffered
    yield "mt19937", [np.random.Generator(np.random.MT19937(seed)) for _ in range(2)]


def _state(rng):
    """The bit generator's state as plain data (MT19937 keeps a key array)."""
    return json.dumps(rng.bit_generator.state, default=lambda key: key.tolist())


# Counts of half words around the 16-bit draw's raw slabs of RAW_SLAB words:
# one slab less one half word, exactly one, one and a half word spilling into
# a second slab, and several with an odd tail.
_SLAB_COUNTS = [(2 * RAW_SLAB - 1, 1), (2 * RAW_SLAB, 1), (2 * RAW_SLAB + 1, 1), (6 * RAW_SLAB + 3, 1)]


@pytest.mark.parametrize("q", [2, 4, 2**16, 2**31, 2**32, 3, 65537, 2**32 - 1, 2**15, 2**17])
@pytest.mark.parametrize("p, d", [(4, 3), (5, 3), (2, 1), (7, 1), *_SLAB_COUNTS])
def test_random_gradients_equal_the_int64_draw(q, p, d):
    """The truth has rng.integers' int64 values and leaves the generator where it does.

    It is uint16 when q <= 2**16 and uint32 otherwise.  Power-of-two q on a
    fresh PCG64 takes the raw-stream path; the rest fall back to
    ``rng.integers``.  numpy promises no stream stability for generator
    methods across versions, so this ties the raw path to the installed
    numpy.  (5, 3) and (7, 1) draw an odd number of half words.
    """
    params = SchemeParams(s=0, u=1, m=1, p=p, d=d, q=q)
    for seed in range(3):
        for kind, (mine, reference) in _generators(seed):
            got = random_gradients(params, mine)
            want = reference.integers(0, q, size=(p, d), dtype=np.int64)
            assert got.dtype == (np.uint16 if q <= 2**16 else np.uint32) and got.shape == (p, d), kind
            assert got.flags.c_contiguous and np.array_equal(got, want), kind
            for draw in (lambda g: g.integers(0, 2**32, 3, dtype=np.uint32), lambda g: g.integers(q, size=3)):
                assert draw(mine).tolist() == draw(reference).tolist(), kind
            assert _state(mine) == _state(reference), kind


def _reference_sums(rows):
    """Exact column sums on Python ints, as int64."""
    return np.array([sum(col) for col in rows.T.tolist()], dtype=np.int64)


def _row_count(data, w, shape):
    """A row count on or around the kernel's thresholds for a width of w rows."""
    if shape == "empty":
        return 0
    if shape == "below":
        return 2 * w - 1  # the largest count that takes the plain sum
    if shape == "at":
        return 2 * w
    if shape == "tail":  # whole groups of w rows plus a leftover tail
        return 2 * w + data.draw(st.integers(0, 2)) * w + data.draw(st.integers(1, w - 1))
    return data.draw(st.integers(0, 4 * w))


_ROW_SHAPES = st.sampled_from(["empty", "below", "at", "tail", "any"])


# q at each accumulator's edges: the uint16 and uint32 wraps, the exact uint32
# rule up to COLUMN_CHUNK * (q - 1) < 2**32, and int64 past it.
_SUM_QS = [2, 3, 2**16 - 1, 2**16, 2**16 + 1, 2**24, 2**24 + 1, 2**32 - 1, 2**32]


def _assert_block_sums(rows, q):
    """block_sums at the full gradient's and the label table's chunk sizes against Python ints.

    Exact outright unless q is a power of two, and exact mod q then.
    """
    k, d = rows.shape
    w = wide_rows(d)

    def same(got, want):
        return np.array_equal(got, want) if q & (q - 1) else np.array_equal(got % q, want % q)

    for chunk in (COLUMN_CHUNK * w, ClaimedGradientTable.CHUNK * w):
        prefix, total = block_sums(rows, chunk, q)
        assert total.dtype == np.int64 and total.shape == (d,)
        assert same(total, _reference_sums(rows)), chunk
        if k < chunk:
            assert prefix is None, chunk
            continue
        starts = range(0, k - chunk + 1, chunk)
        want = [np.zeros(d, dtype=np.int64), *accumulate(_reference_sums(rows[i : i + chunk]) for i in starts)]
        assert prefix.dtype == np.int64 and prefix.shape == (k // chunk + 1, d)
        assert same(prefix, np.array(want)), chunk


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    d=st.integers(1, 40),
    chunks=st.sampled_from([(0, 0), (1, 16), (2, 16), (1, COLUMN_CHUNK)]),
    shape=_ROW_SHAPES,
    layout=st.sampled_from(["C", "row-slice"]),
    q=st.sampled_from(_SUM_QS),
    values=st.sampled_from(["random", "top", "extremes"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_column_sums_match_python_int_reference(data, d, chunks, shape, layout, q, values, seed):
    # The kernel's input is a truth (core.as_truth) or a row slice of one, as a block is:
    # 0, 1 or 2 whole chunks of 16 or COLUMN_CHUNK wide rows, then rows around the
    # wide-row thresholds.
    w = wide_rows(d)
    count, wides = chunks
    k = count * wides * w + _row_count(data, w, shape)
    rng = np.random.default_rng(seed)
    dtype = np.uint16 if q <= 2**16 else np.uint32
    size = (k + 2 if layout == "row-slice" else k, d)
    if values == "random":
        base = rng.integers(0, q, size=size, dtype=dtype)
    elif values == "top":  # every partial sum at its largest
        base = np.full(size, q - 1, dtype=dtype)
    else:
        base = rng.choice(np.array([0, 1, q - 1], dtype=dtype), size=size)
    rows = base[1 : k + 1] if layout == "row-slice" else base
    assert rows.shape == (k, d) and rows.flags.c_contiguous
    _assert_block_sums(rows, q)


@pytest.mark.parametrize("d, wides, tail", [(3, 16, 7), (4, 1, 0), (1030, 2, 1)])
def test_chunk_sums_match_plain_sums_across_slabs(d, wides, tail):
    # More than 2**21 elements in one reduction, in each accumulator: the
    # uint16 wrap, exact uint32, int64 and the uint32 wrap.
    chunk = wides * wide_rows(d)
    n = 2**21 // (chunk * d) + 3
    rng = np.random.default_rng(d)
    for q in (2**16, 2**16 + 1, 2**32 - 1, 2**32):
        values = np.array([0, 1, q - 1, 12345], dtype=np.uint16 if q <= 2**16 else np.uint32)
        rows = rng.choice(values, size=(n * chunk + tail, d))
        expected = rows[: n * chunk].reshape(n, chunk, d).sum(axis=1, dtype=np.int64)
        got = np.diff(block_sums(rows, chunk, q)[0], axis=0)
        assert got.dtype == np.int64
        if q & (q - 1):
            assert np.array_equal(got, expected)
        else:
            assert np.array_equal(got % q, expected % q)


@pytest.mark.parametrize("chunk", [COLUMN_CHUNK, ClaimedGradientTable.CHUNK])
@pytest.mark.parametrize("q", [2**16, 65521, 2**31 + 1])
def test_block_sums_holds_only_the_partials(q, chunk):
    # numpy buffers the reduction's casts, so the peak is the array of
    # partial rows, whatever the accumulator.
    k, d = 2**18, 4
    chunk *= wide_rows(d)
    rows = random_gradients(SchemeParams(s=1, u=1, m=1, p=k, d=d, q=q), 7)
    acc = np.dtype(sum_dtype(rows.dtype, chunk // wide_rows(d), q))
    tracemalloc.start()
    try:
        block_sums(rows, chunk, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (k // chunk) * wide_rows(d) * d * acc.itemsize + 256 * 1024


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    d=st.integers(1, 40),
    m=st.integers(1, 3),
    chunks=st.sampled_from([0, 2, 3]),
    shape=_ROW_SHAPES,
    q=st.sampled_from([2, 3, 65536, 2**31 - 1, 2**32]),
    seed=st.integers(0, 2**32 - 1),
)
def test_full_gradient_and_block_sums_match_reference(data, d, m, chunks, shape, q, seed):
    # Blocks of 0, 2 or 3 whole label chunks plus a tail around block_sums' thresholds.
    chunk = ClaimedGradientTable.CHUNK * wide_rows(d)
    block = max(2, chunks * chunk + _row_count(data, wide_rows(d), shape))
    params = SchemeParams(s=1, u=1, m=m, p=m * block, d=d, q=q)
    rng = np.random.default_rng(seed)
    low = q - 2 if data.draw(st.booleans()) else 0  # all values at the top of the alphabet
    # The drawn truth is uint16 up to q = 2**16 and uint32 above.
    dtype = data.draw(st.sampled_from([np.uint32, np.int64] + [np.uint16] * (q <= 2**16)))
    truth = rng.integers(low, q, size=(params.p, d), dtype=dtype)
    assert np.array_equal(full_gradient(truth, q), _reference_sums(truth) % q)
    table = ClaimedGradientTable(params, truth)
    deviant = 1 + params.group_size * int(rng.integers(m))  # first worker of some group
    index = params.block_of_group(params.group_of_worker(deviant))[int(rng.integers(block))]
    claimed = (truth[index - 1].astype(np.int64) + 1) % q
    table.set(deviant, index, claimed)  # every other worker has no deviations

    # [lo, hi) ranges (local, 1-based): the whole block, ones that start or end
    # on a chunk boundary, ones inside a chunk, and random ones.
    ranges = {(1, block + 1)}
    for edge in range(chunk, block, chunk):
        ranges.add((edge + 1, int(rng.integers(edge + 2, block + 2))))  # starts on a boundary
        ranges.add((int(rng.integers(1, edge + 1)), edge + 1))  # ends on one
    for first in range(0, block, chunk):
        lo = first + 1 + int(rng.integers(min(chunk, block - first)))
        ranges.add((lo, int(rng.integers(lo + 1, min(first + chunk, block) + 2))))
    for _ in range(6):
        lo = int(rng.integers(1, block + 1))
        ranges.add((lo, int(rng.integers(lo + 1, block + 2))))

    def check_labels(g):
        span = params.block_of_group(g)
        for coord in range(1, d + 1):
            prefix = [0, *accumulate(truth[span.start - 1 : span.stop - 1, coord - 1].tolist())]
            for j in params.workers_of_group(g):
                for lo, hi in sorted(ranges):
                    expected = prefix[hi - 1] - prefix[lo - 1]
                    if j == deviant and lo <= index - span.start + 1 < hi:
                        expected += int(claimed[coord - 1]) - int(truth[index - 1, coord - 1])
                    assert table.label(j, lo, hi, coord) == expected % q

    for g in range(1, m + 1):
        check_labels(g)  # before any z0, so labels build the chunk tables
        span = params.block_of_group(g)
        rows = truth[span.start - 1 : span.stop - 1]
        for j in params.workers_of_group(g):
            expected = _reference_sums(rows)
            if j == deviant:
                expected = expected - truth[index - 1] + claimed
            assert np.array_equal(table.z0(j), expected % q)
        check_labels(g)  # again, from the memo


# q at the top of the uint32 accumulator and one past it, where k * (q - 1) is
# exactly 2**32, for k values per partial sum: 16 wide rows in a label chunk,
# COLUMN_CHUNK (256) wide rows in a full-gradient chunk, 4096 rows in a label chunk at d=4.
_CUTS = {16: (2**28, 2**28 + 1), COLUMN_CHUNK: (2**24, 2**24 + 1), 4096: (2**20, 2**20 + 1)}


@pytest.mark.parametrize("k", sorted(_CUTS))
def test_sum_dtype_cuts_at_two_to_the_32(k):
    top, past = _CUTS[k]
    assert sum_dtype(np.dtype(np.uint32), k, top) is np.uint32
    assert sum_dtype(np.dtype(np.uint32), k, past) is np.int64
    assert sum_dtype(np.dtype(np.uint16), k, top) is np.uint32  # uint16 values also sum in uint32
    assert sum_dtype(np.dtype(np.uint16), k, past) is np.int64
    # top is a power of two; just below it the exact rule alone gives uint32.
    assert sum_dtype(np.dtype(np.uint32), k, top - 1) is np.uint32
    # A power-of-two q that fits the dtype wraps in the dtype itself, whatever k.
    for q in (2, 2**15, 2**16):
        assert sum_dtype(np.dtype(np.uint16), k, q) is np.uint16
    assert sum_dtype(np.dtype(np.uint16), k, 2**17) is np.uint32  # 2**17 does not divide 2**16
    for q in (2**17, 2**32):
        assert sum_dtype(np.dtype(np.uint32), k, q) is np.uint32
    assert sum_dtype(np.dtype(np.uint32), k, 2**32 - 1) is np.int64


@pytest.mark.parametrize("q", _CUTS[16])
def test_chunk_sums_exact_at_the_uint32_bound(q):
    # d=128 packs w=8 rows per wide row, fewer than the 16 wide rows per chunk.
    d, w = 128, wide_rows(128)
    chunk = 16 * w
    rows = np.full((3 * chunk + 5, d), q - 1, dtype=np.uint32)
    got = np.diff(block_sums(rows, chunk, q)[0], axis=0)
    assert got.dtype == np.int64
    assert got.tolist() == [[chunk * (q - 1)] * d] * 3


@pytest.mark.parametrize("q", _CUTS[COLUMN_CHUNK])
@pytest.mark.parametrize("d", [4, 128])
def test_column_sums_exact_at_the_uint32_bound(d, q):
    # Several COLUMN_CHUNK chunks, a partial one and a tail shorter than a wide row,
    # summed in chunks of COLUMN_CHUNK and of 16 wide rows.
    w = wide_rows(d)
    k = 3 * COLUMN_CHUNK * w + 2 * w + 3
    rows = np.full((k, d), q - 1, dtype=np.uint32)
    for chunk in (COLUMN_CHUNK * w, ClaimedGradientTable.CHUNK * w):
        prefix, total = block_sums(rows, chunk, q)
        assert total.dtype == np.int64 and total.tolist() == [k * (q - 1)] * d
        assert prefix.tolist() == [[i * chunk * (q - 1)] * d for i in range(k // chunk + 1)]
    assert full_gradient(rows, q).tolist() == [k * (q - 1) % q] * d


@pytest.mark.parametrize("q", [*_CUTS[4096], 2**22 + 1, 2**32 - 1])
@pytest.mark.parametrize("dtype", [np.uint32, np.int64])
def test_labels_exact_at_the_uint32_bound(dtype, q):
    # d=4: a label chunk is 16 wide rows of 256, and every direct sum is shorter.
    d = 4
    chunk = ClaimedGradientTable.CHUNK * wide_rows(d)
    assert chunk == 4096
    block = 3 * chunk + 100
    params = SchemeParams(s=1, u=1, m=1, p=block, d=d, q=q)
    table = ClaimedGradientTable(params, np.full((block, d), q - 1, dtype=dtype))
    short = [(lo, lo + chunk - 1) for lo in (1, 2, chunk, chunk + 1, 2 * chunk + 102)]
    spanning = [(1, block + 1), (2, 2 * chunk + 3), (chunk - 5, 3 * chunk + 7), (chunk + 1, 3 * chunk + 1)]
    for lo, hi in short + spanning:
        for coord in (1, d):
            assert table.label(1, lo, hi, coord) == (hi - lo) * (q - 1) % q, (lo, hi)
    assert table.z0(2).tolist() == [block * (q - 1) % q] * d


@pytest.mark.parametrize("d", [4, 128])
def test_sums_of_a_uint16_truth_widen(d):
    # Values of q - 1 at q = 2**16 - 1 overflow 16 bits in any sum of two, and
    # the wrap would show mod q, so every sum of a uint16 truth must widen.
    q, w = 2**16 - 1, wide_rows(d)
    k = 3 * COLUMN_CHUNK * w + 2 * w + 3
    rows = np.full((k, d), q - 1, dtype=np.uint16)
    chunk = ClaimedGradientTable.CHUNK * w
    assert np.diff(block_sums(rows, chunk, q)[0], axis=0).tolist() == [[chunk * (q - 1)] * d] * (k // chunk)
    _assert_block_sums(rows, q)
    assert full_gradient(rows, q).tolist() == [k * (q - 1) % q] * d
    table = ClaimedGradientTable(SchemeParams(s=1, u=1, m=1, p=k, d=d, q=q), rows)
    for lo, hi in [(1, k + 1), (2, chunk + 1), (chunk - 5, 3 * chunk + 7), (5, 7)]:
        assert table.label(1, lo, hi, d) == (hi - lo) * (q - 1) % q, (lo, hi)
    assert table.z0(2).tolist() == [k * (q - 1) % q] * d


# (q, truth dtype): a power-of-two q wraps every sum of the truth in the truth's
# own dtype; its neighbours 3, 2**15 + 1, 2**16 - 1, 2**16 + 1 and 2**32 - 1 take
# the exact rule, and so does a hand-built uint16 truth at q = 2**17, which
# 2**16 is not a multiple of.  At 2**15 + 1 and 2**16 - 1 two values of q - 1
# already overflow 16 bits.
_WRAP_CASES = [
    (2, np.uint16), (2**15, np.uint16), (2**16, np.uint16), (2**17, np.uint32), (2**32, np.uint32),
    (3, np.uint16), (2**15 + 1, np.uint16), (2**16 - 1, np.uint16), (2**16 + 1, np.uint32),
    (2**32 - 1, np.uint32), (2**17, np.uint16),
]


@pytest.mark.parametrize("values", ["top", "random"])
@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize(
    "q, dtype", _WRAP_CASES, ids=[f"{q}-{np.dtype(t).name}" for q, t in _WRAP_CASES]
)
def test_every_sum_of_the_truth_is_exact_mod_q(q, dtype, d, values):
    # Blocks of three label chunks, two wide rows and a tail; at d = 3 the w = 341
    # partial rows of a chunk fold at odd widths.  Every value is checked
    # against Python-int sums mod q.
    w = wide_rows(d)
    chunk = ClaimedGradientTable.CHUNK * w
    block = 3 * chunk + 2 * w + 5
    params = SchemeParams(s=2, u=1, m=2, p=2 * block, d=d, q=q)
    drawn = dtype is (np.uint16 if q <= 2**16 else np.uint32)
    top = min(q - 1, np.iinfo(dtype).max)
    if values == "top":
        truth = np.full((params.p, d), top, dtype=dtype)
    elif drawn:
        truth = random_gradients(params, q)
    else:
        truth = np.random.default_rng(q).integers(0, top, size=(params.p, d), dtype=dtype, endpoint=True)
    assert truth.dtype == dtype
    columns = truth.T.tolist()
    gradient = [sum(col) % q for col in columns]
    assert full_gradient(truth, q).tolist() == gradient

    table = ClaimedGradientTable(params, truth)
    deviations = {1: chunk + 7, params.group_size + 1: block + 3 * chunk + 2}  # worker -> global index
    for j, index in deviations.items():
        table.set(j, index, [(int(v) + 1) % q for v in truth[index - 1]])
    ranges = {(1, block + 1), (chunk + 1, block + 1), (1, 2 * chunk + 1), (chunk + 1, 3 * chunk + 1)}
    ranges |= {(chunk - 5, 2 * chunk + 9), (2 * chunk + 3, 2 * chunk + 40), (2, 3), (3 * chunk + 1, block + 1)}
    for g in (1, 2):
        span = params.block_of_group(g)
        prefix = [[0, *accumulate(col[span.start - 1 : span.stop - 1])] for col in columns]
        for j in params.workers_of_group(g):
            index = deviations.get(j)
            delta = [0] * d if index is None else [(int(v) + 1) % q - int(v) for v in truth[index - 1]]
            assert table.z0(j).tolist() == [(p[-1] + e) % q for p, e in zip(prefix, delta)], j
            for coord in range(1, d + 1):
                for lo, hi in sorted(ranges):
                    expected = prefix[coord - 1][hi - 1] - prefix[coord - 1][lo - 1]
                    if index is not None and lo <= index - span.start + 1 < hi:
                        expected += delta[coord - 1]
                    assert table.label(j, lo, hi, coord) == expected % q, (j, lo, hi)

    trial = run_trial(params, truth, TableAdversary(table, frozenset(deviations)))
    assert trial.breaches == [] and trial.violations == []
    assert trial.ghat.tolist() == gradient


# The truth contract (core.as_truth): a 2-D integer array of residues in [0, q),
# checked where a truth enters a table, a run or full_gradient.

_WRAPPING_TRUTH = np.full((4096, 4), 2**31, dtype=np.uint32)  # a uint32 sum wraps; 3 does not divide 2**32


def test_full_gradient_rejects_values_of_q_or_more():
    # Summed as given, the values wrap the exact uint32 accumulator and sum to
    # [0 0 0 0]; the true sums mod 3 are [2 2 2 2].
    with pytest.raises(ValueError, match="must be in"):
        full_gradient(_WRAPPING_TRUTH, 3)


def test_run_rejects_values_of_q_or_more():
    params = SchemeParams(s=2, u=1, m=1, p=4096, d=4, q=3)
    with pytest.raises(ValueError, match="must be in"):
        run_trial(params, _WRAPPING_TRUTH, NoAdversary())


@pytest.mark.parametrize(
    "column, seed",
    [
        ([6, 1, 0, 1, 0, 1, 1, 0], 1005),  # unchecked: an honest worker eliminated, a wrong decode
        ([1, 0, 0, 0, 4, 1, 0, 0], 1002),  # unchecked: ProtocolError, every subset lost
    ],
)
def test_out_of_range_truth_rejected_at_a_power_of_two_q(column, seed):
    # A wrapped sum is exact mod 2, but commit comparisons and local
    # computations read single values, so the range is checked at every q.
    params = SchemeParams(s=2, u=1, m=1, p=8, d=1, q=2)
    truth = np.array(column, dtype=np.uint16).reshape(8, 1)
    with pytest.raises(ValueError, match="must be in"):
        run_trial(params, truth, SymmetrizationAdversary(), np.random.default_rng(seed))


def test_attack_on_a_narrow_truth_at_a_wide_alphabet():
    # A uint16 truth at q = 2**17 is widened to uint32, so the planted values fit.
    params = SchemeParams(s=2, u=1, m=1, p=8, d=1, q=2**17)
    truth = np.full((8, 1), 2**16 - 1, dtype=np.uint16)
    trial = run_trial(params, truth, SymmetrizationAdversary(), np.random.default_rng(0))
    assert trial.breaches == [] and trial.ghat.tolist() == [8 * (2**16 - 1) % 2**17]


def test_as_truth_keeps_a_canonical_truth_and_rejects_the_rest():
    params = SchemeParams(s=1, u=1, m=1, p=4, d=2, q=2**16)
    truth = random_gradients(params, 0)
    assert ClaimedGradientTable(params, truth).truth is truth
    for bad in (truth.astype(np.float64), truth.astype(bool), truth[0], -truth.astype(np.int64) - 1):
        with pytest.raises(ValueError):
            ClaimedGradientTable(params, bad)
        with pytest.raises(ValueError):
            full_gradient(bad, params.q)
    with pytest.raises(ValueError, match="shape"):
        ClaimedGradientTable(params, truth[:2])
    assert as_truth(truth, 2**17).dtype == np.uint32
    narrowed = as_truth(truth.astype(np.int64), params.q)
    assert narrowed.dtype == np.uint16 and np.array_equal(narrowed, truth)
    assert as_truth(truth.T, params.q).flags.c_contiguous
