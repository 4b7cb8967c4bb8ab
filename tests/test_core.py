import json

import numpy as np
import pytest
from fractions import Fraction
from itertools import accumulate
from hypothesis import given, settings
from hypothesis import strategies as st

from bgcsim.adversary import ClaimedGradientTable
from bgcsim.core import (
    SchemeParams,
    build_fractional_repetition,
    chunk_sums,
    column_sums,
    full_gradient,
    random_gradients,
    replication_factor,
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
        (dict(s=2, u=1, m=1, p=8, d=1, q=65536, n=4), "m*(s+u)"),
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


def test_worker_and_block_indexing():
    params = SchemeParams(s=2, u=1, m=2, p=8, d=1, q=65536)
    assert list(params.workers_of_group(1)) == [1, 2, 3]
    assert list(params.workers_of_group(2)) == [4, 5, 6]
    assert params.group_of_worker(3) == 1
    assert params.group_of_worker(4) == 2
    assert list(params.block_of_group(2)) == [5, 6, 7, 8]


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


def test_full_gradient_examples():
    zero = full_gradient(np.zeros((5, 3), dtype=np.int64), 7)
    assert (zero == 0).all()
    # g_i = i for p=4, d=1: total is 10
    assert full_gradient(np.array([[1], [2], [3], [4]]), 2**16).tolist() == [10]
    # hand sum mod 5: (1+3+4, 2+4+4) = (8, 10) = (3, 0)
    vecs = np.array([[1, 2], [3, 4], [4, 4]])
    assert full_gradient(vecs, 5).tolist() == [3, 0]
    # zero-width rows, short and long: an empty gradient
    for k in (3, 5000):
        assert full_gradient(np.zeros((k, 0), dtype=np.int64), 5).shape == (0,)


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


@pytest.mark.parametrize("q", [2, 4, 2**16, 2**31, 2**32, 3, 65537, 2**32 - 1])
@pytest.mark.parametrize("p, d", [(4, 3), (5, 3), (2, 1), (7, 1)])
def test_random_gradients_equal_the_int64_draw(q, p, d):
    """The uint32 truth has rng.integers' int64 values and leaves the generator where it does.

    Power-of-two q on a fresh PCG64 takes the raw-stream path; the rest fall
    back to ``rng.integers``.  numpy promises no stream stability for
    generator methods across versions, so this ties the raw path to the
    installed numpy.  (5, 3) and (7, 1) draw an odd number of half words.
    """
    params = SchemeParams(s=0, u=1, m=1, p=p, d=d, q=q)
    for seed in range(3):
        for kind, (mine, reference) in _generators(seed):
            got = random_gradients(params, mine)
            want = reference.integers(0, q, size=(p, d), dtype=np.int64)
            assert got.dtype == np.uint32 and got.shape == (p, d), kind
            assert got.tolist() == want.tolist(), kind
            for draw in (lambda g: g.integers(0, 2**32, 3, dtype=np.uint32), lambda g: g.integers(q, size=3)):
                assert draw(mine).tolist() == draw(reference).tolist(), kind
            assert _state(mine) == _state(reference), kind



def _reference_column_sums(rows):
    """Column sums on Python ints, wrapped to int64 the way numpy's sum wraps."""
    out = []
    for col in rows.T.tolist():
        total = sum(col) % 2**64
        out.append(total - 2**64 if total >= 2**63 else total)
    return np.array(out, dtype=np.int64)


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


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    d=st.integers(1, 40),
    shape=_ROW_SHAPES,
    layout=st.sampled_from(["C", "F", "every-other-row", "column-slice"]),
    values=st.sampled_from(["small", "near-max", "near-min", "extremes"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_column_sums_match_python_int_reference(data, d, shape, layout, values, seed):
    w = max(1, 1024 // d)
    k = _row_count(data, w, shape)
    rng = np.random.default_rng(seed)
    limit = np.iinfo(np.int64)
    rows_needed = 2 * k if layout == "every-other-row" else k
    cols_needed = d + 3 if layout == "column-slice" else d
    size = (rows_needed, cols_needed)
    if values == "small":
        base = rng.integers(0, 2**16, size=size, dtype=np.int64)
    elif values == "near-max":  # sums wrap past the top of int64
        base = rng.integers(limit.max - 2**20, limit.max, size=size, dtype=np.int64, endpoint=True)
    elif values == "near-min":
        base = rng.integers(limit.min, limit.min + 2**20, size=size, dtype=np.int64, endpoint=True)
    else:
        base = rng.choice(np.array([limit.min, limit.max, -1, 1], dtype=np.int64), size=size)
    if layout == "C":
        rows = base
    elif layout == "F":
        rows = np.asfortranarray(base)
    elif layout == "every-other-row":
        rows = base[::2]
    else:
        rows = base[:, 1 : d + 1]
    assert rows.shape == (k, d)
    got = column_sums(rows)
    assert got.dtype == np.int64 and got.shape == (d,)
    assert np.array_equal(got, _reference_column_sums(rows))


@pytest.mark.parametrize("d, wides, tail", [(3, 16, 7), (4, 1, 0), (1030, 2, 1)])
def test_chunk_sums_match_plain_sums_across_slabs(d, wides, tail):
    # More than 2**20 elements, so the chunks are summed in several slabs.
    chunk = wides * wide_rows(d)
    n = 2**21 // (chunk * d) + 3
    limit = np.iinfo(np.int64)
    rng = np.random.default_rng(d)
    values = np.array([limit.min, limit.max, -1, 1, 12345], dtype=np.int64)
    rows = rng.choice(values, size=(n * chunk + tail, d))
    expected = rows[: n * chunk].reshape(n, chunk, d).sum(axis=1)
    assert np.array_equal(chunk_sums(rows, chunk), expected)


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
    # Blocks of 0, 2 or 3 whole label chunks plus a tail around column_sums' thresholds.
    chunk = ClaimedGradientTable.CHUNK * wide_rows(d)
    block = max(2, chunks * chunk + _row_count(data, wide_rows(d), shape))
    params = SchemeParams(s=1, u=1, m=m, p=m * block, d=d, q=q)
    rng = np.random.default_rng(seed)
    low = q - 2 if data.draw(st.booleans()) else 0  # all values at the top of the alphabet
    dtype = data.draw(st.sampled_from([np.uint32, np.int64]))  # the drawn truth is uint32
    truth = rng.integers(low, q, size=(params.p, d), dtype=dtype)
    assert np.array_equal(full_gradient(truth, q), _reference_column_sums(truth) % q)
    table = ClaimedGradientTable(params, truth)
    deviant = 1 + params.group_size * int(rng.integers(m))  # first worker of some group
    index = params.block_of_group(params.group_of_worker(deviant))[int(rng.integers(block))]
    claimed = (truth[index - 1].astype(np.int64) + 1) % q
    table.set(deviant, index, claimed)
    twin = table.honest_twin()

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

    def check_labels(tab, g):
        span = params.block_of_group(g)
        for coord in range(1, d + 1):
            prefix = [0, *accumulate(truth[span.start - 1 : span.stop - 1, coord - 1].tolist())]
            for j in params.workers_of_group(g):
                for lo, hi in sorted(ranges):
                    expected = prefix[hi - 1] - prefix[lo - 1]
                    if tab is table and j == deviant and lo <= index - span.start + 1 < hi:
                        expected += int(claimed[coord - 1]) - int(truth[index - 1, coord - 1])
                    assert tab.label(j, lo, hi, coord) == expected % q

    for g in range(1, m + 1):
        check_labels(twin, g)  # before any z0, so labels build the chunk tables
        span = params.block_of_group(g)
        rows = truth[span.start - 1 : span.stop - 1]
        for j in params.workers_of_group(g):
            expected = _reference_column_sums(rows)
            if j == deviant:
                expected = expected - truth[index - 1] + claimed
            assert np.array_equal(table.z0(j), expected % q)
        check_labels(table, g)
