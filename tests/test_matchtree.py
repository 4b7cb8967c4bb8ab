"""The binary sum-tree a match descends: claimed range sums and the range split.

Labels come from ``ClaimedGradientTable.label``; the split is observed
through the ``LabelQuery`` ranges that a recording adversary receives from
``ProtocolRun.match``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgcsim.adversary import CallbackAdversary, honest_table
from bgcsim.core import SchemeParams
from bgcsim.protocol import ConsistentSubset, ProtocolRun

Q16 = 2**16


def _match(block, answer, claims=(1, 2)):
    """One match between malicious singletons 1 and 2 claiming ``claims``.

    ``answer(worker)`` is each representative's label.  Returns the label
    ranges queried, one per level, and the match outcome.
    """
    params = SchemeParams(s=2, u=1, m=1, p=block, d=1, q=Q16)
    ranges = []

    def record(worker, query, rng):
        ranges.append((query.lo, query.hi))
        return answer(worker)

    truth = np.zeros((block, 1), dtype=np.int64)
    responder = CallbackAdversary(frozenset({1, 2}), record).instantiate(params, truth, None)
    run = ProtocolRun(params, truth, responder)
    sub1, sub2 = (
        ConsistentSubset(group=1, workers=[j], value=np.array([c], dtype=np.int64))
        for j, c in zip((1, 2), claims)
    )
    outcome = run.match(1, sub1, sub2)
    assert ranges[::2] == ranges[1::2]  # both representatives get the same query
    return ranges[::2], outcome


def _always_left(worker):
    return worker  # the representatives disagree, so the dispute moves left


def _always_right(worker):
    return 0  # the representatives agree, so the dispute moves right


def test_children_splits_at_ceiling_half():
    assert _match(4, _always_left)[0] == [(1, 3), (1, 2)]
    assert _match(2, _always_left)[0] == [(1, 2)]
    # mid = 1 + ceil(7/2) = 5
    assert _match(7, _always_left)[0][0] == (1, 5)


def test_children_partition_parent():
    for block in range(2, 41):
        lefts, outcome = _match(block, _always_left)
        assert all(lo == 1 for lo, _ in lefts)
        assert outcome[0] == 1
        rights, outcome = _match(block, _always_right)
        # each right child starts where its left sibling ends and keeps the parent's end
        lo, hi = 1, block + 1
        for left_lo, left_hi in rights:
            assert left_lo == lo and left_hi == lo + (hi - lo + 1) // 2
            lo = left_hi
        assert outcome[0] == lo == block


def test_children_of_leaf_rejected():
    # The descent stops at the first leaf it reaches and never splits one:
    # the last query of an always-left walk is the leaf [1, 2), and a block
    # of two needs a single query.
    for block in range(2, 41):
        lefts, _ = _match(block, _always_left)
        assert lefts[-1] == (1, 2) and lefts.count((1, 2)) == 1
    assert len(_match(2, _always_right)[0]) == 1


def test_node_range_validation():
    params = SchemeParams(s=1, u=1, m=1, p=4, d=1, q=Q16)
    table = honest_table(params, np.array([[1], [2], [3], [4]], dtype=np.int64))
    with pytest.raises(ValueError):
        table.label(1, 3, 3, 1)  # empty range
    with pytest.raises(ValueError):
        table.label(1, 0, 2, 1)  # positions are 1-based
    assert table.label(1, 3, 4, 1) == int(table.value(1, 3)[0])  # a leaf is one value


def test_infer_right_label():
    # Block of two: both representatives agree on the left leaf's label, so
    # the dispute moves right and each claim becomes (parent - left) mod q.
    q = Q16
    for claims, agreed, inferred in [
        ((10, 2), 3, (7, (2 - 3) % q)),
        ((5, 2), 5, (0, (2 - 5) % q)),
        ((10, 2), 7, (3, 65531)),  # modular subtraction by hand: 2 - 7 mod 2^16
    ]:
        _, outcome = _match(2, lambda worker: agreed, claims)
        assert outcome == (2, 1, *inferred)


def test_depth_bound_exhaustive():
    # The left child takes the ceiling half, so always branching left is the
    # deepest descent.
    for block in range(2, 129):
        bound = math.ceil(math.log2(block))
        assert len(_match(block, _always_left)[0]) <= bound
        assert len(_match(block, _always_right)[0]) <= bound


def test_node_label_examples():
    params = SchemeParams(s=1, u=1, m=1, p=4, d=1, q=Q16)
    table = honest_table(params, np.array([[1], [2], [3], [4]], dtype=np.int64))
    assert table.label(1, 3, 4, 1) == 3  # single leaf
    assert table.label(1, 1, 5, 1) == 10  # the root: full sum
    table.set(2, 3, [7])
    assert table.label(2, 3, 4, 1) == 7
    assert table.label(2, 1, 5, 1) == 14
    assert table.label(1, 1, 5, 1) == 10  # worker 1 is unaffected
    zeros = honest_table(SchemeParams(s=1, u=1, m=1, p=6, d=2, q=Q16), np.zeros((6, 2)))
    assert zeros.label(1, 2, 5, 2) == 0
    # ranges are local to the worker's group block: group 2 holds gradients 5..8
    two = honest_table(SchemeParams(s=1, u=1, m=2, p=8, d=1, q=Q16), np.arange(1, 9).reshape(8, 1))
    assert two.label(3, 1, 3, 1) == 5 + 6


def test_node_label_bounds_checked():
    params = SchemeParams(s=1, u=1, m=1, p=4, d=1, q=Q16)
    table = honest_table(params, np.array([[1], [2], [3], [4]], dtype=np.int64))
    with pytest.raises(ValueError):
        table.label(1, 1, 6, 1)
    with pytest.raises(ValueError):
        table.label(1, 1, 4, 2)


def test_root_vector_is_block_sum():
    params = SchemeParams(s=1, u=1, m=1, p=3, d=2, q=5)
    table = honest_table(params, np.zeros((3, 2), dtype=np.int64))
    for index, row in enumerate([[1, 2], [3, 4], [4, 4]], start=1):
        table.set(1, index, row)
    assert table.z0(1).tolist() == [3, 0]
    assert table.label(1, 1, 4, 1) == 3
    assert table.z0(2).tolist() == [0, 0]


@settings(max_examples=60, deadline=None)
@given(
    block=st.integers(min_value=2, max_value=64),
    m=st.integers(min_value=1, max_value=2),
    d=st.integers(min_value=1, max_value=3),
    q=st.sampled_from([2, 5, 2**16]),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_sibling_sum_identity(block, m, d, q, seed):
    rng = np.random.default_rng(seed)
    params = SchemeParams(s=2, u=1, m=m, p=m * block, d=d, q=q)
    table = honest_table(params, rng.integers(0, q, size=(params.p, d)))
    for j in range(1, params.n + 1):
        start = params.block_of_group(params.group_of_worker(j)).start
        for offset in rng.choice(block, size=int(rng.integers(0, block + 1)), replace=False):
            table.set(j, start + int(offset), rng.integers(0, q, size=d))
    for j in range(1, params.n + 1):
        start = params.block_of_group(params.group_of_worker(j)).start
        claims = np.array([table.value(j, start + k) for k in range(block)])
        assert table.z0(j).tolist() == (claims.sum(axis=0) % q).tolist()
        stack = [(1, block + 1)]
        while stack:
            lo, hi = stack.pop()
            for coord in range(1, d + 1):
                label = table.label(j, lo, hi, coord)
                assert label == int(claims[lo - 1 : hi - 1, coord - 1].sum() % q)
                if hi - lo > 1:
                    mid = lo + (hi - lo + 1) // 2
                    total = (table.label(j, lo, mid, coord) + table.label(j, mid, hi, coord)) % q
                    assert total == label
            if hi - lo > 1:
                mid = lo + (hi - lo + 1) // 2
                stack.extend(((lo, mid), (mid, hi)))
