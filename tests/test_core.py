import numpy as np
import pytest
from fractions import Fraction

from bgcsim.core import (
    SchemeParams,
    build_fractional_repetition,
    full_gradient,
    random_gradients,
    replication_factor,
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

