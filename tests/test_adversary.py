import numpy as np
import pytest

from bgcsim.adversary import (
    CommitQuery,
    FlipFlopAdversary,
    InitialQuery,
    LabelQuery,
    SymmetrizationAdversary,
    TableAdversary,
    flip_world,
    honest_table,
    symmetrization_attack,
    two_case_worlds,
)
from bgcsim.core import SchemeParams, random_gradients


def _attack(params, seed=0, **kwargs):
    truth = random_gradients(params, seed)
    rng = np.random.default_rng(seed + 1)
    table, dis = symmetrization_attack(
        params, truth, list(range(1, params.s + 1)), rng, **kwargs
    )
    return truth, table, dis


def _row(params, table, j):
    """Worker j's claimed block as a dense (p/m, d) array."""
    block = params.block_of_group(params.group_of_worker(j))
    return np.array([table.value(j, i) for i in block])


def _deviating_workers(params, truth, table, index):
    return [
        j
        for j in params.workers_of_group(1)
        if not np.array_equal(table.value(j, index), truth[index - 1])
    ]


def test_per_index_shape_smallest():
    # u=1, s=2, p=4: two disputed indices, one deviator each, worker 3 honest
    params = SchemeParams(s=2, u=1, m=1, p=4, d=1, q=2**16)
    truth, table, dis = _attack(params)
    assert len(dis.indices) == 2
    deviators = set()
    for index in dis.indices:
        who = _deviating_workers(params, truth, table, index)
        assert len(who) == 1
        deviators.update(who)
    assert deviators <= {1, 2}
    # the honest worker's row is the truth
    assert np.array_equal(_row(params, table, 3), truth[0:4])


def test_s_zero_table_is_truth():
    params = SchemeParams(s=0, u=2, m=1, p=4, d=1, q=2**16)
    truth = random_gradients(params, 3)
    table, dis = symmetrization_attack(params, truth, [], np.random.default_rng(0))
    assert dis.indices == ()
    assert table.identical_to(honest_table(params, truth))


def test_leftover_workers_claim_truth():
    # s=5, u=2: floor(5/2)=2 deviating pairs; the fifth malicious worker stays truthful
    params = SchemeParams(s=5, u=2, m=1, p=8, d=1, q=2**16)
    truth, table, dis = _attack(params, seed=9)
    assert len(dis.indices) == 2
    for chunk, index in enumerate(dis.indices):
        who = _deviating_workers(params, truth, table, index)
        assert who == [2 * chunk + 1, 2 * chunk + 2]
        # both members of the pair plant the same value
        assert np.array_equal(table.value(who[0], index), table.value(who[1], index))
    assert np.array_equal(_row(params, table, 5), truth[0:8])  # worker 5 is the leftover


def test_leftover_mimic_option():
    params = SchemeParams(s=5, u=2, m=1, p=8, d=1, q=2**16)
    truth = random_gradients(params, 9)
    copies = 0
    for seed in range(30):
        table, dis = symmetrization_attack(
            params, truth, [1, 2, 3, 4, 5], np.random.default_rng(seed), leftover_mimic=True
        )
        row = _row(params, table, 5)
        if not np.array_equal(row, truth[0:8]):
            # must be a byte-for-byte copy of one deviating pair's row
            assert any(np.array_equal(row, _row(params, table, j)) for j in (1, 3))
            copies += 1
    assert 0 < copies < 30  # both branches of the mimic choice occur


@pytest.mark.parametrize("s", range(1, 7))
def test_per_index_invariants(s):
    for u in range(1, s + 1):
        params = SchemeParams(s=s, u=u, m=1, p=8, d=2, q=2**16)
        truth, table, dis = _attack(params, seed=100 + 10 * s + u)
        n_dev = s // u
        assert len(dis.indices) == n_dev
        assert set(dis.indices) <= set(params.block_of_group(1))
        touched = set()
        for index in dis.indices:
            who = _deviating_workers(params, truth, table, index)
            assert len(who) == u  # exactly one size-u subset deviates per index
            touched.update(who)
        # honest workers' rows equal the truth; deviations confined to the set
        for j in params.workers_of_group(1):
            diff = [
                i
                for i in params.block_of_group(1)
                if not np.array_equal(table.value(j, i), truth[i - 1])
            ]
            if j > s:
                assert diff == []
            assert set(diff) <= set(dis.indices)
        assert len(touched) <= s


def test_collusive_single_index():
    params = SchemeParams(s=4, u=2, m=1, p=8, d=1, q=2**16)
    truth, table, dis = _attack(params, seed=5, mode="collusive")
    disputed = [
        i
        for i in params.block_of_group(1)
        if _deviating_workers(params, truth, table, i)
    ]
    assert len(disputed) == 1
    assert disputed[0] in dis.indices
    who = _deviating_workers(params, truth, table, disputed[0])
    assert who == [1, 2, 3, 4]
    values = {table.value(j, disputed[0]).tobytes() for j in who}
    assert len(values) == 1  # everyone plants the same wrong value


def test_coinflip_hits_both_branches():
    params = SchemeParams(s=4, u=1, m=1, p=8, d=1, q=2**16)
    truth = random_gradients(params, 2)
    modes = set()
    for seed in range(20):
        table, dis = symmetrization_attack(
            params, truth, [1, 2, 3, 4], np.random.default_rng(seed), mode="coinflip"
        )
        disputed = sum(
            1 for i in params.block_of_group(1) if _deviating_workers(params, truth, table, i)
        )
        modes.add("collusive" if disputed == 1 else "per-index")
    assert modes == {"collusive", "per-index"}


def test_attack_confined_to_first_group():
    params = SchemeParams(s=2, u=1, m=2, p=8, d=1, q=2**16)
    truth, table, dis = _attack(params, seed=4)
    for j in params.workers_of_group(2):
        block = params.block_of_group(2)
        assert np.array_equal(_row(params, table, j), truth[block.start - 1 : block.stop - 1])


def test_attack_rejects_bad_malicious_sets():
    params = SchemeParams(s=2, u=1, m=2, p=8, d=1, q=2**16)
    truth = random_gradients(params, 0)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="exactly s"):
        symmetrization_attack(params, truth, [1], rng)
    with pytest.raises(ValueError, match="spans multiple groups"):
        symmetrization_attack(params, truth, [1, 4], rng)
    with pytest.raises(ValueError, match="first group"):
        symmetrization_attack(params, truth, [4, 5], rng)


def test_two_case_worlds_small_grid():
    for s in range(1, 7):
        for u in range(1, s + 1):
            params = SchemeParams(s=s, u=u, m=1, p=8, d=1, q=2**16)
            w1, w2 = two_case_worlds(params, 1000 + 10 * s + u)
            assert w1.table.identical_to(w2.table)
            assert not np.array_equal(w1.full_gradient(), w2.full_gradient())
            assert len(w1.malicious) <= s and len(w2.malicious) <= s


def test_two_case_worlds_random_params():
    rng = np.random.default_rng(77)
    for _ in range(100):
        s = int(rng.integers(1, 6))
        u = int(rng.integers(1, s + 1))
        block = int(rng.integers(max(2, s // u), 17))
        params = SchemeParams(s=s, u=u, m=1, p=block, d=int(rng.integers(1, 4)), q=2**16)
        w1, w2 = two_case_worlds(params, rng)
        assert w1.table.identical_to(w2.table)
        assert not np.array_equal(w1.full_gradient(), w2.full_gradient())


def test_two_case_worlds_requires_a_dispute():
    params = SchemeParams(s=1, u=2, m=1, p=4, d=1, q=2**16)
    with pytest.raises(ValueError):
        two_case_worlds(params, 0)


def test_every_flip_yields_another_indistinguishable_world():
    # s=2, u=1: the baseline world plus one flip per disputed index gives
    # three pairwise-distinct ground truths behind a single claimed table.
    params = SchemeParams(s=2, u=1, m=1, p=4, d=1, q=2**16)
    truth, table, dis = _attack(params, seed=12)
    assert len(dis.indices) == 2
    worlds = [truth]
    for index in dis.indices:
        world = flip_world(params, truth, table, index)
        assert world.table.identical_to(table)
        assert len(world.malicious) == params.s
        worlds.append(world.truth)
    sums = {int(w.sum() % params.q) for w in worlds}
    assert len(sums) == 3


def test_flip_world_swaps_roles():
    params = SchemeParams(s=2, u=1, m=1, p=4, d=1, q=2**16)
    truth, table, dis = _attack(params, seed=8)
    world = flip_world(params, truth, table, dis.indices[0])
    assert len(world.malicious) == params.s
    # the flipped index's deviator is honest in the new world
    old = set(_deviating_workers(params, truth, table, dis.indices[0]))
    assert old.isdisjoint(world.malicious)


def test_table_responder_answers_from_table():
    params = SchemeParams(s=2, u=1, m=1, p=4, d=2, q=2**16)
    truth = random_gradients(params, 21)
    rng = np.random.default_rng(22)
    table, dis = symmetrization_attack(params, truth, [1, 2], rng)
    responder = SymmetrizationAdversary().instantiate(params, truth, np.random.default_rng(22))
    z0 = responder.respond(1, InitialQuery(group=1))
    assert np.array_equal(z0, responder.table.z0(1))
    label = responder.respond(1, LabelQuery(group=1, lo=1, hi=3, coord=2))
    assert label == responder.table.label(1, 1, 3, 2)
    index = dis.indices[0] if dis.indices else 1
    value = int(responder.table.value(1, index)[0])
    assert responder.respond(1, CommitQuery(group=1, index=index, coord=1, value=value))


def test_honest_worker_routed_to_adversary_errors():
    params = SchemeParams(s=1, u=1, m=1, p=4, d=1, q=2**16)
    truth = random_gradients(params, 0)
    responder = SymmetrizationAdversary().instantiate(params, truth, np.random.default_rng(0))
    with pytest.raises(ValueError, match="not controlled"):
        responder.respond(2, InitialQuery(group=1))


def test_flipflop_is_inconsistent():
    params = SchemeParams(s=2, u=1, m=1, p=8, d=1, q=2**16)
    truth = random_gradients(params, 0)
    responder = FlipFlopAdversary().instantiate(params, truth, np.random.default_rng(0))
    worker = sorted(responder.malicious)[0]
    query = LabelQuery(group=1, lo=1, hi=5, coord=1)
    answers = {responder.respond(worker, query) for _ in range(32)}
    assert len(answers) > 1  # same query, different rounds, different answers


def test_flipflop_respects_budget():
    params = SchemeParams(s=2, u=1, m=1, p=4, d=1, q=2**16)
    truth = random_gradients(params, 0)
    with pytest.raises(ValueError, match="budget"):
        FlipFlopAdversary(count=3).instantiate(params, truth, np.random.default_rng(0))


def test_table_adversary_validates_honest_rows():
    params = SchemeParams(s=1, u=1, m=1, p=4, d=1, q=2**16)
    truth = random_gradients(params, 5)
    table = honest_table(params, truth)
    table.set(2, 1, truth[0] + 1)  # worker 2 altered...
    with pytest.raises(ValueError, match="honest worker"):
        TableAdversary(table, frozenset({1})).instantiate(  # ...but only 1 is malicious
            params, truth, None
        )


def test_claimed_table_rejects_unassigned_index():
    params = SchemeParams(s=1, u=1, m=2, p=8, d=1, q=2**16)
    truth = random_gradients(params, 5)
    table = honest_table(params, truth)
    with pytest.raises(ValueError, match="not assigned"):
        table.value(1, 5)  # worker 1 is in group 1; gradient 5 belongs to group 2
