import warnings

import numpy as np
import pytest

from bgcsim.adversary import (
    ClaimedGradientTable,
    CommitQuery,
    FlipFlopAdversary,
    InitialQuery,
    LabelQuery,
    SymmetrizationAdversary,
    TableAdversary,
    flip_world,
    symmetrization_attack,
    two_case_worlds,
)
from bgcsim.bounds import run_trial
from bgcsim.core import SchemeParams, full_gradient, random_gradients


def _attack(params, seed=0, **kwargs):
    truth = random_gradients(params, seed)
    rng = np.random.default_rng(seed + 1)
    table, dis = symmetrization_attack(params, truth, rng, **kwargs)
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
    table, dis = symmetrization_attack(params, truth, np.random.default_rng(0))
    assert dis.indices == ()
    assert table.identical_to(ClaimedGradientTable(params, truth))


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


def test_unknown_attack_modes_rejected():
    # "coinflip" was once a mode; it and any other name must not fall through to per-index
    params = SchemeParams(s=2, u=1, m=1, p=8, d=1, q=2**16)
    truth = random_gradients(params, 0)
    with pytest.raises(ValueError, match="unknown attack mode"):
        symmetrization_attack(params, truth, np.random.default_rng(0), mode="coinflip")
    with pytest.raises(ValueError, match="unknown attack mode"):
        SymmetrizationAdversary(mode="bogus").instantiate(params, truth, np.random.default_rng(0))


@pytest.mark.parametrize("mode", ["per-index", "collusive"])
def test_attack_at_the_top_of_the_largest_alphabet(mode):
    """q = 2**32 over a truth of all 2**32 - 1: planted values wrap mod q without a uint32 overflow."""
    params = SchemeParams(s=4, u=1, m=2, p=16, d=2, q=2**32)
    truth = np.full((params.p, params.d), 2**32 - 1, dtype=np.uint32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in range(4):
            table, dis = symmetrization_attack(params, truth, np.random.default_rng(seed), mode)
            planted = [vec for own in table.deviations.values() for vec in own.values()]
            assert planted and dis.indices
            for vec in planted:
                assert vec.dtype == np.int64 and ((0 <= vec) & (vec < params.q)).all()
                assert not np.array_equal(vec, truth[0])
            adversary = SymmetrizationAdversary(mode=mode)
            trial = run_trial(params, truth, adversary, np.random.default_rng(seed))
            assert trial.breaches == [] and trial.violations == []


def test_attack_confined_to_first_group():
    params = SchemeParams(s=2, u=1, m=2, p=8, d=1, q=2**16)
    truth, table, dis = _attack(params, seed=4)
    for j in params.workers_of_group(2):
        block = params.block_of_group(2)
        assert np.array_equal(_row(params, table, j), truth[block.start - 1 : block.stop - 1])


def test_two_case_worlds_small_grid():
    for s in range(1, 7):
        for u in range(1, s + 1):
            params = SchemeParams(s=s, u=u, m=1, p=8, d=1, q=2**16)
            w1, w2 = two_case_worlds(params, 1000 + 10 * s + u)
            assert w1.table.identical_to(w2.table)
            assert not np.array_equal(
                full_gradient(w1.truth, params.q), full_gradient(w2.truth, params.q)
            )
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
        assert not np.array_equal(
            full_gradient(w1.truth, params.q), full_gradient(w2.truth, params.q)
        )


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
    table, dis = symmetrization_attack(params, truth, rng)
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


def test_table_adversary_validates_honest_rows():
    params = SchemeParams(s=1, u=1, m=1, p=4, d=1, q=2**16)
    truth = random_gradients(params, 5)
    table = ClaimedGradientTable(params, truth)
    table.set(2, 1, truth[0] + 1)  # worker 2 altered...
    with pytest.raises(ValueError, match="honest worker"):
        TableAdversary(table, frozenset({1})).instantiate(  # ...but only 1 is malicious
            params, truth, None
        )


def test_claimed_table_rejects_unassigned_index():
    params = SchemeParams(s=1, u=1, m=2, p=8, d=1, q=2**16)
    truth = random_gradients(params, 5)
    table = ClaimedGradientTable(params, truth)
    with pytest.raises(ValueError, match="not assigned"):
        table.value(1, 5)  # worker 1 is in group 1; gradient 5 belongs to group 2


def test_table_adversary_rejects_honest_deviation_on_its_own_truth():
    params = SchemeParams(s=1, u=2, m=2, p=8, d=2, q=2**16)
    truth = random_gradients(params, 9)
    table = ClaimedGradientTable(params, truth)
    assert table.truth is truth  # the table:<file> path binds the very array it checks
    table.set(5, 6, truth[5] + 1)  # worker 5 (group 2) deviates but is not malicious
    with pytest.raises(ValueError, match="honest worker 5"):
        TableAdversary(table, frozenset({1})).instantiate(params, truth, None)


def test_differs_from_a_copy_compares_the_whole_block():
    params = SchemeParams(s=1, u=1, m=1, p=8, d=2, q=2**16)
    table = ClaimedGradientTable(params, random_gradients(params, 4))
    assert not table.differs_from(2, table.truth.copy())
    moved = table.truth.copy()  # a changed copy, as flip_world passes
    moved[6, 1] += 1
    assert table.differs_from(2, moved)
