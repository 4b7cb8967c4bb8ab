import json
import math

import numpy as np
import pytest

from bgcsim.adversary import (
    CallbackAdversary,
    CommitQuery,
    FlipFlopAdversary,
    InitialQuery,
    LabelQuery,
    NoAdversary,
    SymmetrizationAdversary,
    TableAdversary,
    honest_table,
)
from bgcsim.core import SchemeParams, full_gradient, random_gradients
from bgcsim.protocol import ProtocolRun, metrics_from_transcript, run_scheme

Q16 = 2**16


def _liar_table(params, truth):
    """Worker 1 claims -4 for the last gradient, shifting its block sum to 2."""
    table = honest_table(params, truth)
    table.set(1, 4, [4 - 8])
    return table


def test_two_player_walkthrough():
    # g_i = i for p=4: worker 1 claims the total is 2, worker 2 truthfully 10.
    # Both answer 3 for the first half and 3 for g3, so the dispute lands on
    # g4 with claims -4 vs 4; the oracle settles it and unmasks worker 1.
    params = SchemeParams(s=1, u=1, m=1, p=4, d=1, q=Q16)
    truth = np.array([[1], [2], [3], [4]], dtype=np.int64)
    table = _liar_table(params, truth)
    assert int(table.z0(1)[0]) == 2

    responder = TableAdversary(table, frozenset({1})).instantiate(params, truth, None)
    run = ProtocolRun(params, truth, responder)
    z0 = run.initial_round()
    assert int(z0[1][0]) == 2 and int(z0[2][0]) == 10
    pending = run.build_subsets(z0)
    sub1, sub2 = pending[1]
    outcome = run.match(1, sub1, sub2)
    assert outcome == (4, 1, (4 - 8) % Q16, 4)

    ghat, metrics, transcript = run_scheme(params, truth, TableAdversary(table, frozenset({1})))
    assert ghat.tolist() == [10]
    assert metrics.T == 2 and metrics.c == 1
    assert metrics.kappa == 4.0  # one label symbol per worker per level; u=1 has no votes
    assert transcript.oracle_calls[0].index == 4
    assert transcript.eliminated_workers() == {1}


def test_honest_world_zero_overhead():
    params = SchemeParams(s=2, u=1, m=2, p=8, d=3, q=Q16)
    truth = random_gradients(params, 0)
    ghat, metrics, transcript = run_scheme(params, truth, NoAdversary())
    assert np.array_equal(ghat, full_gradient(truth, params.q))
    assert metrics.T == 0 and metrics.c == 0 and metrics.kappa == 0.0
    assert metrics.total_comm == params.n * params.d
    assert not transcript.eliminations


def test_initial_round_messages():
    params = SchemeParams(s=1, u=1, m=2, p=4, d=3, q=Q16)
    truth = random_gradients(params, 1)
    _, metrics, transcript = run_scheme(params, truth, NoAdversary())
    initial = [m for m in transcript.messages if m.kind == "initial"]
    assert len(initial) == params.n
    assert all(m.t == 0 and m.symbols == params.d for m in initial)
    # t=0 traffic is excluded from kappa but counted in total_comm
    assert metrics.kappa == 0.0
    assert metrics.total_comm == params.n * params.d


def test_second_group_stays_unanimous(run_and_check):
    params = SchemeParams(s=2, u=1, m=2, p=8, d=1, q=Q16)
    truth = random_gradients(params, 3)
    _, _, transcript, _ = run_and_check(
        params, truth, SymmetrizationAdversary(), np.random.default_rng(3)
    )
    assert transcript.group_rounds[1] > 0
    assert transcript.group_rounds[2] == 0
    assert not [m for m in transcript.messages if m.group == 2 and m.t >= 1]


def test_replication_in_metrics():
    params = SchemeParams(s=3, u=2, m=1, p=4, d=1, q=Q16)
    truth = random_gradients(params, 0)
    _, metrics, _ = run_scheme(params, truth, NoAdversary())
    assert metrics.r == 5


def test_malformed_initial_response_eliminated(run_and_check):
    def garbage(worker, query, rng):
        if isinstance(query, InitialQuery):
            return np.zeros(5, dtype=np.int64)  # wrong length
        raise AssertionError("a malformed worker should never be queried again")

    params = SchemeParams(s=1, u=1, m=1, p=4, d=2, q=Q16)
    truth = random_gradients(params, 7)
    _, metrics, transcript, _ = run_and_check(
        params, truth, CallbackAdversary(frozenset({1}), garbage)
    )
    assert metrics.T == 0 and metrics.c == 0
    assert transcript.eliminations[0].reason == "malformed_initial"
    assert transcript.eliminations[0].workers == (1,)


def test_malformed_label_aborts_match(run_and_check):
    params = SchemeParams(s=1, u=1, m=1, p=4, d=1, q=Q16)
    truth = random_gradients(params, 11)
    honest_sum = int(truth[:, 0].sum() % params.q)

    def liar(worker, query, rng):
        if isinstance(query, InitialQuery):
            return np.array([(honest_sum + 1) % params.q], dtype=np.int64)
        return "not a symbol"

    _, metrics, transcript, _ = run_and_check(
        params, truth, CallbackAdversary(frozenset({1}), liar)
    )
    assert metrics.c == 0
    reasons = {event.reason for event in transcript.eliminations}
    assert reasons == {"malformed_label"}


def test_out_of_alphabet_label_is_malformed(run_and_check):
    params = SchemeParams(s=1, u=1, m=1, p=4, d=1, q=Q16)
    truth = random_gradients(params, 13)
    honest_sum = int(truth[:, 0].sum() % params.q)

    def liar(worker, query, rng):
        if isinstance(query, InitialQuery):
            return np.array([(honest_sum + 1) % params.q], dtype=np.int64)
        return params.q + 5

    _, _, transcript, _ = run_and_check(params, truth, CallbackAdversary(frozenset({1}), liar))
    assert {event.reason for event in transcript.eliminations} == {"malformed_label"}


def test_budget_checked_before_start():
    params = SchemeParams(s=1, u=1, m=1, p=4, d=1, q=Q16)
    truth = random_gradients(params, 0)
    oversized = CallbackAdversary(frozenset({1, 2}), lambda w, q, r: None)
    with pytest.raises(ValueError, match="budget"):
        run_scheme(params, truth, oversized)


def test_local_compute_repeat_is_an_error():
    params = SchemeParams(s=1, u=1, m=1, p=4, d=1, q=Q16)
    truth = random_gradients(params, 0)
    run = ProtocolRun(params, truth, NoAdversary().instantiate(params, truth, None))
    value = run.local_compute(1, 2, 1)
    assert value == int(truth[1, 0])
    with pytest.raises(ValueError, match="already computed"):
        run.local_compute(1, 2, 1)
    # settling again is served from the cache without a second oracle entry
    assert run._settle(1, 2, 1) == value
    assert len(run.transcript.oracle_calls) == 1


def test_repeated_leaf_dispute_served_from_cache(run_and_check):
    # Three rival singletons: workers 1 and 3 plant different values on
    # gradient 2, worker 2 on gradient 3.  Settling gradient 2 once must
    # cover both disputes without a second oracle call.
    params = SchemeParams(s=3, u=1, m=1, p=4, d=1, q=Q16)
    truth = random_gradients(params, 19)
    table = honest_table(params, truth)
    table.set(1, 2, truth[1] + 1)
    table.set(3, 2, truth[1] + 2)
    table.set(2, 3, truth[2] + 3)
    _, metrics, transcript, _ = run_and_check(
        params, truth, TableAdversary(table, frozenset({1, 2, 3}))
    )
    assert metrics.c == 2
    assert sorted(transcript.computed_indices()) == [2, 3]
    at_two = [e for e in transcript.eliminations if e.index == 2 and e.reason == "wrong_value"]
    assert len(at_two) == 2  # two separate decisions, one oracle fetch


def test_undersupported_commit_eliminates_backers(run_and_check):
    # Two consistent liars who refuse to commit: the representative's claim
    # collects only itself, short of u=2, so it is eliminated outright and
    # the leftover subset drops below u.  No oracle call is ever needed.
    params = SchemeParams(s=2, u=2, m=1, p=4, d=1, q=Q16)
    truth = random_gradients(params, 23)
    wrong = truth[0:4].copy()
    wrong[1, 0] = (wrong[1, 0] + 9) % params.q

    def cagey(worker, query, rng):
        if isinstance(query, InitialQuery):
            return wrong.sum(axis=0) % params.q
        if isinstance(query, LabelQuery):
            return int(wrong[query.lo - 1 : query.hi - 1, 0].sum() % params.q)
        if isinstance(query, CommitQuery):
            return False
        raise AssertionError

    _, metrics, transcript, _ = run_and_check(
        params, truth, CallbackAdversary(frozenset({1, 2}), cagey)
    )
    assert metrics.c == 0
    under = [e for e in transcript.eliminations if e.reason == "undersupported_commit"]
    assert under and under[0].workers == (1,)


@pytest.mark.parametrize(
    "bit", [np.array([1, 2]), "no", 2.5], ids=["array", "string", "float"]
)
def test_malformed_commit_eliminated(run_and_check, bit):
    # Three consistent liars answer every commit with something that is not
    # a bool.  None of it counts as a vote: all three, the representative
    # included, are eliminated as malformed and no oracle call is needed.
    params = SchemeParams(s=3, u=2, m=1, p=16, d=1, q=Q16)
    truth = random_gradients(params, 59)
    wrong = truth.copy()
    wrong[5, 0] = (wrong[5, 0] + 1) % params.q

    def garbled(worker, query, rng):
        if isinstance(query, InitialQuery):
            return wrong.sum(axis=0) % params.q
        if isinstance(query, LabelQuery):
            return int(wrong[query.lo - 1 : query.hi - 1, 0].sum() % params.q)
        return bit

    _, metrics, transcript, _ = run_and_check(
        params, truth, CallbackAdversary(frozenset({1, 2, 3}), garbled)
    )
    assert metrics.c == 0
    assert {event.reason for event in transcript.eliminations} == {"malformed_commit"}
    assert transcript.eliminated_workers() == {1, 2, 3}


def test_consistent_backers_all_vote(run_and_check):
    # Collusive liars commit to their shared wrong value; the honest side
    # commits too, so the leaf is settled locally and all liars go at once.
    params = SchemeParams(s=2, u=2, m=1, p=4, d=1, q=Q16)
    truth = random_gradients(params, 29)
    _, metrics, transcript, responder = run_and_check(
        params,
        truth,
        SymmetrizationAdversary(mode="collusive"),
        np.random.default_rng(29),
    )
    assert metrics.c == 1
    assert transcript.eliminated_workers() == {1, 2}
    commit_bits = sum(m.bits for m in transcript.messages if m.kind == "commit")
    assert commit_bits == 4  # every member of both subsets votes, reps included


def test_singleton_subsets_reduce_to_pairwise_flow(run_and_check):
    # u=1: every commit set contains at least the representative, so every
    # match ends in a local computation.
    params = SchemeParams(s=2, u=1, m=1, p=8, d=1, q=Q16)
    truth = random_gradients(params, 31)
    _, metrics, transcript, _ = run_and_check(
        params, truth, SymmetrizationAdversary(), np.random.default_rng(31)
    )
    assert metrics.c == 2
    assert metrics.T == 6  # two matches, three levels each


def test_draco_point_resolves_without_interaction(run_and_check):
    params = SchemeParams(s=3, u=4, m=1, p=4, d=1, q=2)
    for seed in range(50):
        truth = random_gradients(params, np.random.default_rng([seed, 0]))
        _, metrics, transcript, _ = run_and_check(
            params, truth, FlipFlopAdversary(), np.random.default_rng([seed, 1])
        )
        assert metrics.T == 0 and metrics.c == 0 and metrics.kappa == 0.0
        assert metrics.r == 2 * params.s + 1


def test_flipflop_random_match_terminates_quickly(run_and_check):
    # A uniformly random responder cannot stall the descent: every match
    # reaches a leaf in at most ceil(log2(8)) = 3 levels.
    params = SchemeParams(s=1, u=1, m=1, p=8, d=1, q=Q16)
    for seed in range(200):
        truth = random_gradients(params, np.random.default_rng([seed, 0]))
        _, metrics, _, _ = run_and_check(
            params, truth, FlipFlopAdversary(), np.random.default_rng([seed, 1])
        )
        assert metrics.T <= 3


def test_deterministic_transcripts():
    params = SchemeParams(s=2, u=1, m=1, p=8, d=2, q=Q16)
    truth = random_gradients(params, 37)
    runs = [
        run_scheme(params, truth, SymmetrizationAdversary(), rng=np.random.default_rng(37))
        for _ in range(2)
    ]
    assert runs[0][2].to_jsonl() == runs[1][2].to_jsonl()
    assert runs[0][1] == runs[1][1]


def test_random_draw_order_still_correct(run_and_check):
    params = SchemeParams(s=3, u=1, m=1, p=8, d=1, q=Q16)
    for seed in range(50):
        truth = random_gradients(params, np.random.default_rng([seed, 0]))
        run_and_check(
            params,
            truth,
            SymmetrizationAdversary(),
            np.random.default_rng([seed, 1]),
            rng=np.random.default_rng([seed, 2]),
            random_draws=True,
        )


def test_budget_truncation_skips_decode():
    params = SchemeParams(s=1, u=1, m=1, p=4, d=1, q=Q16)
    truth = random_gradients(params, 41)
    ghat, metrics, transcript = run_scheme(
        params, truth, SymmetrizationAdversary(), rng=np.random.default_rng(41), oracle_budget=0
    )
    assert ghat is None
    assert transcript.truncated
    assert metrics.c == 0


def test_kappa_recomputed_from_jsonl_export():
    params = SchemeParams(s=2, u=1, m=1, p=8, d=1, q=Q16)
    truth = random_gradients(params, 43)
    _, metrics, transcript = run_scheme(
        params, truth, SymmetrizationAdversary(), rng=np.random.default_rng(43)
    )
    symbols = bits = 0
    for line in transcript.to_jsonl().splitlines():
        record = json.loads(line)
        if "worker" in record and record["t"] >= 1:
            symbols += record["symbols"]
            bits += record["bits"]
    assert metrics.kappa == float(symbols) + bits / math.log2(params.q)
    assert metrics.kappa == transcript.kappa()


def test_smoke_grid_all_adversaries(run_and_check):
    grid = [
        SchemeParams(s=2, u=1, m=1, p=8, d=2, q=Q16),
        SchemeParams(s=3, u=2, m=1, p=8, d=1, q=2),
        SchemeParams(s=4, u=2, m=2, p=8, d=1, q=Q16),
    ]
    adversaries = [
        NoAdversary(),
        SymmetrizationAdversary(),
        SymmetrizationAdversary(mode="collusive"),
        FlipFlopAdversary(),
    ]
    for params in grid:
        for adversary in adversaries:
            for seed in range(50):
                truth = random_gradients(params, np.random.default_rng([seed, 0]))
                run_and_check(params, truth, adversary, np.random.default_rng([seed, 1]))


def test_match_rejects_identical_responses():
    params = SchemeParams(s=1, u=1, m=1, p=4, d=1, q=Q16)
    truth = random_gradients(params, 53)
    run = ProtocolRun(params, truth, NoAdversary().instantiate(params, truth, None))
    z0 = run.initial_round()
    from bgcsim.protocol import ConsistentSubset, ProtocolError

    twin1 = ConsistentSubset(group=1, workers=[1], value=z0[1])
    twin2 = ConsistentSubset(group=1, workers=[2], value=z0[2])
    with pytest.raises(ProtocolError, match="differing responses"):
        run.match(1, twin1, twin2)


def test_hammer_arbitrary_tables(run_and_check):
    # Arbitrary consistent tables are strictly stronger than the built-in
    # attacks: several subsets may dispute the same index, mimics join the
    # honest subset, malicious workers sit in any group.
    rng = np.random.default_rng(20240810)
    for _ in range(400):
        s = int(rng.integers(1, 7))
        u = int(rng.integers(1, s + 2))
        m = int(rng.integers(1, 4))
        block = int(rng.choice([2, 3, 4, 8, 17]))
        params = SchemeParams(
            s=s, u=u, m=m, p=m * block, d=int(rng.integers(1, 4)),
            q=int(rng.choice([2, 5, Q16])),
        )
        truth = random_gradients(params, rng)
        count = int(rng.integers(0, s + 1))
        malicious = frozenset(
            int(j) + 1 for j in rng.choice(params.n, size=count, replace=False)
        )
        table = honest_table(params, truth)
        for j in malicious:
            mask = rng.integers(0, 2, size=(block, params.d)).astype(bool)
            noise = rng.integers(0, params.q, size=(block, params.d))
            start = params.block_of_group(params.group_of_worker(j)).start
            rows = np.where(mask, noise, truth[start - 1 : start - 1 + block])
            for offset, row in enumerate(rows):
                table.set(j, start + offset, row)
        run_and_check(params, truth, TableAdversary(table, malicious))


def test_hammer_hostile_message_level(run_and_check):
    # Message-level chaos: wrong-shape initial vectors, garbage and
    # out-of-alphabet labels, random commits, all mixed per query.
    rng = np.random.default_rng(99)
    for trial in range(400):
        s = int(rng.integers(1, 7))
        u = int(rng.integers(1, s + 2))
        m = int(rng.integers(1, 4))
        block = int(rng.choice([2, 4, 8]))
        params = SchemeParams(
            s=s, u=u, m=m, p=m * block, d=int(rng.integers(1, 3)),
            q=int(rng.choice([2, Q16])),
        )
        truth = random_gradients(params, rng)
        count = int(rng.integers(0, s + 1))
        malicious = frozenset(
            int(j) + 1 for j in rng.choice(params.n, size=count, replace=False)
        )
        local = np.random.default_rng(trial)

        def nasty(worker, query, _rng, local=local, params=params, truth=truth):
            roll = local.integers(10)
            if isinstance(query, InitialQuery):
                if roll == 0:
                    return np.zeros(params.d + 1, dtype=np.int64)
                base = params.block_of_group(query.group)
                z = truth[base.start - 1 : base.stop - 1].sum(axis=0) % params.q
                if roll < 5:
                    z = (z + local.integers(1, params.q, size=params.d)) % params.q
                return z
            if isinstance(query, LabelQuery):
                if roll == 0:
                    return "garbage"
                if roll == 1:
                    return params.q + 7
                return int(local.integers(params.q))
            if isinstance(query, CommitQuery):
                return bool(local.integers(2))
            raise AssertionError

        run_and_check(params, truth, CallbackAdversary(malicious, nasty))


def test_metrics_match_transcript_totals():
    params = SchemeParams(s=3, u=1, m=1, p=8, d=1, q=Q16)
    truth = random_gradients(params, 47)
    _, metrics, transcript = run_scheme(
        params, truth, SymmetrizationAdversary(), rng=np.random.default_rng(47)
    )
    rebuilt = metrics_from_transcript(params, transcript)
    assert rebuilt == metrics
    assert metrics.T == max(transcript.group_rounds.values())
    assert metrics.c == len(transcript.oracle_calls)
