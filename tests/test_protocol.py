import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, target
from hypothesis import strategies as st

from bgcsim.adversary import (
    CallbackAdversary,
    ClaimedGradientTable,
    CommitQuery,
    FlipFlopAdversary,
    InitialQuery,
    LabelQuery,
    NoAdversary,
    SymmetrizationAdversary,
    TableAdversary,
    flip_world,
    symmetrization_attack,
)
from bgcsim.bounds import Trial, check_compliance, run_trial, scheme_upper_bounds, verify_run
from bgcsim.core import SchemeParams, full_gradient, random_gradients, wide_rows
from bgcsim.protocol import EliminationEvent, Message, OracleCall, ProtocolRun, metrics_from_transcript
from adversaries import spread_coalitions
from test_acceptance import ADVERSARIES, GRID, _grid_params

Q16 = 2**16


def _liar_table(params, truth):
    """Worker 1 claims -4 for the last gradient, shifting its block sum to 2."""
    table = ClaimedGradientTable(params, truth)
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

    ghat, metrics, transcript, _, _ = run_trial(
        params, truth, TableAdversary(table, frozenset({1}))
    )
    assert ghat.tolist() == [10]
    assert metrics.T == 2 and metrics.c == 1
    assert metrics.kappa == 4.0  # one label symbol per worker per level; u=1 has no votes
    assert transcript.oracle_calls[0].index == 4
    assert transcript.eliminated_workers() == {1}


def test_honest_world_zero_overhead():
    params = SchemeParams(s=2, u=1, m=2, p=8, d=3, q=Q16)
    truth = random_gradients(params, 0)
    ghat, metrics, transcript, _, _ = run_trial(params, truth, NoAdversary())
    assert np.array_equal(ghat, full_gradient(truth, params.q))
    assert metrics.T == 0 and metrics.c == 0 and metrics.kappa == 0.0
    assert metrics.total_comm == params.n * params.d
    assert not transcript.eliminations


def test_initial_round_messages():
    params = SchemeParams(s=1, u=1, m=2, p=4, d=3, q=Q16)
    truth = random_gradients(params, 1)
    _, metrics, transcript, _, _ = run_trial(params, truth, NoAdversary())
    initial = [m for m in transcript.messages if m.kind == "initial"]
    assert len(initial) == params.n
    assert all(m.t == 0 and m.symbols == params.d for m in initial)
    # t=0 traffic is excluded from kappa but counted in total_comm
    assert metrics.kappa == 0.0
    assert metrics.total_comm == params.n * params.d


def test_second_group_stays_unanimous(run_and_check):
    params = SchemeParams(s=2, u=1, m=2, p=8, d=1, q=Q16)
    truth = random_gradients(params, 3)
    _, _, transcript = run_and_check(
        params, truth, SymmetrizationAdversary(), np.random.default_rng(3)
    )
    assert transcript.group_rounds[1] > 0
    assert transcript.group_rounds[2] == 0
    assert not [m for m in transcript.messages if m.group == 2 and m.t >= 1]


def test_replication_in_metrics():
    params = SchemeParams(s=3, u=2, m=1, p=4, d=1, q=Q16)
    truth = random_gradients(params, 0)
    _, metrics, _, _, _ = run_trial(params, truth, NoAdversary())
    assert metrics.r == 5


def test_malformed_initial_response_eliminated(run_and_check):
    asked = []

    def garbage(worker, query, rng):
        asked.append(query)
        return np.zeros(5, dtype=np.int64)  # wrong length

    params = SchemeParams(s=1, u=1, m=1, p=4, d=2, q=Q16)
    truth = random_gradients(params, 7)
    _, metrics, transcript = run_and_check(
        params, truth, CallbackAdversary(frozenset({1}), garbage)
    )
    # a malformed worker is never queried again
    assert asked == [InitialQuery(group=1)]
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

    _, metrics, transcript = run_and_check(
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

    _, _, transcript = run_and_check(params, truth, CallbackAdversary(frozenset({1}), liar))
    assert {event.reason for event in transcript.eliminations} == {"malformed_label"}


@pytest.mark.parametrize(
    "entry, dtype, malformed",
    [(0, np.int64, False), (Q16 - 1, np.int64, False), (Q16 - 1, np.uint16, False),
     (-1, np.int64, True), (Q16, np.int64, True), (2**64 - 1, np.uint64, True)],
)
def test_initial_vector_alphabet_edges(entry, dtype, malformed):
    # A malicious block sum is accepted exactly when every entry is in [0, q).
    params = SchemeParams(s=1, u=1, m=1, p=4, d=2, q=Q16)
    truth = random_gradients(params, 17)
    answer = np.array([0, entry], dtype=dtype)
    responder = CallbackAdversary(frozenset({1}), lambda w, q, r: answer).instantiate(
        params, truth, None
    )
    run = ProtocolRun(params, truth, responder)
    z0 = run.initial_round()
    assert (1 not in z0) == malformed
    if not malformed:
        assert z0[1].dtype == np.int64 and z0[1].tolist() == [0, entry]
    assert [e.reason for e in run.transcript.eliminations] == ["malformed_initial"] * malformed


def test_budget_checked_before_start():
    params = SchemeParams(s=1, u=1, m=1, p=4, d=1, q=Q16)
    truth = random_gradients(params, 0)
    oversized = CallbackAdversary(frozenset({1, 2}), lambda w, q, r: None)
    with pytest.raises(ValueError, match="budget"):
        run_trial(params, truth, oversized)


def test_local_compute_repeat_is_served_from_cache():
    params = SchemeParams(s=1, u=1, m=1, p=4, d=2, q=Q16)
    truth = random_gradients(params, 0)
    run = ProtocolRun(params, truth, NoAdversary().instantiate(params, truth, None))
    value = run.local_compute(1, 2, 1)
    assert value == int(truth[1, 0])
    # a repeat, at either coordinate, is read from the cached vector: one oracle call, c unchanged
    assert run.local_compute(1, 2, 1) == value
    assert run.local_compute(1, 2, 2) == int(truth[1, 1])
    assert run.transcript.oracle_calls == [OracleCall(0, 1, 2, 1)]
    assert metrics_from_transcript(params, run.transcript).c == 1


def test_repeated_leaf_dispute_served_from_cache(run_and_check):
    # Three rival singletons: workers 1 and 3 plant different values on
    # gradient 2, worker 2 on gradient 3.  Settling gradient 2 once must
    # cover both disputes without a second oracle call.
    params = SchemeParams(s=3, u=1, m=1, p=4, d=1, q=Q16)
    truth = random_gradients(params, 19)
    table = ClaimedGradientTable(params, truth)
    table.set(1, 2, truth[1] + 1)
    table.set(3, 2, truth[1] + 2)
    table.set(2, 3, truth[2] + 3)
    _, metrics, transcript = run_and_check(
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
    wrong[1, 0] = (int(wrong[1, 0]) + 9) % params.q
    unknown = []

    def cagey(worker, query, rng):
        if isinstance(query, InitialQuery):
            return wrong.sum(axis=0) % params.q
        if isinstance(query, LabelQuery):
            return int(wrong[query.lo - 1 : query.hi - 1, 0].sum() % params.q)
        if isinstance(query, CommitQuery):
            return False
        unknown.append(query)

    _, metrics, transcript = run_and_check(
        params, truth, CallbackAdversary(frozenset({1, 2}), cagey)
    )
    assert not unknown
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
    wrong[5, 0] = (int(wrong[5, 0]) + 1) % params.q

    def garbled(worker, query, rng):
        if isinstance(query, InitialQuery):
            return wrong.sum(axis=0) % params.q
        if isinstance(query, LabelQuery):
            return int(wrong[query.lo - 1 : query.hi - 1, 0].sum() % params.q)
        return bit

    _, metrics, transcript = run_and_check(
        params, truth, CallbackAdversary(frozenset({1, 2, 3}), garbled)
    )
    assert metrics.c == 0
    assert {event.reason for event in transcript.eliminations} == {"malformed_commit"}
    assert transcript.eliminated_workers() == {1, 2, 3}


@pytest.mark.parametrize("kind", ["initial", "label", "commit"])
def test_raising_responder_is_malformed(run_and_check, kind):
    # Three consistent liars raise instead of answering one kind of query.
    # The exception never leaves the engine: it counts as a malformed
    # answer, and no oracle call is needed to get rid of the liars.
    params = SchemeParams(s=3, u=2, m=1, p=16, d=1, q=Q16)
    truth = random_gradients(params, 61)
    wrong = truth.copy()
    wrong[5, 0] = (int(wrong[5, 0]) + 1) % params.q
    raising = {"initial": InitialQuery, "label": LabelQuery, "commit": CommitQuery}[kind]

    def brittle(worker, query, rng):
        if isinstance(query, raising):
            raise RuntimeError(f"worker {worker} will not answer")
        if isinstance(query, InitialQuery):
            return wrong.sum(axis=0) % params.q
        if isinstance(query, LabelQuery):
            return int(wrong[query.lo - 1 : query.hi - 1, 0].sum() % params.q)
        return True

    _, metrics, transcript = run_and_check(
        params, truth, CallbackAdversary(frozenset({1, 2, 3}), brittle)
    )
    assert metrics.c == 0
    assert {event.reason for event in transcript.eliminations} == {f"malformed_{kind}"}
    assert 1 in transcript.eliminated_workers()


def test_consistent_backers_all_vote(run_and_check):
    # Collusive liars commit to their shared wrong value; the honest side
    # commits too, so the leaf is settled locally and all liars go at once.
    params = SchemeParams(s=2, u=2, m=1, p=4, d=1, q=Q16)
    truth = random_gradients(params, 29)
    _, metrics, transcript = run_and_check(
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
    _, metrics, transcript = run_and_check(
        params, truth, SymmetrizationAdversary(), np.random.default_rng(31)
    )
    assert metrics.c == 2
    assert metrics.T == 6  # two matches, three levels each


def test_draco_point_resolves_without_interaction(run_and_check):
    params = SchemeParams(s=3, u=4, m=1, p=4, d=1, q=2)
    for seed in range(50):
        truth = random_gradients(params, np.random.default_rng([seed, 0]))
        _, metrics, transcript = run_and_check(
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
        _, metrics, _ = run_and_check(
            params, truth, FlipFlopAdversary(), np.random.default_rng([seed, 1])
        )
        assert metrics.T <= 3


def test_deterministic_transcripts():
    params = SchemeParams(s=2, u=1, m=1, p=8, d=2, q=Q16)
    truth = random_gradients(params, 37)
    runs = [
        run_trial(params, truth, SymmetrizationAdversary(), rng=np.random.default_rng(37))
        for _ in range(2)
    ]
    assert runs[0][2].to_jsonl() == runs[1][2].to_jsonl()
    assert runs[0][1] == runs[1][1]


def test_budget_truncation_skips_decode():
    params = SchemeParams(s=1, u=1, m=1, p=4, d=1, q=Q16)
    truth = random_gradients(params, 41)
    ghat, metrics, transcript, _, _ = run_trial(
        params, truth, SymmetrizationAdversary(), rng=np.random.default_rng(41), oracle_budget=0
    )
    assert ghat is None
    assert transcript.truncated
    assert metrics.c == 0


def test_kappa_recomputed_from_jsonl_export():
    params = SchemeParams(s=2, u=1, m=1, p=8, d=1, q=Q16)
    truth = random_gradients(params, 43)
    _, metrics, transcript, _, _ = run_trial(
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


def test_kappa_cross_check_catches_a_dropped_message():
    # kappa is counted as messages are charged; check_compliance recomputes
    # it from the message log, so a log that lost a t >= 1 message disagrees.
    params = SchemeParams(s=3, u=2, m=1, p=8, d=1, q=Q16)
    truth = random_gradients(params, 45)
    _, metrics, transcript, _, _ = run_trial(
        params, truth, SymmetrizationAdversary(), rng=np.random.default_rng(45)
    )
    assert check_compliance(params, metrics, transcript) == []
    dropped = next(m for m in transcript.messages if m.t >= 1)
    transcript.messages.remove(dropped)
    problems = check_compliance(params, metrics, transcript)
    assert problems == ["kappa recomputed from the message log disagrees with the metric"]


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


def _exact_record(record):
    """Whether ``record`` is an exact instance of its NamedTuple type, equal to its field-wise construction."""
    cls = type(record)
    return cls in (Message, OracleCall, EliminationEvent, Trial, InitialQuery, LabelQuery, CommitQuery) and (
        record == cls(*record)
    )


def test_records_are_exact_namedtuples_over_the_criterion_1_grid():
    # The engine builds its records with tuple.__new__, skipping the generated
    # __new__, so check that nothing but the declared fields ends up in them.
    for entry in GRID:
        params = _grid_params(entry)
        for adversary in ADVERSARIES.values():
            for seed in range(3):
                truth = random_gradients(params, np.random.default_rng([seed, 0]))
                trial = run_trial(params, truth, adversary, np.random.default_rng([seed, 1]))
                transcript = trial.transcript
                assert type(trial) is Trial and _exact_record(trial)
                assert all(type(m) is Message and _exact_record(m) for m in transcript.messages)
                assert all(type(c) is OracleCall and _exact_record(c) for c in transcript.oracle_calls)
                assert all(type(e) is EliminationEvent and _exact_record(e) for e in transcript.eliminations)


def test_callback_adversary_receives_exact_query_types():
    seen = set()

    def answering_from(table):
        def fn(worker, query, rng):
            assert type(query) in (InitialQuery, LabelQuery, CommitQuery) and _exact_record(query)
            seen.add(type(query))
            return table.answer(worker, query)

        return fn

    for entry in GRID:
        params = _grid_params(entry)
        for mode in ("per-index", "collusive"):
            truth = random_gradients(params, np.random.default_rng([entry[0], 0]))
            table, _ = symmetrization_attack(params, truth, np.random.default_rng([entry[0], 1]), mode)
            adversary = CallbackAdversary(frozenset(range(1, params.s + 1)), answering_from(table))
            assert not run_trial(params, truth, adversary).breaches
    assert seen == {InitialQuery, LabelQuery, CommitQuery}


def test_build_subsets_in_first_worker_order():
    params = SchemeParams(s=5, u=1, m=2, p=8, d=1, q=Q16)
    rng = np.random.default_rng(0)
    for _ in range(50):
        run = ProtocolRun(params, random_gradients(params, rng), NoAdversary().instantiate(params, None, None))
        z0 = {j: np.array([int(rng.integers(3))], dtype=np.int64) for j in range(1, params.n + 1)}
        for g, subsets in run.build_subsets(z0).items():
            firsts = [sub.workers[0] for sub in subsets]
            assert firsts == sorted(firsts) and all(sub.workers == sorted(sub.workers) for sub in subsets)


def test_honest_answers_share_sums_only_over_the_runs_truth():
    chunk = ClaimedGradientTable.CHUNK * wide_rows(2)
    params = SchemeParams(s=2, u=1, m=1, p=2 * chunk + 3, d=2, q=Q16)  # two chunks and a tail
    truth = random_gradients(params, 3)
    table, disagreement = symmetrization_attack(params, truth, np.random.default_rng(4))
    responder = TableAdversary(table, frozenset({1, 2})).instantiate(params, truth, None)
    twin = ProtocolRun(params, truth, responder)._honest
    assert twin._sums is table._sums and not twin.deviations  # one memo over one truth

    # World 2 runs over a flipped copy of the truth against the same table, whose
    # reference truth is world 1's: the run must answer honest workers from its
    # own truth and keep its sums apart from the table's.
    world2 = flip_world(params, truth, table, disagreement.indices[0])
    responder = TableAdversary(table, world2.malicious).instantiate(params, world2.truth, None)
    run = ProtocolRun(params, world2.truth, responder)
    assert run._honest.truth is world2.truth and run._honest._sums is not table._sums
    ghat, _, transcript = run.execute()
    assert verify_run(params, world2.truth, world2.malicious, ghat, transcript) == []
    block_sum = world2.truth.sum(axis=0) % params.q
    assert run._honest._sums[1][1].tolist() == block_sum.tolist()
    assert table._sums[1][1].tolist() == (truth.sum(axis=0) % params.q).tolist()
    # At a power-of-two q the uint16 truth sums wrap mod 2**16, so the chunk
    # prefix is pinned only mod q.
    for memo, rows in ((run._honest._sums, world2.truth), (table._sums, truth)):
        assert (memo[1][0] % params.q).tolist() == [(rows[: i * chunk].sum(axis=0) % params.q).tolist() for i in range(3)]
    b = params.block_size + 1
    ranges = [(1, 9), (1, 5), (5, 9), (3, 4), (1, b), (2, b), (chunk + 1, b), (chunk - 1, 2 * chunk + 3)]
    for j in sorted(set(params.workers_of_group(1)) - world2.malicious):
        assert run._honest.z0(j).tolist() == table.z0(j).tolist() == block_sum.tolist()
        for lo, hi in ranges:
            for coord in (1, 2):
                assert run._honest.label(j, lo, hi, coord) == table.label(j, lo, hi, coord)


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
        table = ClaimedGradientTable(params, truth)
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
    unknown = []
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
            unknown.append(query)

        run_and_check(params, truth, CallbackAdversary(malicious, nasty))
        assert not unknown


def test_metrics_match_transcript_totals():
    params = SchemeParams(s=3, u=1, m=1, p=8, d=1, q=Q16)
    truth = random_gradients(params, 47)
    _, metrics, transcript, _, _ = run_trial(
        params, truth, SymmetrizationAdversary(), rng=np.random.default_rng(47)
    )
    rebuilt = metrics_from_transcript(params, transcript)
    assert rebuilt == metrics
    assert metrics.T == max(transcript.group_rounds.values())
    assert metrics.c == len(transcript.oracle_calls)


class _Raise:
    """Drawn in place of a response: the responder raises instead of answering."""


def _responses(params, query, honest):
    """Every kind of answer a malicious worker might send to ``query``."""
    q, d = params.q, params.d
    junk = st.sampled_from([None, "7", "", 2.5, float("nan"), [], object()])
    raising = st.just(_Raise)
    if isinstance(query, InitialQuery):
        valid = st.lists(st.integers(0, q - 1), min_size=d, max_size=d)
        return st.one_of(
            st.just(honest),  # the honest block sum, so liars can join the honest subset
            valid.map(lambda v: np.array(v, dtype=np.int64)),
            valid,  # a plain list of ints is a valid vector too
            valid.map(lambda v: np.array(v, dtype=np.float64)),  # wrong dtype
            valid.map(lambda v: np.array([v], dtype=np.int64)),  # wrong shape
            st.integers(0, d + 2).filter(lambda k: k != d).map(lambda k: np.zeros(k, dtype=np.int64)),
            st.sampled_from([-1, q, 2**63, 2**64]).map(lambda x: [x] * d),  # out of the alphabet
            valid.map(lambda v: [bool(x % 2) for x in v]),  # bools where symbols belong
            junk,
            raising,
        )
    if isinstance(query, LabelQuery):
        valid = st.integers(0, q - 1)
        return st.one_of(
            st.just(honest),
            valid,
            valid.map(np.int64),
            valid.map(np.uint64),
            st.integers(min_value=q, max_value=2**70),  # out of the alphabet
            st.integers(max_value=-1),
            st.booleans(),  # a bool is not a label
            st.booleans().map(np.bool_),
            valid.map(lambda x: np.array([x])),  # wrong shape
            st.floats(),
            junk,
            raising,
        )
    return st.one_of(
        st.booleans(),
        st.booleans().map(np.bool_),
        st.integers(0, 1),  # an int is not a commit bit
        st.just(np.array([True])),
        junk,
        raising,
    )


# Acceptance-grid points (s, u, m, p/m, d, q) with commit votes, several
# groups and both alphabets, and one where a coalition split over both groups
# can cost more kappa than all s in one group: 66.0 against 63.0.
_FUZZ_GRID = [
    (2, 1, 1, 8, 2, Q16), (3, 2, 1, 8, 1, 2), (4, 2, 3, 4, 1, Q16), (5, 3, 1, 8, 4, Q16), (8, 2, 2, 2, 1, 2)
]


@settings(max_examples=190, deadline=None)  # about as many examples per point as at four points
@given(data=st.data(), point=st.sampled_from(_FUZZ_GRID), seed=st.integers(0, 2**16))
def test_arbitrary_response_streams_never_break_a_run(data, point, seed):
    """Whatever a malicious worker sends or raises, the run decodes exactly,
    spares every honest worker and stays within the T/c/kappa bounds."""
    s, u, m, block, d, q = point
    params = SchemeParams(s=s, u=u, m=m, p=m * block, d=d, q=q)
    truth = random_gradients(params, seed)
    malicious = data.draw(
        st.sets(st.integers(1, params.n), max_size=params.s), label="malicious"
    )
    honest = ClaimedGradientTable(params, truth)

    def stream(worker, query, rng):
        answer = data.draw(_responses(params, query, honest.answer(worker, query)))
        if answer is _Raise:
            raise RuntimeError("responder failed")
        return answer

    responder = CallbackAdversary(frozenset(malicious), stream).instantiate(params, truth, None)
    ghat, metrics, transcript = ProtocolRun(params, truth, responder).execute()
    assert verify_run(params, truth, responder.malicious, ghat, transcript) == []
    assert check_compliance(params, metrics, transcript) == []


@settings(max_examples=400, deadline=None)
@given(spread_coalitions())
def test_spread_coalitions_stay_within_t_and_kappa_upper(case):
    """Coalitions spread over groups, with planted leaves, withheld commits and
    liars in the honest subset, never push T or kappa past their bounds; the
    search climbs both ratios toward 1."""
    params, truth, adversary = case
    trial = run_trial(params, truth, adversary)
    assert trial.breaches == [], trial.breaches
    _, t_upper, kappa_upper = scheme_upper_bounds(params)
    t_ratio, kappa_ratio = trial.metrics.T / t_upper, trial.metrics.kappa / kappa_upper
    target(t_ratio, label="T/T_upper")
    target(kappa_ratio, label="kappa/kappa_upper")
    assert t_ratio <= 1, (trial.metrics.T, t_upper)
    assert kappa_ratio <= 1 + 1e-12, (trial.metrics.kappa, kappa_upper)  # equality up to float rounding
    assert trial.violations == [], trial.violations
