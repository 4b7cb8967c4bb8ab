import dataclasses
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
from bgcsim.bounds import Trial, run_trial, scheme_upper_bounds, verify_run
from bgcsim.cli import main
from bgcsim.core import SchemeParams, full_gradient, random_gradients, wide_rows
from bgcsim.protocol import EliminationEvent, Message, OracleCall, ProtocolError, ProtocolRun, metrics_from_transcript
from adversaries import (
    RAISE,
    PlantedCoalitions,
    deviation_table,
    malformed_answers,
    scheme_params,
    spread_coalitions,
    worst_runs,
)
from test_acceptance import ADVERSARIES, GRID, _grid_params

Q16 = 2**16


def test_two_player_walkthrough(run_and_check):
    # g_i = i for p=4: worker 1 claims the total is 2, worker 2 truthfully 10.
    # Both answer 3 for the first half and 3 for g3, so the dispute lands on
    # g4 with claims -4 vs 4; the oracle settles it and unmasks worker 1.
    params = SchemeParams(s=1, u=1, m=1, p=4, d=1, q=Q16)
    truth = np.array([[1], [2], [3], [4]], dtype=np.int64)
    table = ClaimedGradientTable(params, truth)
    table.set(1, 4, [4 - 8])  # worker 1 claims -4 for the last gradient, shifting its block sum to 2
    assert int(table.z0(1)[0]) == 2

    responder = TableAdversary(table, frozenset({1})).instantiate(params, truth, None)
    run = ProtocolRun(params, truth, responder)
    z0 = run.initial_round()
    assert int(z0[1][0]) == 2 and int(z0[2][0]) == 10
    pending = run.build_subsets(z0)
    sub1, sub2 = pending[1]
    outcome = run.match(1, sub1, sub2)
    assert outcome == (4, 1, (4 - 8) % Q16, 4)

    ghat, metrics, transcript = run_and_check(params, truth, TableAdversary(table, frozenset({1})))
    assert ghat.tolist() == [10]
    assert metrics.T == 2 and metrics.c == 1
    assert metrics.kappa == 4.0  # one label symbol per worker per level; u=1 has no votes
    assert transcript.oracle_calls[0].index == 4
    assert transcript.eliminated_workers() == {1}


def test_honest_world_zero_overhead(run_and_check):
    params = SchemeParams(s=2, u=1, m=2, p=8, d=3, q=Q16)
    truth = random_gradients(params, 0)
    ghat, metrics, transcript = run_and_check(params, truth, NoAdversary())
    assert np.array_equal(ghat, full_gradient(truth, params.q))
    assert metrics.T == 0 and metrics.c == 0 and metrics.kappa == 0.0
    assert metrics.total_comm == params.n * params.d
    assert not transcript.eliminations


def test_initial_round_messages(run_and_check):
    params = SchemeParams(s=1, u=1, m=2, p=4, d=3, q=Q16)
    truth = random_gradients(params, 1)
    _, metrics, transcript = run_and_check(params, truth, NoAdversary())
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


def test_replication_in_metrics(run_and_check):
    params = SchemeParams(s=3, u=2, m=1, p=4, d=1, q=Q16)
    truth = random_gradients(params, 0)
    _, metrics, _ = run_and_check(params, truth, NoAdversary())
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


@pytest.mark.parametrize(
    "label", ["not a symbol", Q16 + 5, True, np.bool_(True)], ids=["string", "out-of-alphabet", "bool", "np-bool"]
)
def test_malformed_label_aborts_match(run_and_check, label):
    # Worker 1's block sum is off by one, so it plays a match, and every label
    # it sends is junk: it is eliminated at the first level, with no oracle call.
    params = SchemeParams(s=1, u=1, m=1, p=4, d=1, q=Q16)
    truth = random_gradients(params, 11)
    liar = PlantedCoalitions([((1,), 4, 1)], junk={LabelQuery: label})
    _, metrics, transcript = run_and_check(params, truth, liar)
    assert metrics.c == 0
    assert transcript.eliminations == [EliminationEvent(1, 1, (1,), "malformed_label", 0)]


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
    assert sorted(transcript.oracle_values) == [2, 3]
    at_two = [e for e in transcript.eliminations if e.index == 2 and e.reason == "wrong_value"]
    assert len(at_two) == 2  # two separate decisions, one oracle fetch


def test_undersupported_commit_eliminates_backers(run_and_check):
    # Two consistent liars who refuse to commit: the representative's claim
    # collects only itself, short of u=2, so it is eliminated outright and
    # the leftover subset drops below u.  No oracle call is ever needed.
    params = SchemeParams(s=2, u=2, m=1, p=4, d=1, q=Q16)
    truth = random_gradients(params, 23)
    cagey = PlantedCoalitions([((1, 2), 2, 9)], withhold={1, 2})
    _, metrics, transcript = run_and_check(params, truth, cagey)
    assert metrics.c == 0
    under = [e for e in transcript.eliminations if e.reason == "undersupported_commit"]
    assert under and under[0].workers == (1,)


@pytest.mark.parametrize(
    "bit", [np.array([1, 2]), "no", 2.5, 1, np.int64(1)], ids=["array", "string", "float", "int", "np-int"]
)
def test_malformed_commit_eliminated(run_and_check, bit):
    # Three consistent liars answer every commit with something that is not
    # a bool.  None of it counts as a vote: all three, the representative
    # included, are eliminated as malformed and no oracle call is needed.
    params = SchemeParams(s=3, u=2, m=1, p=16, d=1, q=Q16)
    truth = random_gradients(params, 59)
    liars = PlantedCoalitions([((1, 2, 3), 6, 1)], junk={CommitQuery: bit})
    _, metrics, transcript = run_and_check(params, truth, liars)
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
    raising = {"initial": InitialQuery, "label": LabelQuery, "commit": CommitQuery}[kind]
    liars = PlantedCoalitions([((1, 2, 3), 6, 1)], junk={raising: RAISE})
    _, metrics, transcript = run_and_check(params, truth, liars)
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


def test_deterministic_transcripts(run_and_check):
    params = SchemeParams(s=2, u=1, m=1, p=8, d=2, q=Q16)
    truth = random_gradients(params, 37)
    runs = [run_and_check(params, truth, SymmetrizationAdversary(), np.random.default_rng(37)) for _ in range(2)]
    assert runs[0][2].to_jsonl() == runs[1][2].to_jsonl()
    assert runs[0][1] == runs[1][1]


def test_kappa_recomputed_from_jsonl_export(run_and_check):
    params = SchemeParams(s=2, u=1, m=1, p=8, d=1, q=Q16)
    truth = random_gradients(params, 43)
    _, metrics, transcript = run_and_check(params, truth, SymmetrizationAdversary(), np.random.default_rng(43))
    symbols = bits = 0
    for line in transcript.to_jsonl().splitlines():
        record = json.loads(line)
        if "worker" in record and record["t"] >= 1:
            symbols += record["symbols"]
            bits += record["bits"]
    assert (transcript.kappa_symbols, transcript.kappa_bits) == (symbols, bits)
    assert metrics.kappa == float(symbols) + bits / math.log2(params.q)


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
                assert (trial.breaches, trial.violations) == ([], [])
                assert type(trial) is Trial and _exact_record(trial)
                assert all(
                    type(event) in (Message, OracleCall, EliminationEvent) and _exact_record(event)
                    for event in transcript.events
                )


def test_callback_adversary_receives_exact_query_types(run_and_check):
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
            run_and_check(params, truth, adversary)
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
    table, indices = symmetrization_attack(params, truth, np.random.default_rng(4))
    responder = TableAdversary(table, frozenset({1, 2})).instantiate(params, truth, None)
    assert ProtocolRun(params, truth, responder)._honest is table  # one memo over one truth

    # World 2 runs over a flipped copy of the truth against the same table, whose
    # reference truth is world 1's: the run must answer honest workers from its
    # own truth and keep its sums apart from the table's.
    world2 = flip_world(params, truth, table, indices[0])
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


@pytest.mark.parametrize("entry", ["empty", "truthful"])
def test_honest_deviations_entry_gets_a_fresh_honest_table(entry):
    # An honest worker listed in the table's deviations, with nothing or only
    # the truth under it, still claims the truth, but the run does not answer
    # honest workers from that table: it builds its own over the same truth.
    params = SchemeParams(s=1, u=1, m=1, p=8, d=2, q=Q16)
    truth = random_gradients(params, 5)
    table, _ = symmetrization_attack(params, truth, np.random.default_rng(6))
    table.set(2, 3, truth[2])  # leaves worker 2 an empty deviations entry
    if entry == "truthful":
        table.deviations[2][3] = truth[2].astype(np.int64)
    responder = TableAdversary(table, frozenset({1})).instantiate(params, truth, None)
    run = ProtocolRun(params, truth, responder)
    assert run._honest is not table and run._honest.truth is truth and not run._honest.deviations
    ghat, _, transcript = run.execute()
    assert verify_run(params, truth, responder.malicious, ghat, transcript) == []


def test_match_rejects_identical_responses():
    params = SchemeParams(s=1, u=1, m=1, p=4, d=1, q=Q16)
    truth = random_gradients(params, 53)
    run = ProtocolRun(params, truth, NoAdversary().instantiate(params, truth, None))
    z0 = run.initial_round()
    from bgcsim.protocol import ConsistentSubset

    twin1 = ConsistentSubset(workers=[1], value=z0[1])
    twin2 = ConsistentSubset(workers=[2], value=z0[2])
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
        run_and_check(params, truth, deviation_table(params, truth, rng))


def _stuck_tournaments(monkeypatch):
    """Make every match eliminate nobody; return the list of groups that played a match.

    Each match played is counted, and a tournament running past its bound
    fails at once, so a missing guard fails these tests instead of hanging.
    """
    played = []
    real_match = ProtocolRun.match

    def match(self, group, sub1, sub2):
        played.append(group)
        assert len(played) <= 50, "a tournament played on past its s+1-u match bound"
        return real_match(self, group, sub1, sub2)

    monkeypatch.setattr(ProtocolRun, "_eliminate", lambda self, *args, **kwargs: None)
    monkeypatch.setattr(ProtocolRun, "match", match)
    return played


def test_tournament_stops_after_its_match_bound(monkeypatch):
    # One liar among s+u=4 workers: with nobody ever eliminated, the dispute
    # never resolves, so the group plays s+1-u=3 matches and the run raises.
    params = SchemeParams(s=3, u=1, m=1, p=4, d=1, q=Q16)
    truth = random_gradients(params, 61)
    table = ClaimedGradientTable(params, truth)
    table.set(1, 2, truth[1] + 1)
    played = _stuck_tournaments(monkeypatch)
    with pytest.raises(ProtocolError, match="group 1 ends its at most s\\+1-u matches with 2 consistent subsets"):
        run_trial(params, truth, TableAdversary(table, frozenset({1})))
    assert played == [1] * 3


def test_stuck_tournament_is_one_failed_line_from_main(monkeypatch, capsys):
    played = _stuck_tournaments(monkeypatch)
    argv = ["--s", "1", "--u", "1", "--p", "4", "--d", "1", "--trials", "3", "--adversary", "symmetrization"]
    assert main(argv) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines() == [
        "FAILED: protocol error: group 1 ends its at most s+1-u matches with 2 consistent subsets at point=0 trial=0 seed=0"
    ]
    assert played == [1]


def test_oracle_call_must_be_directly_followed_by_u_wrong_value_eliminations():
    # Three rival singletons settle two leaves, so label messages follow the
    # first oracle call.  Dropping that call's wrong_value records, or moving
    # them past the next message, leaves the call eliminating nobody.
    params = SchemeParams(s=3, u=1, m=1, p=4, d=1, q=Q16)
    truth = random_gradients(params, 19)
    table = ClaimedGradientTable(params, truth)
    table.set(1, 2, truth[1] + 1)
    table.set(3, 2, truth[1] + 2)
    table.set(2, 3, truth[2] + 3)
    malicious = frozenset({1, 2, 3})
    ghat, _, transcript, breaches, _ = run_trial(params, truth, TableAdversary(table, malicious))
    assert breaches == []
    events = transcript.events
    call = next(at for at, event in enumerate(events) if type(event) is OracleCall)
    stop = call + 1
    while type(events[stop]) is EliminationEvent and events[stop].reason == "wrong_value":
        stop += 1
    assert stop > call + 1
    wrong, rest = events[call + 1 : stop], events[stop:]
    later = next(at for at, event in enumerate(rest) if type(event) is Message) + 1
    expected = [f"oracle call at index {events[call].index} eliminated 0 < u workers"]
    for edited in (events[: call + 1] + rest, events[: call + 1] + rest[:later] + wrong + rest[later:]):
        assert verify_run(params, truth, malicious, ghat, dataclasses.replace(transcript, events=edited)) == expected


def test_metrics_match_transcript_totals(run_and_check):
    params = SchemeParams(s=3, u=1, m=1, p=8, d=1, q=Q16)
    truth = random_gradients(params, 47)
    _, metrics, transcript = run_and_check(params, truth, SymmetrizationAdversary(), np.random.default_rng(47))
    rebuilt = metrics_from_transcript(params, transcript)
    assert rebuilt == metrics
    assert metrics.T == max(transcript.group_rounds.values())
    assert metrics.c == len(transcript.oracle_calls)


@settings(max_examples=400, deadline=None)
@given(data=st.data(), params=scheme_params(), seed=st.integers(0, 2**16))
def test_arbitrary_response_streams_never_break_a_run(data, params, seed):
    """Whatever a malicious worker sends or raises, the run decodes exactly,
    spares every honest worker and stays within the T/c/kappa bounds."""
    truth = random_gradients(params, seed)
    malicious = data.draw(st.sets(st.integers(1, params.n), max_size=params.s), label="malicious")
    honest = ClaimedGradientTable(params, truth)

    def stream(worker, query, rng):
        answer = data.draw(malformed_answers(params, query, honest.answer(worker, query)))
        if answer is RAISE:
            raise RuntimeError("responder failed")
        return answer

    trial = run_trial(params, truth, CallbackAdversary(frozenset(malicious), stream))
    assert (trial.breaches, trial.violations) == ([], [])


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
    assert trial.violations == [], trial.violations  # kappa is checked on exact counts


# (s, u, m, p, d, q) -> (runs, worst T, c, kappa_symbols, kappa_bits) over every
# adaptive strategy of every size-s coalition, malformed answers included.
# T_upper and c_upper are reached at each; so is kappa_upper at u = 2, and
# at u = 1 (no commits) the worst kappa is 2hs.  q = 2 runs every truth.
EXHAUSTIVE = {
    (1, 1, 1, 4, 1, 2): (288, 2, 1, 4, 0),
    (2, 2, 1, 4, 1, 2): (4512, 2, 1, 4, 4),
    (2, 1, 1, 4, 1, 3): (9984, 4, 2, 8, 0),
    (2, 2, 1, 4, 1, 3): (1104, 2, 1, 4, 4),
    (2, 1, 2, 4, 1, 3): (2004, 2, 2, 4, 0),
}


@pytest.mark.parametrize("config", EXHAUSTIVE, ids=lambda config: "-".join(map(str, config)))
def test_every_adaptive_strategy_at_tiny_configurations(config):
    """Every run of every choice tape decodes exactly, spares the honest
    workers and stays within T, c and kappa; the worst case is pinned
    exactly, so a change that lowers a cost fails too."""
    s, u, m, p, d, q = config
    assert worst_runs(SchemeParams(s=s, u=u, m=m, p=p, d=d, q=q)) == EXHAUSTIVE[config]
