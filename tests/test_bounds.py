import hashlib
import math

import numpy as np
import pytest

from bgcsim.adversary import (
    TableAdversary,
    symmetrization_attack,
    two_case_worlds,
)
from bgcsim.bounds import (
    BoundsReport,
    comm_lower,
    disagreement_coverage_check,
    draco_baseline,
    indistinguishability_check,
    local_comp_lower,
    ratio_limit,
    run_trial,
    scheme_upper_bounds,
)
from bgcsim.core import SchemeParams, random_gradients

from adversaries import balanced_sizes, deepest_leaf_coalitions

Q16 = 2**16


def _params(s, u, p=None, m=1, q=Q16, d=1):
    if p is None:
        p = m * max(2, s // u + 1)
    return SchemeParams(s=s, u=u, m=m, p=p, d=d, q=q)


def test_local_comp_lower_tick_sequence():
    values = [local_comp_lower(_params(10, u, p=16)) for u in range(1, 12)]
    assert values == [10, 5, 3, 2, 2, 1, 1, 1, 1, 1, 0]


def test_local_comp_lower_edge_cases():
    assert local_comp_lower(_params(0, 1, p=4)) == 0
    assert local_comp_lower(_params(7, 3, p=4)) == 2


def test_comm_lower_exact_small_case():
    # exact binomial: C(8, 2) = 28
    params = _params(2, 1, p=8)
    expected = math.log2(math.comb(8, 2)) / math.log2(Q16)
    assert comm_lower(params) == expected
    assert abs(comm_lower(params) - 0.30045968262860026) < 1e-15


def test_comm_lower_vacuous_when_no_dispute():
    assert comm_lower(_params(1, 2, p=4)) == 0.0
    assert comm_lower(_params(0, 1, p=4)) == 0.0


def test_comm_lower_big_integer_binomial():
    params = _params(10, 1, p=10**4)
    exact = math.comb(10**4, 10)
    assert exact.bit_length() > 100  # far beyond any fixed-width integer
    assert comm_lower(params) == math.log2(exact) / 16


def test_comm_lower_rejects_undersized_block():
    with pytest.raises(ValueError, match="invalid configuration"):
        comm_lower(SchemeParams(s=5, u=1, m=1, p=4, d=1, q=Q16))


def test_scheme_upper_bounds_pinned_case():
    # independent evaluation: s=2, u=1, p=8 -> (2, 2*3, 2*(2*3 + 5/32))
    c_up, t_up, kappa_up = scheme_upper_bounds(_params(2, 1, p=8))
    assert (c_up, t_up) == (2, 6)
    assert kappa_up == 2 * (2 * math.ceil(math.log2(8)) + (2 + 3) / (2 * 16))
    assert abs(kappa_up - 12.3125) < 1e-12


def test_scheme_upper_bounds_degenerate_and_large():
    assert scheme_upper_bounds(_params(3, 4, p=4)) == (0, 0, 0.0)
    c_up, t_up, kappa_up = scheme_upper_bounds(_params(10, 1, p=10**4))
    assert (c_up, t_up) == (10, 140)  # ceil(log2(1e4)) = 14
    assert abs(kappa_up - 284.0625) < 1e-12  # 10 * (28 + 13/32)
    # float log2(2**49 + 1) rounds to 49.0; the match depth is 50
    _, t_up, _ = scheme_upper_bounds(SchemeParams(s=1, u=1, m=1, p=2**49 + 1, d=1, q=2))
    assert t_up == 50


def test_ratio_limit_values():
    # s=u collapses the numerator and denominator: limit is 2 log2(q)
    assert ratio_limit(_params(3, 3)) == 2 * math.log2(Q16)
    assert ratio_limit(_params(3, 3, q=2)) == 2.0
    # 2 * 16 * (9-2+1) / floor(9/2) = 2*16*8/4
    assert ratio_limit(_params(9, 2, p=8)) == 64.0
    # 2 * 16 * 10 / 10
    assert ratio_limit(_params(10, 1, p=16)) == 32.0


def test_ratio_limit_undefined_without_dispute():
    with pytest.raises(ValueError):
        ratio_limit(_params(1, 2))


def test_draco_baseline():
    metrics = draco_baseline(SchemeParams(s=10, u=11, m=1, p=16, d=10**6, q=Q16))
    assert metrics.total_comm == 21 * 10**6
    assert metrics.T == metrics.c == 0 and metrics.kappa == 0.0
    assert draco_baseline(_params(0, 1)).r == 1
    # at u=1 the scheme needs s+1 workers against the baseline's 2s+1
    s = 10
    assert (s + 1) / (2 * s + 1) == pytest.approx(11 / 21)


def test_bounds_report_upper_dominates_lower():
    checked = 0
    for s in range(1, 13):
        for u in range(1, s + 2):
            for block in (2, 8, 64, 2**10, 2**20):
                if block < max(2, s // u):
                    continue
                params = SchemeParams(s=s, u=u, m=1, p=block, d=1, q=Q16)
                report = BoundsReport.from_params(params)
                assert report.kappa_upper >= report.kappa_lower
                assert report.c_upper == report.c_lower
                checked += 1
    assert checked > 200


def test_bounds_report_serializes():
    report = BoundsReport.from_params(_params(2, 1, p=8))
    assert vars(report)["c_lower"] == 2  # the CLI writes its rows from vars(report)


def test_coverage_per_index_attack():
    params = SchemeParams(s=3, u=1, m=1, p=8, d=1, q=Q16)
    for seed in range(25):
        truth = random_gradients(params, np.random.default_rng([seed, 0]))
        rng = np.random.default_rng([seed, 1])
        table, disagreement = symmetrization_attack(params, truth, rng)
        _, metrics, transcript, _, _ = run_trial(
            params, truth, TableAdversary(table, frozenset({1, 2, 3}))
        )
        assert metrics.c == 3
        assert set(transcript.computed_indices()) == set(disagreement.indices)
        assert disagreement_coverage_check(transcript, disagreement, table)


def test_coverage_trivial_when_honest():
    params = SchemeParams(s=0, u=2, m=1, p=4, d=1, q=Q16)
    truth = random_gradients(params, 0)
    table, disagreement = symmetrization_attack(params, truth, np.random.default_rng(0))
    _, _, transcript, _, _ = run_trial(params, truth, TableAdversary(table, frozenset()))
    assert disagreement_coverage_check(transcript, disagreement, table)


def test_coverage_collusive_single_call():
    params = SchemeParams(s=4, u=2, m=1, p=8, d=1, q=Q16)
    for seed in range(25):
        truth = random_gradients(params, np.random.default_rng([seed, 0]))
        rng = np.random.default_rng([seed, 1])
        table, disagreement = symmetrization_attack(params, truth, rng, mode="collusive")
        _, metrics, transcript, _, _ = run_trial(
            params, truth, TableAdversary(table, frozenset({1, 2, 3, 4}))
        )
        assert metrics.c <= 1
        assert set(transcript.computed_indices()) <= set(disagreement.indices)
        assert disagreement_coverage_check(transcript, disagreement, table)


def test_witness_smallest_instance():
    params = SchemeParams(s=1, u=1, m=1, p=2, d=1, q=Q16)
    witness = indistinguishability_check(params, budget=0, seed=3)
    assert witness.indistinguishable
    assert witness.gradients_differ


def test_witness_leaves_an_uncomputed_index():
    params = SchemeParams(s=3, u=1, m=1, p=8, d=1, q=Q16)
    witness = indistinguishability_check(params, budget=2, seed=5)
    assert witness.indistinguishable and witness.gradients_differ


def test_witness_rejects_sufficient_budget():
    params = SchemeParams(s=2, u=1, m=1, p=4, d=1, q=Q16)
    with pytest.raises(ValueError, match="no witness"):
        indistinguishability_check(params, budget=2, seed=0)


# Converse witnesses: ((s, u, m, p, d, q), budget, seed) -> flip index and the
# sha256 of both decoder inputs, recorded before the witness and
# two_case_worlds shared one world builder.
GOLDEN_WITNESS = [
    (
        ((1, 1, 1, 2, 1, Q16), 0, 3), 1,
        "d3fbf140f1bd74fc64a5274fb44c09ee91c5ff86fbded46a34e34b9280a0c53d",
        "d3fbf140f1bd74fc64a5274fb44c09ee91c5ff86fbded46a34e34b9280a0c53d",
    ),
    (
        ((3, 1, 1, 8, 1, Q16), 2, 5), 6,
        "2953f8f6ac203ab924e18a39a1881ba8b3548960fcadacf886f3ed1631c41a71",
        "2953f8f6ac203ab924e18a39a1881ba8b3548960fcadacf886f3ed1631c41a71",
    ),
    (
        ((5, 2, 2, 16, 2, Q16), 1, 7), 8,
        "8018dcee5a8c8c9b059771218b176f4eeaaae34030f0bf9eb571b9d3a3edfb6b",
        "8018dcee5a8c8c9b059771218b176f4eeaaae34030f0bf9eb571b9d3a3edfb6b",
    ),
    (
        ((6, 3, 1, 12, 3, 2), 1, 11), 11,
        "c625b8f9b200de3125519b67ac60073378f7de1e1b09d2c5c8a0a0374d775932",
        "c625b8f9b200de3125519b67ac60073378f7de1e1b09d2c5c8a0a0374d775932",
    ),
    (
        ((4, 1, 3, 24, 2, 5), 3, 13), 3,
        "cd05efe8fe2d41f7e174b6c13eafaa7d4e3346a242ba92c04c962cce67c74487",
        "cd05efe8fe2d41f7e174b6c13eafaa7d4e3346a242ba92c04c962cce67c74487",
    ),
]
# sha256 over two_case_worlds' claimed table, both truths and both malicious
# sets, for seeds 0..7 at each of these (s, u, m, p, d, q).
GOLDEN_WITNESS_WORLDS = (
    [(1, 1, 1, 2, 1, Q16), (3, 1, 1, 8, 2, Q16), (5, 2, 2, 16, 1, 2), (4, 4, 1, 6, 3, 7)],
    "33d677327c6d34a9c3599bacedb4331dfcff0f15b1be6a62406a5d188f61e612",
)


@pytest.mark.parametrize(
    "point, flip_index, digest_1, digest_2",
    GOLDEN_WITNESS,
    ids=["s1-u1", "s3-u1", "s5-u2-m2", "s6-u3-q2", "s4-u1-m3-q5"],
)
def test_golden_witness(point, flip_index, digest_1, digest_2):
    shape, budget, seed = point
    params = SchemeParams(*shape)
    witness = indistinguishability_check(params, budget, seed=seed)
    assert witness.flip_index == flip_index
    assert hashlib.sha256(witness.decoder_input_1).hexdigest() == digest_1
    assert hashlib.sha256(witness.decoder_input_2).hexdigest() == digest_2


def test_golden_witness_worlds():
    shapes, digest = GOLDEN_WITNESS_WORLDS
    h = hashlib.sha256()
    for shape in shapes:
        params = SchemeParams(*shape)
        for seed in range(8):
            w1, w2 = two_case_worlds(params, seed)
            truths = (w.truth.astype(np.int64).tobytes() for w in (w1, w2))  # int64 bytes, as pinned
            h.update(w1.table.to_bytes() + b"".join(truths))
            h.update(repr((sorted(w1.malicious), sorted(w2.malicious))).encode())
    assert h.hexdigest() == digest


def _group_cost(params, k):
    """B(k): the most kappa one group holding k >= u withholding members can cost."""
    h = (params.block_size - 1).bit_length()
    return (k - params.u + 1) * (2 * h + (2 * params.s + 3 * params.u - k) / (2 * math.log2(params.q)))


@pytest.mark.parametrize("q", [2, Q16])
@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("block", [2, 3, 5, 37, 1000, 20000])
def test_deepest_leaf_witness_reaches_the_upper_bounds(block, m, q):
    # Blocks of 20000 rows send every match level through the chunk prefix.
    # All s malicious workers in group 1 reach T_upper and B(s).  Split as
    # evenly as possible over the worst number of groups, they reach
    # kappa_upper.  At u = 1 no commit is ever sent, so both fall short of
    # B(s) = kappa_upper by exactly the commit bits it charges:
    # (s+1-u)(s+3u)/(2 log2 q).
    for s in range(1, 9):
        params = SchemeParams(s=s, u=1, m=m, p=m * block, d=2, q=q)
        truth = random_gradients(params, [s, block, m, q])
        for u in range(1, s + 1):
            params = SchemeParams(s=s, u=u, m=m, p=m * block, d=2, q=q)
            trial = run_trial(params, truth, deepest_leaf_coalitions(params, [s]))
            assert trial.breaches == [] and trial.violations == [], (s, u)
            _, t_upper, kappa_upper = scheme_upper_bounds(params)
            assert trial.metrics.T == t_upper, (s, u)
            single = _group_cost(params, s)
            if u == 1:
                assert math.isclose(kappa_upper, single, rel_tol=1e-12), s
                kappa_upper = single = single - (s + 1 - u) * (s + 3 * u) / (2 * math.log2(q))
            assert math.isclose(trial.metrics.kappa, single, rel_tol=1e-12, abs_tol=1e-12), (s, u)

            def split_cost(groups):
                return sum(_group_cost(params, k) for k in balanced_sizes(s, groups))

            groups = max(range(1, min(m, s // u) + 1), key=split_cost)
            trial = run_trial(params, truth, deepest_leaf_coalitions(params, balanced_sizes(s, groups)))
            assert trial.breaches == [] and trial.violations == [], (s, u, groups)
            assert math.isclose(trial.metrics.kappa, kappa_upper, rel_tol=1e-12, abs_tol=1e-12), (s, u, groups)
