import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bgcsim.adversary import (
    TableAdversary,
    symmetrization_attack,
    two_case_worlds,
)
from bgcsim.bounds import (
    BoundsReport,
    _fits,
    _upper_shapes,
    check_compliance,
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
from bgcsim.protocol import EliminationEvent, Transcript, metrics_from_transcript

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
    assert kappa_up == 2 * (2 * math.ceil(math.log2(8)) + (2 + 3) / (2 * 16)) == 12.3125


def test_scheme_upper_bounds_degenerate_and_large():
    assert scheme_upper_bounds(_params(3, 4, p=4)) == (0, 0, 0.0)
    c_up, t_up, kappa_up = scheme_upper_bounds(_params(10, 1, p=10**4))
    assert (c_up, t_up) == (10, 140)  # ceil(log2(1e4)) = 14
    assert kappa_up == 284.0625  # 10 * (28 + 13/32)
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


def test_coverage_per_index_attack(run_and_check):
    params = SchemeParams(s=3, u=1, m=1, p=8, d=1, q=Q16)
    for seed in range(25):
        truth = random_gradients(params, np.random.default_rng([seed, 0]))
        rng = np.random.default_rng([seed, 1])
        table, indices = symmetrization_attack(params, truth, rng)
        _, metrics, transcript = run_and_check(params, truth, TableAdversary(table, frozenset({1, 2, 3})))
        assert metrics.c == 3
        assert set(transcript.oracle_values) == set(indices)
        assert disagreement_coverage_check(transcript, indices, table)


def test_coverage_trivial_when_honest(run_and_check):
    params = SchemeParams(s=0, u=2, m=1, p=4, d=1, q=Q16)
    truth = random_gradients(params, 0)
    table, indices = symmetrization_attack(params, truth, np.random.default_rng(0))
    _, _, transcript = run_and_check(params, truth, TableAdversary(table, frozenset()))
    assert disagreement_coverage_check(transcript, indices, table)


def test_coverage_collusive_single_call(run_and_check):
    params = SchemeParams(s=4, u=2, m=1, p=8, d=1, q=Q16)
    for seed in range(25):
        truth = random_gradients(params, np.random.default_rng([seed, 0]))
        rng = np.random.default_rng([seed, 1])
        table, indices = symmetrization_attack(params, truth, rng, mode="collusive")
        _, metrics, transcript = run_and_check(params, truth, TableAdversary(table, frozenset({1, 2, 3, 4})))
        assert metrics.c <= 1
        assert set(transcript.oracle_values) <= set(indices)
        assert disagreement_coverage_check(transcript, indices, table)


def test_coverage_settled_by_an_undersupported_commit():
    # A disputed index counts as settled when its backers were eliminated by an
    # undersized commit, with no local computation at it.
    params = SchemeParams(s=2, u=1, m=1, p=8, d=1, q=Q16)
    truth = random_gradients(params, 0)
    table, indices = symmetrization_attack(params, truth, np.random.default_rng(0))
    wiped = [EliminationEvent(1, 1, (1,), "undersupported_commit", indices[0])]
    transcript = Transcript(events=wiped, oracle_values={index: truth[index - 1] for index in indices[1:]})
    assert disagreement_coverage_check(transcript, indices, table)
    transcript.events[0] = wiped[0]._replace(reason="wrong_value")
    assert not disagreement_coverage_check(transcript, indices, table)


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


# sha256 over repr(scheme_upper_bounds(params)), one update per point in loop
# order: s in 0..12, u in 1..7, m in {1, 2, 3, 5}, p/m in {2, 3, 8, 1000},
# d = 1 and the nine alphabets below.  Recorded while kappa_upper was still
# computed without the exact shapes, so the float it reports has not moved.
GOLDEN_KAPPA_UPPER = "3bdba56f22d9e614a927e2bfa52ded2e315bb5950bb7952ed833ef059e17e25c"


def test_golden_kappa_upper():
    h = hashlib.sha256()
    for s in range(13):
        for u in range(1, 8):
            for m in (1, 2, 3, 5):
                for block in (2, 3, 8, 1000):
                    for q in (2, 3, 5, 7, 256, 65521, 2**16, 2**31 + 1, 2**32):
                        params = SchemeParams(s=s, u=u, m=m, p=m * block, d=1, q=q)
                        h.update(repr(scheme_upper_bounds(params)).encode())
    assert h.hexdigest() == GOLDEN_KAPPA_UPPER


@pytest.mark.parametrize("counts, complies", [((81, 34), False), ((80, 65), True), ((79, 96), True)])
def test_kappa_at_the_worst_shape_is_decided_exactly(counts, complies):
    # At q = 2**31+1 a commit bit is worth just under 1/31 symbol.  The worst
    # shape is 80 label symbols and 65 bits; 81 and 34 exceed it by 2.2e-11
    # symbols, below any float tolerance such as 1e-9.  The shape itself reads
    # one ulp above the float bound, and must still comply.
    params = SchemeParams(s=10, u=1, m=1, p=16, d=1, q=2**31 + 1)
    kappa_upper = scheme_upper_bounds(params)[2]
    assert max(_upper_shapes(params)[2], key=lambda shape: shape[2])[:2] == (80, 65)
    transcript = Transcript(kappa_symbols=counts[0], kappa_bits=counts[1])
    metrics = metrics_from_transcript(params, transcript)
    expected = [] if complies else [f"kappa={metrics.kappa} exceeds bound {kappa_upper}"]
    assert check_compliance(params, metrics, transcript) == expected
    if counts == (80, 65):
        assert metrics.kappa > kappa_upper  # so no float comparison without a tolerance passes it


def test_compliance_names_every_bound_exceeded():
    params = SchemeParams(s=2, u=1, m=1, p=8, d=1, q=Q16)
    c_upper, t_upper, kappa_upper = scheme_upper_bounds(params)
    transcript = Transcript(
        kappa_symbols=10**6,
        oracle_values={index: np.zeros(1, dtype=np.int64) for index in range(1, c_upper + 2)},
        group_rounds={1: t_upper + 1},
    )
    metrics = metrics_from_transcript(params, transcript)
    assert check_compliance(params, metrics, transcript) == [
        f"c={c_upper + 1} exceeds bound {c_upper}",
        f"T={t_upper + 1} exceeds bound {t_upper}",
        f"kappa={metrics.kappa} exceeds bound {kappa_upper}",
    ]


ALPHABETS = [2, 3, 5, 65521, 2**16, 2**31 + 1, 2**32]


@settings(max_examples=1000, deadline=None)
@given(
    q=st.sampled_from(ALPHABETS),
    a=st.integers(-400, 400),
    b=st.integers(-400, 400),
    near=st.booleans(),
    offset=st.integers(-1, 2),
)
@example(q=2**16, a=1, b=16, near=False, offset=0)  # q**a == 2**b: ties comply
@example(q=2**16, a=-1, b=-16, near=False, offset=0)
@example(q=2**16, a=1, b=15, near=False, offset=0)
@example(q=2**31 + 1, a=1, b=31, near=False, offset=0)  # counts (81, 34) against the shape (80, 65)
@example(q=2**31 + 1, a=-1, b=-31, near=False, offset=0)
@example(q=3, a=0, b=0, near=False, offset=0)
@example(q=3, a=0, b=-1, near=False, offset=0)
@example(q=3, a=1, b=0, near=False, offset=0)
def test_fits_agrees_with_exact_rationals(q, a, b, near, offset):
    """_fits(q, a, b) says whether a * log2(q) <= b, i.e. q**a <= 2**b."""
    if near:  # b next to a * log2(q), where the two sides nearly tie
        b = math.floor(a * math.log2(q)) + offset
    assert _fits(q, a, b) == (Fraction(q) ** a <= Fraction(2) ** b), (q, a, b)


def _shape(params, sizes):
    """Exact (label symbols, commit bits) of withholding coalitions of these
    sizes, one per group: a coalition of k >= u plays k-u+1 matches of h
    levels, two label symbols per level, and match i collects a commit bit
    from each of its group's s+u-i live members."""
    h = (params.block_size - 1).bit_length()
    matches = [range(k - params.u + 1) for k in sizes]
    return 2 * h * sum(map(len, matches)), sum(params.s + params.u - i for played in matches for i in played)


@pytest.mark.parametrize("q", [2, 3, Q16])
@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("block", [2, 3, 5, 37, 1000, 20000])
def test_deepest_leaf_witness_reaches_the_upper_bounds(block, m, q):
    # Blocks of 20000 rows send every match level through the chunk prefix.
    # All s malicious workers in group 1 reach T_upper and the single-group
    # shape's counts exactly.  Split as evenly as possible over the number of
    # groups whose shape kappa_upper reports, they reach that shape's counts.
    # At u = 1 no commit is ever sent, so both runs count the shape's label
    # symbols and no bits.
    for s in range(1, 9):
        params = SchemeParams(s=s, u=1, m=m, p=m * block, d=2, q=q)
        truth = random_gradients(params, [s, block, m, q])
        for u in range(1, s + 1):
            params = SchemeParams(s=s, u=u, m=m, p=m * block, d=2, q=q)
            trial = run_trial(params, truth, deepest_leaf_coalitions(params, [s]))
            assert trial.breaches == [] and trial.violations == [], (s, u)
            assert trial.metrics.T == scheme_upper_bounds(params)[1], (s, u)
            symbols, bits = _shape(params, [s])
            assert (trial.transcript.kappa_symbols, trial.transcript.kappa_bits) == (symbols, 0 if u == 1 else bits)

            worst = max(_upper_shapes(params)[2], key=lambda shape: shape[2])[:2]  # kappa_upper's shape
            groups = next(g for g in range(1, min(m, s // u) + 1) if _shape(params, balanced_sizes(s, g)) == worst)
            trial = run_trial(params, truth, deepest_leaf_coalitions(params, balanced_sizes(s, groups)))
            assert trial.breaches == [] and trial.violations == [], (s, u, groups)
            assert (trial.transcript.kappa_symbols, trial.transcript.kappa_bits) == (worst[0], 0 if u == 1 else worst[1])
