"""End-to-end acceptance checks.

Each test covers one numbered acceptance criterion and prints a single
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``):

  1. exact recovery and honest safety across the configuration grid
  2. computation optimality: matched bound plus converse witnesses
  3. per-run bound compliance and tight attainment of the pinned triple
  4. analytic communication reduction at the flagship configuration
  5. converse bound values, bound ordering sweep, and the ratio limit
  6. zero-interaction degeneracy at u = s+1
  7. byte-identical reruns

Criterion 5's convergence clause follows the paper's claim, which is about a
limit: kappa_upper/kappa_lower tends to 2*log2(q)*(s-u+1)/floor(s/u) as p/m
grows, and the test checks the gap to that limit against an analytic
1/log2(p/m) envelope (see the test's docstring for the derivation).
"""

import math
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from bgcsim.adversary import (
    FlipFlopAdversary,
    NoAdversary,
    SymmetrizationAdversary,
)
from bgcsim.bounds import (
    comm_lower,
    indistinguishability_check,
    ratio_limit,
    scheme_upper_bounds,
)
from bgcsim.cli import ExperimentConfig, main, run_experiments
from bgcsim.core import (
    SchemeParams,
    build_fractional_repetition,
    random_gradients,
    replication_factor,
)

Q16 = 2**16

ADVERSARIES = {
    "none": NoAdversary(),
    "symmetrization": SymmetrizationAdversary(),
    "symmetrization-collusive": SymmetrizationAdversary(mode="collusive"),
    "flipflop": FlipFlopAdversary(),
}

# (s, u, m, p/m, d, q) spanning s <= 5, u <= s+1, m <= 3, p/m in {4, 8, 32},
# d <= 4, q in {2, 2**16}
GRID = [
    (1, 1, 1, 4, 1, Q16),
    (2, 1, 1, 8, 2, Q16),
    (2, 3, 1, 4, 2, Q16),
    (3, 2, 1, 8, 1, 2),
    (3, 1, 2, 8, 1, 2),
    (4, 2, 3, 4, 1, Q16),
    (5, 1, 1, 32, 1, Q16),
    (5, 3, 1, 8, 4, Q16),
    (5, 5, 3, 8, 2, 2),
    (5, 6, 1, 4, 1, 2),
]


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {label}")
        raise
    print(f"[PASS] criterion {number}: {label}")


def _grid_params(entry):
    s, u, m, block, d, q = entry
    return SchemeParams(s=s, u=u, m=m, p=m * block, d=d, q=q)


def test_criterion_1_exact_recovery(run_and_check):
    """1000 seeded trials per configuration and adversary: decode is always
    the true full gradient and no honest worker is ever eliminated.  Every
    run reports the replication factor of the assignment matrix, and its
    kappa counters, kept as messages were charged, equal a recount of the
    message log exactly (``run_and_check``)."""
    trials = 1000
    started = time.time()
    with criterion(1, "exact recovery, honest safety"):
        for entry in GRID:
            params = _grid_params(entry)
            r = replication_factor(build_fractional_repetition(params))
            for name, adversary in ADVERSARIES.items():
                for seed in range(trials):
                    truth = random_gradients(params, np.random.default_rng([seed, 0]))
                    _, metrics, _ = run_and_check(
                        params, truth, adversary, np.random.default_rng([seed, 1])
                    )
                    assert metrics.r == r
    elapsed = time.time() - started
    print(f"        {len(GRID) * len(ADVERSARIES) * trials} runs in {elapsed:.1f}s")


def test_criterion_2_computation_optimality():
    """Worst-case c equals floor(s/u) exactly on the u-sweep, and below that
    budget a two-world witness defeats the scheme cut at the budget every time."""
    with criterion(2, "computation optimality and converse witnesses"):
        config = ExperimentConfig(
            s=10, u=1, p=16, d=1, q=Q16, trials=200, seed=2024,
            adversary="symmetrization", sweep="u=1..11",
        )
        rows = run_experiments(config)
        assert [row["c_max"] for row in rows] == [10, 5, 3, 2, 2, 1, 1, 1, 1, 1, 0]
        assert [row["c_max"] for row in rows] == [
            row["c_lower"] for row in rows
        ]  # the attack pins the simulator to the bound exactly

        for s in range(1, 6):
            for u in range(1, s + 1):
                params = SchemeParams(s=s, u=u, m=1, p=8, d=1, q=Q16)
                for budget in range(s // u):
                    witness = indistinguishability_check(params, budget, seed=7)
                    assert witness.indistinguishable
                    assert witness.gradients_differ


def test_criterion_3_bound_compliance(run_and_check):
    """Every transcript respects the T/c/kappa bounds (kappa's counters match a
    recount of the raw log); for (s=2, u=1, p=8, q=2**16) the bound triple is
    (T, c, kappa) = (6, 2, 12.3125) and some adversarial seed attains T=6, c=2."""
    with criterion(3, "bound compliance and attainment"):
        params = SchemeParams(s=2, u=1, m=1, p=8, d=1, q=Q16)
        c_upper, t_upper, kappa_upper = scheme_upper_bounds(params)
        assert (t_upper, c_upper) == (6, 2)
        assert kappa_upper == 12.3125
        attained = False
        for seed in range(100):
            truth = random_gradients(params, np.random.default_rng([seed, 0]))
            _, metrics, _ = run_and_check(
                params,
                truth,
                SymmetrizationAdversary(),
                np.random.default_rng([seed, 1]),
            )
            if metrics.T == 6 and metrics.c == 2:
                attained = True
        assert attained, "no seed attained T=6 and c=2"


def test_criterion_4_communication_reduction():
    """At s=10, m=1, p=1e4, d=1e6, q=2**16: total communication at u=1 over
    u=11 equals 11/21 within 1% (the interactive overhead is negligible)."""
    with criterion(4, "communication reduction vs zero-interaction baseline"):
        d = 10**6
        totals = {}
        for u in (1, 11):
            params = SchemeParams(s=10, u=u, m=1, p=10**4, d=d, q=Q16)
            _, _, kappa_upper = scheme_upper_bounds(params)
            totals[u] = params.n * d + kappa_upper
        ratio = totals[1] / totals[11]
        assert abs(ratio - 11 / 21) / (11 / 21) < 0.01
        assert 0.47 < 1 - ratio < 0.49  # roughly a 48% reduction


def test_criterion_5_converse_bound_and_sweep():
    """comm_lower hits log2(28)/16 exactly and kappa_upper dominates
    kappa_lower across a 10**4-point parameter sweep."""
    with criterion(5, "converse bound value and bound ordering sweep"):
        params = SchemeParams(s=2, u=1, m=1, p=8, d=1, q=Q16)
        assert abs(comm_lower(params) - math.log2(28) / 16) <= 1e-12
        points = 0
        for s in range(1, 13):
            for u in range(1, s + 2):
                floor_su = s // u
                block = max(2, floor_su)
                blocks = []
                while block <= 2**20:
                    blocks.append(block)
                    block = block * 3 // 2 + 1
                for b in blocks:
                    for q in (2, 2**4, 2**8, Q16):
                        point = SchemeParams(s=s, u=u, m=1, p=b, d=1, q=q)
                        _, _, kappa_upper = scheme_upper_bounds(point)
                        assert kappa_upper >= comm_lower(point)
                        points += 1
        assert points >= 10**4, f"sweep covered only {points} points"


def test_criterion_5_ratio_limit_convergence():
    """kappa_upper / kappa_lower converges from above to the closed-form limit
    2*log2(q)*(s-u+1)/floor(s/u): 32 / 57.6 / 96 for s=10, q=2**16 and
    u = 1 / 2 / 5.  The paper promises only the limit; the gap closes like
    1/log2(p/m), so the test checks it against an analytic envelope.

    With P = p/m, L = log2(P), k = floor(s/u), a = (s+3u)/(2 log2 q) and
    lam = log2(k!)/k, the gap g = ratio/limit - 1 is
    k*(ceil(L) + a/2) / log2 C(P, k) - 1.  Since
    P**k/k! >= C(P, k) >= (P-k+1)**k/k! and L <= ceil(L) < L+1,

        (a/2 + lam)/(L - lam) <= g <= (L + 1 + a/2)/(log2(P-k+1) - lam) - 1.

    Checked at every power of two k < P <= 2**47 (the largest block the int64
    headroom admits at q = 2**16), where g must also be positive and strictly
    decreasing, and at p = 10**6.
    """
    # ratio/limit is a float near 1, so g carries an absolute rounding error
    # of a few machine epsilons.  Near P = 2**47, C(P, k) is within 1e-16 of
    # P**k/k! in relative terms and the lower envelope meets g to that order.
    rounding = 16 * sys.float_info.epsilon
    s, q = 10, Q16
    log2_q = q.bit_length() - 1
    pinned = {1: Fraction(32), 2: Fraction(288, 5), 5: Fraction(96)}
    with criterion(5, "ratio converges to its limit inside a 1/log2(p) envelope"):
        gaps_at_1e6 = []
        for u, expected in pinned.items():
            k = s // u
            limit = Fraction(2 * log2_q * (s - u + 1), k)
            assert limit == expected
            a = (s + 3 * u) / (2 * log2_q)
            lam = math.log2(math.factorial(k)) / k

            powers = [2**j for j in range(k.bit_length(), 48)]
            gaps = {}
            for block in powers + [10**6]:
                params = SchemeParams(s=s, u=u, m=1, p=block, d=1, q=q)
                assert ratio_limit(params) == float(limit)
                _, _, kappa_upper = scheme_upper_bounds(params)
                g = kappa_upper / comm_lower(params) / float(limit) - 1
                L = math.log2(block)
                lower = (a / 2 + lam) / (L - lam)
                upper = (L + 1 + a / 2) / (math.log2(block - k + 1) - lam) - 1
                assert 0 < g, f"u={u}, P={block}: ratio below the limit (g={g})"
                assert lower - rounding <= g <= upper, (
                    f"u={u}, P={block}: gap {g:.6f} outside [{lower:.6f}, {upper:.6f}]"
                )
                gaps[block] = g
            along = [gaps[block] for block in powers]
            assert all(later < earlier for earlier, later in zip(along, along[1:])), (
                f"u={u}: gap not strictly decreasing along P = 2**j"
            )
            gaps_at_1e6.append(f"u={u} {gaps[10**6]:.2%}")
        print(f"        gap at p=10**6: {', '.join(gaps_at_1e6)}")


def test_criterion_6_draco_degeneracy(run_and_check):
    """At u = s+1 every run ends with T = c = kappa = 0 and replication 2s+1,
    for every adversary in the suite."""
    with criterion(6, "zero-interaction degeneracy at u = s+1"):
        for s in range(0, 6):
            for q in (2, Q16):
                params = SchemeParams(s=s, u=s + 1, m=1, p=4, d=1, q=q)
                for adversary in ADVERSARIES.values():
                    for seed in range(200):
                        truth = random_gradients(params, np.random.default_rng([seed, 0]))
                        _, metrics, _ = run_and_check(
                            params, truth, adversary, np.random.default_rng([seed, 1])
                        )
                        assert metrics.T == 0
                        assert metrics.c == 0
                        assert metrics.kappa == 0.0
                        assert metrics.r == 2 * s + 1


def test_criterion_7_determinism(tmp_path):
    """Rerunning an experiment with the same config and seed produces
    byte-identical CSV and transcript files."""
    with criterion(7, "byte-identical reruns"):
        argv = [
            "--s", "3", "--u", "1", "--p", "8", "--d", "2", "--q", "65536",
            "--seed", "17", "--trials", "10", "--adversary", "symmetrization",
            "--sweep", "u=1..4",
        ]
        snapshots = []
        for tag in ("first", "second"):
            out = tmp_path / f"{tag}.csv"
            dump = tmp_path / f"transcripts_{tag}"
            assert main(argv + ["--out", str(out), "--dump-transcripts", str(dump)]) == 0
            names = sorted(path.name for path in dump.iterdir())
            blob = out.read_bytes() + b"".join(
                (dump / name).read_bytes() for name in names
            )
            snapshots.append((names, blob))
        assert snapshots[0] == snapshots[1]
