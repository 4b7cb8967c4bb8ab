"""Closed-form bounds, the DRACO baseline, and executable converse checks.

Binomials are exact big integers, and the compliance check uses no floats:
it compares a run's label-symbol and commit-bit counts with each worst shape's.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .adversary import TableAdversary, attacked_world, flip_world
from .core import SchemeParams, full_gradient
from .protocol import EliminationEvent, Message, Metrics, OracleCall, ProtocolRun, Transcript


def local_comp_lower(params: SchemeParams) -> int:
    """Minimum local computations forced on any scheme with replication s+u."""
    return params.s // params.u


def comm_lower(params: SchemeParams) -> float:
    """Lower bound on protocol overhead, in alphabet symbols.

    log base q of C(p/m, floor(s/u)); zero when u > s (the bound is vacuous).
    """
    n_dev = params.s // params.u
    if n_dev == 0:
        return 0.0
    block = params.block_size
    if block < n_dev:
        raise ValueError(
            f"invalid configuration: p/m={block} < floor(s/u)={n_dev}"
        )
    return math.log2(math.comb(block, n_dev)) / math.log2(params.q)


@lru_cache(maxsize=1)  # every run of a sweep point checks against that point's shapes
def _upper_shapes(params: SchemeParams):
    """c_upper, T_upper and each worst split's (label symbols, commit bits, kappa): see scheme_upper_bounds."""
    s, u, two_log2q = params.s, params.u, 2 * math.log2(params.q)
    height = (params.block_size - 1).bit_length()  # h = ceil(log2(p/m)), exactly

    def group(k):  # k-u+1 matches; match i sends 2h label symbols and s+u-i commit bits; B(k) last
        matches, span = k - u + 1, 2 * s + 3 * u - k
        return 2 * height * matches, matches * span // 2, matches * (2 * height + span / two_log2q)

    shapes = [(0, 0, 0.0)]  # no group plays a match
    for g in range(1, min(params.m if u > 1 else 1, s // u) + 1):  # r groups of a+1 and g-r of a
        a, r = divmod(s, g)
        (sym1, bits1, kappa1), (sym0, bits0, kappa0) = group(a + 1), group(a)
        shapes.append((r * sym1 + (g - r) * sym0, r * bits1 + (g - r) * bits0, r * kappa1 + (g - r) * kappa0))
    return s // u, max(0, s + 1 - u) * height, tuple(shapes)  # shared by every caller of the cache


def _fits(q: int, a: int, b: int) -> bool:
    """a * log2(q) <= b, that is q**a <= 2**b, decided on integers."""
    if a > 0 and b > 0:
        return q**a <= 1 << b
    if a < 0 and b < 0:
        return 1 << -b <= q**-a
    return a <= 0 <= b


def scheme_upper_bounds(params: SchemeParams):
    """(c_upper, T_upper, kappa_upper) guaranteed by the tournament scheme.

    Let group g hold s_g malicious workers; h = ceil(log2(p/m)).  If s_g < u,
    t=0 cuts every malicious subset and g plays no match.  Else each match
    eliminates a worker of g and never an honest one: a representative sending
    garbage, an undersupported commit set (it holds its representative) or the
    >= u backers of a wrong settled claim.  A malicious subset leaves with at
    most u-1 members never eliminated, or in a match eliminating u or more, so
    g plays at most s_g-u+1 <= s+1-u matches of <= h levels (T_upper; groups
    run concurrently), and a local computation removes >= u workers (c_upper).
    Match i of g (from 0) sends two label symbols per level and commit bits to
    at most s+u-i live members, so kappa_g <= B(s_g) = (s_g-u+1)(2h +
    (2s+3u-s_g)/(2 log2 q)).  B increases and is concave on [u, s], so the
    balanced split over G <= min(m, s//u) groups is the worst: kappa_upper =
    max over G of r B(a+1) + (G-r) B(a), a = s//G, r = s%G.  At u = 1 no
    commit is sent, so kappa <= 2hs <= B(s), kept.  No step uses the pairing.
    """
    c_upper, t_upper, shapes = _upper_shapes(params)
    return c_upper, t_upper, max(kappa for _, _, kappa in shapes)


def ratio_limit(params: SchemeParams) -> float:
    """Large-p limit of kappa_upper / kappa_lower: 2 log2(q) (s-u+1) / floor(s/u)."""
    n_dev = params.s // params.u
    if n_dev == 0:
        raise ValueError("ratio limit undefined when floor(s/u) = 0")
    return 2 * math.log2(params.q) * (params.s - params.u + 1) / n_dev


def draco_baseline(params: SchemeParams) -> Metrics:
    """Zero-interaction baseline: replication 2s+1, majority vote per group."""
    return Metrics(
        T=0,
        c=0,
        r=Fraction(2 * params.s + 1),
        kappa=0.0,
        total_comm=float(params.m * (2 * params.s + 1) * params.d),
    )


@dataclass(frozen=True)
class BoundsReport:
    """All closed-form bound values for one configuration."""

    c_lower: int
    kappa_lower: float  # None when p/m < floor(s/u)
    c_upper: int
    T_upper: int
    kappa_upper: float
    ratio_limit: float  # None when floor(s/u) = 0
    draco_total_comm: float

    @classmethod
    def from_params(cls, params: SchemeParams) -> "BoundsReport":
        c_upper, t_upper, kappa_upper = scheme_upper_bounds(params)
        n_dev = params.s // params.u
        try:
            kappa_lower = comm_lower(params)
        except ValueError:
            kappa_lower = None
        return cls(
            c_lower=local_comp_lower(params),
            kappa_lower=kappa_lower,
            c_upper=c_upper,
            T_upper=t_upper,
            kappa_upper=kappa_upper,
            ratio_limit=ratio_limit(params) if n_dev > 0 else None,
            draco_total_comm=draco_baseline(params).total_comm,
        )


def check_compliance(params: SchemeParams, metrics: Metrics, transcript: Transcript):
    """Violations of the per-run guarantees, kappa's decided on exact counts; empty list means compliant."""
    c_upper, t_upper, shapes = _upper_shapes(params)
    problems = []
    if metrics.c > c_upper:
        problems.append(f"c={metrics.c} exceeds bound {c_upper}")
    if metrics.T > t_upper:
        problems.append(f"T={metrics.T} exceeds bound {t_upper}")
    for shape_symbols, shape_bits, _ in shapes:
        if _fits(params.q, transcript.kappa_symbols - shape_symbols, shape_bits - transcript.kappa_bits):
            break
    else:
        problems.append(f"kappa={metrics.kappa} exceeds bound {max(kappa for _, _, kappa in shapes)}")
    return problems


def verify_run(params: SchemeParams, truth, malicious, ghat, transcript: Transcript) -> list:
    """Breaches of the per-run contract; an empty list means the run is correct.

    The contract: the decoded gradient is the exact full gradient, no honest
    worker is eliminated, and every oracle call eliminates at least u
    workers for backing a wrong value: the wrong_value records that
    directly follow the call in the transcript's log, read in one pass.
    """
    problems = []
    if ghat.tolist() != full_gradient(truth, params.q).tolist():
        problems.append("decode mismatch")
    eliminated, calls, after_call = set(), [], False  # calls: [oracle call, workers it wiped]
    for event in transcript.events:
        kind = type(event)
        if kind is EliminationEvent:
            eliminated.update(event.workers)
            if after_call and event.reason == "wrong_value":
                calls[-1][1] += len(event.workers)
                continue
        after_call = kind is OracleCall
        if after_call:
            calls.append([event, 0])
    framed = eliminated - set(malicious)
    if framed:
        problems.append(f"honest workers eliminated: {sorted(framed)}")
    for call, wiped in calls:
        if wiped < params.u:
            problems.append(f"oracle call at index {call.index} eliminated {wiped} < u workers")
    return problems


class Trial(NamedTuple):
    """One executed run and both checks of it."""

    ghat: np.ndarray
    metrics: Metrics
    transcript: Transcript
    breaches: list  # verify_run: the per-run contract
    violations: list  # check_compliance: the T, c and kappa bounds


def run_trial(params: SchemeParams, truth, adversary, rng=None) -> Trial:
    """Instantiate ``adversary`` with ``rng``, execute one run and check it.

    The one per-run entry point: the CLI, the tests and the converse
    witness all run the protocol through here.  Neither check raises; the
    caller decides what a breach or a violation means.
    """
    responder = adversary.instantiate(params, truth, rng)
    run = ProtocolRun(params, truth, responder)
    ghat, metrics, transcript = run.execute()
    breaches = verify_run(params, truth, responder.malicious, ghat, transcript)
    violations = check_compliance(params, metrics, transcript)
    return tuple.__new__(Trial, (ghat, metrics, transcript, breaches, violations))  # as namedtuple._make does


def disagreement_coverage_check(transcript: Transcript, indices, table) -> bool:
    """True when every actually-disputed planted index was settled.

    ``indices`` are the global gradient indices ``symmetrization_attack``
    planted on, all in group 1's block.  An index is disputed when two
    workers of group 1 claim different values for it in ``table``.  Settling
    means the index was computed locally or its backers were wiped out by an
    undersized commit.
    """
    disputed = set()
    for index in indices:
        seen = {
            tuple(table.value(j, index).tolist())  # the uint16/uint32 truth and int64 claims compare by value
            for j in table.params.workers_of_group(1)
        }
        if len(seen) > 1:
            disputed.add(index)
    settled = set(transcript.oracle_values)
    settled.update(
        event.index
        for event in transcript.eliminations
        if event.reason == "undersupported_commit"
    )
    return disputed <= settled


@dataclass(frozen=True)
class Witness:
    """Constructive converse witness: one decoder input, two ground truths."""

    flip_index: int
    decoder_input_1: bytes
    decoder_input_2: bytes
    full_gradient_1: np.ndarray
    full_gradient_2: np.ndarray

    @property
    def indistinguishable(self) -> bool:
        return self.decoder_input_1 == self.decoder_input_2

    @property
    def gradients_differ(self) -> bool:
        return not np.array_equal(self.full_gradient_1, self.full_gradient_2)


def decoder_input(table, transcript: Transcript, budget: int) -> bytes:
    """What the decoder sees of a run's log cut just before its (budget+1)-th oracle call.

    That is the claimed values, the messages and the computed gradients."""
    messages, computed = [], list(transcript.oracle_values)[:budget]
    for event in transcript.events:
        if type(event) is OracleCall and event.index not in computed:
            break
        if type(event) is Message:
            messages.append(list(event))
    payload = {
        "messages": messages,
        "computed": computed,
        "values": [transcript.oracle_values[index].tolist() for index in computed],
    }
    return table.to_bytes() + json.dumps(payload, separators=(",", ":")).encode()


def indistinguishability_check(params: SchemeParams, budget: int, seed=0) -> Witness:
    """Run the scheme in two worlds, each cut before its (budget+1)-th local computation.

    The worlds share one symmetrization table.  Whatever indices the run
    computes within the budget, at least one planted index is left over (the
    budget is below floor(s/u)); flipping the truth there changes the full
    gradient without changing anything the decoder sees before the cut.
    """
    n_dev = params.s // params.u
    if budget >= n_dev:
        raise ValueError(f"no witness guaranteed at budget {budget} >= floor(s/u)={n_dev}")
    world1, indices = attacked_world(params, np.random.default_rng(seed))
    table = world1.table
    transcript1 = run_trial(params, world1.truth, TableAdversary(table, world1.malicious)).transcript
    computed = set(list(transcript1.oracle_values)[:budget])
    flip = min(i for i in indices if i not in computed)

    world2 = flip_world(params, world1.truth, table, flip)
    transcript2 = run_trial(params, world2.truth, TableAdversary(table, world2.malicious)).transcript

    witness = Witness(
        flip_index=flip,
        decoder_input_1=decoder_input(table, transcript1, budget),
        decoder_input_2=decoder_input(table, transcript2, budget),
        full_gradient_1=full_gradient(world1.truth, params.q),
        full_gradient_2=full_gradient(world2.truth, params.q),
    )
    if not witness.indistinguishable or not witness.gradients_differ:
        raise AssertionError("witness construction failed; the two runs diverged")
    return witness
