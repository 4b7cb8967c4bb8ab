"""Closed-form bounds, the DRACO baseline, and executable converse checks.

All binomials are evaluated exactly on big integers; the only floating-point
step is the final logarithm.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .adversary import TableAdversary, attacked_world, flip_world
from .core import SchemeParams, full_gradient
from .protocol import Metrics, ProtocolRun, Transcript


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
    s, u = params.s, params.u
    height = (params.block_size - 1).bit_length()  # h = ceil(log2(p/m)), exactly

    def cost(k):  # B(k)
        return (k - u + 1) * (2 * height + (2 * s + 3 * u - k) / (2 * math.log2(params.q)))

    kappa = cost(s) if s >= u else 0.0  # G = 1, the only shape kept at u = 1
    for g in range(2, min(params.m, s // u) + 1) if u > 1 else ():
        kappa = max(kappa, (s % g) * cost(s // g + 1) + (g - s % g) * cost(s // g))
    return s // u, max(0, s + 1 - u) * height, kappa


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
    """Violations of the per-run guarantees; empty list means compliant."""
    c_upper, t_upper, kappa_upper = scheme_upper_bounds(params)
    problems = []
    if metrics.c > c_upper:
        problems.append(f"c={metrics.c} exceeds bound {c_upper}")
    if metrics.T > t_upper:
        problems.append(f"T={metrics.T} exceeds bound {t_upper}")
    if metrics.kappa > kappa_upper + 1e-9:
        problems.append(f"kappa={metrics.kappa} exceeds bound {kappa_upper}")
    if transcript.kappa() != metrics.kappa:
        problems.append("kappa recomputed from the message log disagrees with the metric")
    return problems


def verify_run(params: SchemeParams, truth, malicious, ghat, transcript: Transcript) -> list:
    """Breaches of the per-run contract; an empty list means the run is correct.

    The contract: the decoded gradient is the exact full gradient, no honest
    worker is eliminated, and every oracle call eliminates at least u
    workers for backing a wrong value at the computed index.
    """
    problems = []
    if ghat is None or ghat.tolist() != full_gradient(truth, params.q).tolist():
        problems.append("decode mismatch")
    framed = transcript.eliminated_workers() - set(malicious)
    if framed:
        problems.append(f"honest workers eliminated: {sorted(framed)}")
    for call in transcript.oracle_calls:
        wiped = sum(
            len(event.workers)
            for event in transcript.eliminations
            if (event.t, event.group, event.index, event.reason)
            == (call.t, call.group, call.index, "wrong_value")
        )
        if wiped < params.u:
            problems.append(f"oracle call at index {call.index} eliminated {wiped} < u workers")
    return problems


class Trial(NamedTuple):
    """One executed run and both checks of it."""

    ghat: np.ndarray  # None when an oracle budget truncated the run before decoding
    metrics: Metrics
    transcript: Transcript
    breaches: list  # verify_run: the per-run contract
    violations: list  # check_compliance: the T, c and kappa bounds


def run_trial(
    params: SchemeParams, truth, adversary, rng=None, *, oracle_budget: int = None
) -> Trial:
    """Instantiate ``adversary`` with ``rng``, execute one run and check it.

    The one per-run entry point: the CLI, the tests and the converse
    witness all run the protocol through here.  Neither check raises; the
    caller decides what a breach or a violation means.
    """
    responder = adversary.instantiate(params, truth, rng)
    run = ProtocolRun(params, truth, responder, oracle_budget=oracle_budget)
    ghat, metrics, transcript = run.execute()
    breaches = verify_run(params, truth, responder.malicious, ghat, transcript)
    violations = check_compliance(params, metrics, transcript)
    return tuple.__new__(Trial, (ghat, metrics, transcript, breaches, violations))  # as namedtuple._make does


def disagreement_coverage_check(transcript: Transcript, disagreement, table) -> bool:
    """True when every actually-disputed planted index was settled.

    An index is disputed when two workers of the attacked group claim
    different values for it in ``table``.  Settling means the index was
    computed locally or its backers were wiped out by an undersized commit.
    """
    disputed = set()
    for index in disagreement.indices:
        seen = {
            tuple(table.value(j, index).tolist())  # the uint16/uint32 truth and int64 claims compare by value
            for j in table.params.workers_of_group(disagreement.group)
        }
        if len(seen) > 1:
            disputed.add(index)
    settled = set(transcript.computed_indices())
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


def decoder_input(table, transcript: Transcript) -> bytes:
    """Everything the decoder sees: claimed values, messages, computed gradients."""
    payload = {
        "messages": [list(m) for m in transcript.messages],
        "computed": transcript.computed_indices(),
        "values": [v.tolist() for v in transcript.oracle_values.values()],
    }
    return table.to_bytes() + json.dumps(payload, separators=(",", ":")).encode()


def indistinguishability_check(params: SchemeParams, budget: int, seed=0) -> Witness:
    """Run the scheme truncated at ``budget`` local computations in two worlds.

    The worlds share one symmetrization table.  Whatever indices the
    truncated run computes, at least one planted index is left over (the
    budget is below floor(s/u)); flipping the truth there changes the full
    gradient without changing anything the decoder can see.
    """
    n_dev = params.s // params.u
    if budget >= n_dev:
        raise ValueError(f"no witness guaranteed at budget {budget} >= floor(s/u)={n_dev}")
    world1, disagreement = attacked_world(params, np.random.default_rng(seed))
    table = world1.table
    transcript1 = run_trial(
        params, world1.truth, TableAdversary(table, world1.malicious), oracle_budget=budget
    ).transcript
    computed = set(transcript1.computed_indices())
    flip = min(i for i in disagreement.indices if i not in computed)

    world2 = flip_world(params, world1.truth, table, flip)
    transcript2 = run_trial(
        params, world2.truth, TableAdversary(table, world2.malicious), oracle_budget=budget
    ).transcript

    witness = Witness(
        flip_index=flip,
        decoder_input_1=decoder_input(table, transcript1),
        decoder_input_2=decoder_input(table, transcript2),
        full_gradient_1=full_gradient(world1.truth, params.q),
        full_gradient_2=full_gradient(world2.truth, params.q),
    )
    if not witness.indistinguishable or not witness.gradients_differ:
        raise AssertionError("witness construction failed; the two runs diverged")
    return witness
