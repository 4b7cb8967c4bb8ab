"""Execution engine with exact per-message accounting.

One run proceeds as: initial coded round (every worker sends its block sum,
d symbols at t=0), grouping of each fractional-repetition group into
consistent subsets by exact equality of the initial responses, an
elimination tournament per unresolved group, and final decoding by summing
the surviving group values.

A tournament iteration draws two subsets, runs a match between their
representatives (binary search down the sum-tree, one differing coordinate,
two symbols per round), collects one commit bit from every member of both
subsets, and settles the disputed leaf with a local computation when both
claims have at least u backers.  Rounds count match levels only; commit bits
are charged to the communication overhead but not to the round count.
Groups advance independently, so the round total is the maximum over groups.

For u = 1 the commit exchange is skipped: a single backer suffices and the
representative vouches for its own claim by having sent it, so every match
is settled directly by a local computation (the pairwise flow).  Skipping
also keeps the commit traffic inside its budget when malicious workers are
spread over several groups, each of which would otherwise restart the
shrinking vote count at full group size.

Accounting rules:
  - kappa sums worker-to-main symbols for rounds t >= 1 (labels are one
    symbol, commit bits convert at 1/log2(q) symbols); the initial t=0
    responses are excluded and reported separately via total_comm = n*d + kappa.
  - c counts distinct gradient indices fetched from the local oracle.  A
    leaf that was already settled is decided from the cached value without
    touching the oracle again.
  - every message is charged in one place (initial d symbols, label 1
    symbol, commit 1 bit) whatever comes back; the charge appends it to the
    message log and adds its t >= 1 symbols and bits to exact counters,
    which kappa is computed from.
  - honest workers are answered straight from the honest table, which
    reduces every answer mod q, so their answers are not checked.  Only
    adversary input goes through the ask path, which validates it: a
    response of the wrong shape or type, or outside the alphabet,
    incriminates its sender, who is eliminated on the spot (reasons
    malformed_initial, malformed_label and malformed_commit); so is a
    malicious responder that raises instead of answering.  A commit bit
    must be a bool; anything else is not counted as a vote.
  - eliminated workers, representatives included, leave their consistent
    subsets once per tournament iteration, after the match and its votes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .adversary import ClaimedGradientTable, CommitQuery, InitialQuery, LabelQuery
from .core import SchemeParams


_KIND = {InitialQuery: "initial", LabelQuery: "label", CommitQuery: "commit"}


class Message(NamedTuple):
    t: int
    group: int
    worker: int  # every message is worker-to-main traffic
    kind: str  # "initial" | "label" | "commit"
    symbols: int
    bits: int


class OracleCall(NamedTuple):
    t: int
    group: int
    index: int  # global gradient index
    coord: int


class EliminationEvent(NamedTuple):
    t: int
    group: int
    workers: tuple
    reason: str
    index: int  # disputed gradient index, or 0 when not tied to one


class ProtocolError(RuntimeError):
    """Internal invariant violated; indicates a bug, not adversary behaviour."""


class _BudgetExhausted(Exception):
    pass


def _kappa(q: int, symbols: int, bits: int) -> float:
    """Overhead in alphabet symbols: symbols plus bits at 1/log2(q) symbols each."""
    kappa = float(symbols)
    if bits:
        kappa += bits / math.log2(q)
    return kappa


@dataclass
class Transcript:
    """Everything a run transmitted, computed and decided, in order."""

    params: SchemeParams
    messages: list = field(default_factory=list)
    kappa_symbols: int = 0  # symbols and bits of the t >= 1 messages, counted as charged
    kappa_bits: int = 0
    oracle_calls: list = field(default_factory=list)
    oracle_values: dict = field(default_factory=dict)  # gradient index -> full vector, in call order
    eliminations: list = field(default_factory=list)
    group_rounds: dict = field(default_factory=dict)
    truncated: bool = False

    def computed_indices(self) -> list:
        return [call.index for call in self.oracle_calls]

    def kappa(self) -> float:
        """Protocol overhead in alphabet symbols, recomputed from the raw log."""
        symbols = sum(m.symbols for m in self.messages if m.t >= 1)
        bits = sum(m.bits for m in self.messages if m.t >= 1)
        return _kappa(self.params.q, symbols, bits)

    def eliminated_workers(self) -> set:
        out = set()
        for event in self.eliminations:
            out.update(event.workers)
        return out

    def to_jsonl(self) -> str:
        lines = []
        for m in self.messages:
            lines.append(
                json.dumps(
                    {
                        "t": m.t,
                        "group": m.group,
                        "worker": m.worker,
                        "direction": "to_main",
                        "kind": m.kind,
                        "symbols": m.symbols,
                        "bits": m.bits,
                    },
                    separators=(",", ":"),
                )
            )
        for call in self.oracle_calls:
            lines.append(
                json.dumps(
                    {"t": call.t, "index": call.index, "coord": call.coord},
                    separators=(",", ":"),
                )
            )
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Metrics:
    T: int
    c: int
    r: Fraction
    kappa: float
    total_comm: float


def metrics_from_transcript(params: SchemeParams, transcript: Transcript) -> Metrics:
    kappa = _kappa(params.q, transcript.kappa_symbols, transcript.kappa_bits)
    return Metrics(
        T=max(transcript.group_rounds.values(), default=0),
        c=len(transcript.oracle_calls),
        r=Fraction(params.group_size),
        kappa=kappa,
        total_comm=params.n * params.d + kappa,
    )


@dataclass
class ConsistentSubset:
    """Workers of one group that returned identical initial responses."""

    group: int
    workers: list  # sorted worker ids; shrinks as members are eliminated
    value: np.ndarray  # the shared initial response, shape (d,)

    @property
    def representative(self) -> int:
        return self.workers[0]


class ProtocolRun:
    """One protocol execution against a fixed truth and adversary responder."""

    def __init__(
        self,
        params: SchemeParams,
        truth: np.ndarray,
        responder,
        rng: np.random.Generator = None,
        oracle_budget: int = None,
        random_draws: bool = False,
    ):
        truth = np.asarray(truth)  # no copy: a table over this array is shared below
        if truth.shape != (params.p, params.d):
            raise ValueError(f"truth must have shape (p, d)={(params.p, params.d)}, got {truth.shape}")
        if len(responder.malicious) > params.s:
            raise ValueError(
                f"adversary controls {len(responder.malicious)} workers; budget is s={params.s}"
            )
        if random_draws and rng is None:
            raise ValueError("random draw order needs an RNG")
        self.params = params
        self.truth = truth
        self.responder = responder
        self.rng = rng
        self.oracle_budget = oracle_budget
        self.random_draws = random_draws
        self.transcript = Transcript(
            params=params, group_rounds={g: 0 for g in range(1, params.m + 1)}
        )
        self._resolved = {}  # group -> surviving value, shape (d,)
        self._eliminated = set()  # every worker eliminated so far, in any group
        table = getattr(responder, "table", None)
        if table is not None and table.params == params and table.truth is truth:
            self._honest = table.honest_twin()  # one memo of truth sums for both tables
        else:
            self._honest = ClaimedGradientTable(params, truth)
        self._cost = {"initial": (params.d, 0), "label": (1, 0), "commit": (0, 1)}  # (symbols, bits)

    # -- plumbing ----------------------------------------------------------

    def _eliminate(self, t, group, workers, reason, index=0):
        if workers:
            self.transcript.eliminations.append(
                EliminationEvent(t, group, tuple(sorted(workers)), reason, index)
            )
            self._eliminated.update(workers)

    def _charge(self, t, group, worker, kind):
        """Log one worker-to-main message and count its cost towards kappa."""
        symbols, bits = self._cost[kind]
        transcript = self.transcript
        transcript.messages.append(Message(t, group, worker, kind, symbols, bits))
        if t >= 1:
            transcript.kappa_symbols += symbols
            transcript.kappa_bits += bits

    def _ask(self, t, group, worker, query):
        """Send ``query`` to malicious ``worker``, charge the message and check the answer.

        This is the only path adversary input takes.  Returns the answer as
        the engine uses it (an int64 vector, a symbol or a bool), or None
        after eliminating the sender as malformed_<kind>.  Anything the
        responder raises counts as a malformed answer.  Honest workers never
        come here: the stages read their answers from the honest table and
        charge them directly.
        """
        kind = _KIND[type(query)]
        try:
            value = self._validate(kind, self.responder.respond(worker, query))
        except Exception:
            value = None
        self._charge(t, group, worker, kind)
        if value is None:
            index = query.index if kind == "commit" else 0
            self._eliminate(t, group, (worker,), f"malformed_{kind}", index)
        return value

    def _validate(self, kind, answer):
        """``answer`` in canonical form, or None when it is malformed for ``kind``."""
        if kind == "commit":
            return answer if isinstance(answer, (bool, np.bool_)) else None
        if kind == "label":
            if isinstance(answer, bool) or not isinstance(answer, (int, np.integer)):
                return None
            value = int(answer)
            return value if 0 <= value < self.params.q else None
        arr = np.asarray(answer)
        if arr.shape != (self.params.d,) or arr.dtype.kind not in "iu":  # signed or unsigned ints
            return None
        values = arr.tolist()  # d is small: Python ints beat numpy's per-call cost here
        if min(values) < 0 or max(values) >= self.params.q:
            return None
        return arr.astype(np.int64)

    # -- protocol stages ----------------------------------------------------

    def initial_round(self) -> dict:
        """t=0: every worker sends its claimed block sum (d symbols, not in kappa)."""
        z0 = {}
        malicious = self.responder.malicious
        for g in range(1, self.params.m + 1):
            workers = self.params.workers_of_group(g)
            block_sum = self._honest.z0(workers[0])  # what every honest member sends
            for j in workers:
                if j in malicious:
                    vec = self._ask(0, g, j, InitialQuery(group=g))
                    if vec is None:
                        continue
                else:
                    vec = block_sum
                    self._charge(0, g, j, "initial")
                z0[j] = vec
        return z0

    def build_subsets(self, z0: dict):
        """Group workers by identical responses; apply the size-u and size-s cuts.

        A subset larger than s can only be honest, so its group resolves
        immediately.  Subsets smaller than u cannot contain the honest
        workers and their members are marked malicious outright.
        """
        pending = {}
        for g in range(1, self.params.m + 1):
            buckets = {}
            for j in self.params.workers_of_group(g):
                if j not in z0:
                    continue
                buckets.setdefault(z0[j].tobytes(), []).append(j)
            subsets = sorted(buckets.values(), key=lambda ws: ws[0])
            big = [ws for ws in subsets if len(ws) > self.params.s]
            if big:
                if len(big) > 1:
                    raise ProtocolError("two supermajorities cannot coexist within budget")
                winner = big[0]
                self._resolved[g] = z0[winner[0]]
                losers = [j for ws in subsets for j in ws if ws is not winner]
                self._eliminate(0, g, losers, "outvoted_supermajority")
                continue
            keep = [ws for ws in subsets if len(ws) >= self.params.u]
            dropped = [j for ws in subsets for j in ws if len(ws) < self.params.u]
            self._eliminate(0, g, dropped, "undersized_subset")
            if not keep:
                raise ProtocolError(f"group {g} has no subset of size >= u")
            if len(keep) == 1:
                self._resolved[g] = z0[keep[0][0]]
            else:
                pending[g] = [
                    ConsistentSubset(group=g, workers=ws, value=z0[ws[0]]) for ws in keep
                ]
        return pending

    def match(self, group: int, sub1: ConsistentSubset, sub2: ConsistentSubset):
        """Binary search to a leaf where the two representatives' claims differ.

        Each round both representatives send the left child's label at the
        chosen coordinate.  Equal answers move the dispute to the inferred
        right child; unequal answers move it left.  Either way the claimed
        values for the current node differ, so a leaf with differing (sent
        or inferred) claims is always reached, whatever the answers are.

        Returns (global_index, coord, claim1, claim2), or None if a rep sent
        garbage and was eliminated mid-match.  Both reps are asked at every
        level, even when the first answer is already malformed.
        """
        reps = (sub1.representative, sub2.representative)
        malicious = self.responder.malicious
        differing = np.nonzero(sub1.value != sub2.value)[0]
        if differing.size == 0:
            raise ProtocolError("match requires representatives with differing responses")
        coord = int(differing[0]) + 1
        q = self.params.q
        claim1 = int(sub1.value[coord - 1])
        claim2 = int(sub2.value[coord - 1])
        lo, hi = 1, self.params.block_size + 1  # the disputed range, local and half-open
        while hi - lo > 1:
            mid = lo + (hi - lo + 1) // 2  # the left child takes the ceiling half
            self.transcript.group_rounds[group] += 1
            t = self.transcript.group_rounds[group]
            answers = []
            for rep in reps:
                if rep in malicious:
                    answers.append(self._ask(t, group, rep, LabelQuery(group, lo, mid, coord)))
                else:
                    answers.append(self._honest.label(rep, lo, mid, coord))
                    self._charge(t, group, rep, "label")
            a1, a2 = answers
            if a1 is None or a2 is None:
                return None
            if a1 == a2:
                claim1 = (claim1 - a1) % q
                claim2 = (claim2 - a2) % q
                lo = mid
            else:
                claim1, claim2 = a1, a2
                hi = mid
        index = self.params.block_of_group(group).start + lo - 1
        return index, coord, claim1, claim2

    def commit_round(self, group: int, subset: ConsistentSubset, index: int, coord: int, value: int) -> set:
        """One bit per member endorsing the representative's leaf claim.

        The representative is counted as committed: the claim is its own,
        sent during the match.  Its bit is still transmitted (and charged)
        like everyone else's.  A member whose bit is malformed, the
        representative included, is eliminated and left out of the votes.
        """
        t = self.transcript.group_rounds[group]
        committed = {subset.representative}
        malicious = self.responder.malicious
        for j in subset.workers:
            if j in malicious:
                bit = self._ask(t, group, j, CommitQuery(group, index, coord, value))
            else:
                bit = int(self._honest.value(j, index)[coord - 1]) == value
                self._charge(t, group, j, "commit")
            if bit is None:
                committed.discard(j)
            elif bit:
                committed.add(j)
        return committed

    def local_compute(self, group: int, index: int, coord: int) -> int:
        """Fetch the true gradient at ``index`` from the oracle (one unit of c).

        The full vector is computed and cached; calling again for an index
        already in the computed list is a protocol bug.
        """
        if index in self.transcript.oracle_values:
            raise ValueError(f"gradient {index} was already computed locally")
        if self.oracle_budget is not None and len(self.transcript.oracle_calls) >= self.oracle_budget:
            self.transcript.truncated = True
            raise _BudgetExhausted
        t = self.transcript.group_rounds[group]
        vec = self.truth[index - 1].copy()
        self.transcript.oracle_calls.append(OracleCall(t, group, index, coord))
        self.transcript.oracle_values[index] = vec
        return int(vec[coord - 1])

    def _settle(self, group: int, index: int, coord: int) -> int:
        if index in self.transcript.oracle_values:
            return int(self.transcript.oracle_values[index][coord - 1])
        return self.local_compute(group, index, coord)

    def elimination_tournament(self, group: int, subsets: list) -> ConsistentSubset:
        """Run matches until one consistent subset is left; return it.

        A commit set smaller than u incriminates exactly its members; when
        both claims have at least u backers the leaf is settled locally and
        every backer of a wrong value is removed.  Eliminated workers leave
        their subsets at the end of each iteration, and subsets falling
        below u members drop out.
        """
        u = self.params.u
        while len(subsets) > 1:
            subsets.sort(key=lambda sub: sub.workers[0])
            if self.random_draws:
                i1, i2 = sorted(self.rng.choice(len(subsets), size=2, replace=False))
                sub1, sub2 = subsets[int(i1)], subsets[int(i2)]
            else:
                sub1, sub2 = subsets[0], subsets[1]
            outcome = self.match(group, sub1, sub2)
            if outcome is not None:
                index, coord, claim1, claim2 = outcome
                sides = ((sub1, claim1), (sub2, claim2))
                if u == 1:  # a lone backer settles it; no vote needed
                    votes = [{sub.representative} for sub, _ in sides]
                else:
                    votes = [self.commit_round(group, sub, index, coord, claim) for sub, claim in sides]
                t = self.transcript.group_rounds[group]
                short = [backers for backers in votes if len(backers) < u]
                for backers in short:
                    self._eliminate(t, group, backers, "undersupported_commit", index)
                if not short:
                    true_value = self._settle(group, index, coord)
                    for backers, claim in zip(votes, (claim1, claim2)):
                        if claim != true_value:
                            self._eliminate(t, group, backers, "wrong_value", index)
            for sub in subsets:
                sub.workers = [j for j in sub.workers if j not in self._eliminated]
            subsets = [sub for sub in subsets if len(sub.workers) >= u]
        if not subsets:
            raise ProtocolError(f"group {group} lost every consistent subset")
        return subsets[0]

    def decode(self) -> np.ndarray:
        """Sum of the surviving value of every group, modulo q."""
        if len(self._resolved) != self.params.m:
            missing = [g for g in range(1, self.params.m + 1) if g not in self._resolved]
            raise ProtocolError(f"groups left unresolved: {missing}")
        total = np.zeros(self.params.d, dtype=np.int64)
        for g in range(1, self.params.m + 1):
            total = (total + self._resolved[g]) % self.params.q
        return total

    def execute(self):
        z0 = self.initial_round()
        pending = self.build_subsets(z0)
        try:
            for g in sorted(pending):
                survivor = self.elimination_tournament(g, pending[g])
                self._resolved[g] = survivor.value
        except _BudgetExhausted:
            return None, metrics_from_transcript(self.params, self.transcript), self.transcript
        ghat = self.decode()
        return ghat, metrics_from_transcript(self.params, self.transcript), self.transcript
