"""Execution engine with exact per-message accounting.

One run proceeds as: initial coded round (every worker sends its block sum,
d symbols at t=0), grouping of each fractional-repetition group into
consistent subsets by exact equality of the initial responses, an
elimination tournament per unresolved group, and final decoding by summing
the surviving group values.

A tournament iteration pairs the two subsets with the lowest-numbered
representatives, runs a match between them (binary search down the
sum-tree, one differing coordinate, two symbols per round), collects one
commit bit from every member of both subsets, and settles the disputed leaf
with a local computation when both claims have at least u backers.  Rounds
count match levels only; commit bits are charged to the communication
overhead but not to the round count.  Groups advance independently, so the
round total is the maximum over groups.

For u = 1 the commit exchange is skipped: a single backer suffices and the
representative vouches for its own claim by having sent it, so every match
is settled directly by a local computation (the pairwise flow).

Accounting rules:
  - kappa sums worker-to-main symbols for rounds t >= 1 (labels are one
    symbol, commit bits convert at 1/log2(q) symbols); the initial t=0
    responses are excluded and reported separately via total_comm = n*d + kappa.
  - c counts distinct gradient indices fetched from the local oracle.  A
    leaf that was already settled is decided from the cached value without
    touching the oracle again.
  - every worker, honest or malicious, is asked each query through one
    reply path, which charges the message (initial d symbols, label 1
    symbol, commit 1 bit) whatever comes back: it appends it to the
    event log and adds its t >= 1 symbols and bits to exact counters,
    which kappa is computed from.  An honest worker is a worker with no
    deviations: its answer comes from the honest table, which reduces
    every answer mod q, so it is not checked.  A malicious worker's answer
    is validated: a response of the wrong shape or type, or outside the
    alphabet, incriminates its sender, who is eliminated on the spot
    (reasons malformed_initial, malformed_label and malformed_commit); so
    is a malicious responder that raises instead of answering.  A commit
    bit must be a bool; anything else is not counted as a vote.
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


_record = tuple.__new__  # a NamedTuple from a tuple of its fields, as namedtuple._make builds it
# query type -> (kind, symbols, bits) of the message answering it; None: d symbols
_COST = {InitialQuery: ("initial", None, 0), LabelQuery: ("label", 1, 0), CommitQuery: ("commit", 0, 1)}


class ProtocolError(RuntimeError):
    """Internal invariant violated; indicates a bug, not adversary behaviour."""


@dataclass
class Transcript:
    """Everything a run transmitted, computed and decided, logged in ``events`` in the order it happened.

    ``messages``, ``oracle_calls`` and ``eliminations`` are read-only views of that one log."""

    events: list = field(default_factory=list)
    kappa_symbols: int = 0  # symbols and bits of the t >= 1 messages, counted as charged
    kappa_bits: int = 0
    oracle_values: dict = field(default_factory=dict)  # gradient index -> full vector, in call order
    group_rounds: dict = field(default_factory=dict)

    messages = property(lambda self: [event for event in self.events if type(event) is Message])
    oracle_calls = property(lambda self: [event for event in self.events if type(event) is OracleCall])
    eliminations = property(lambda self: [event for event in self.events if type(event) is EliminationEvent])

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


class Metrics(NamedTuple):
    T: int
    c: int
    r: Fraction
    kappa: float
    total_comm: float


def metrics_from_transcript(params: SchemeParams, transcript: Transcript) -> Metrics:
    kappa = transcript.kappa_symbols + transcript.kappa_bits / math.log2(params.q)  # bits at 1/log2(q) symbols
    T = max(transcript.group_rounds.values(), default=0)
    r = Fraction(params.group_size)
    return _record(Metrics, (T, len(transcript.oracle_values), r, kappa, params.n * params.d + kappa))


@dataclass
class ConsistentSubset:
    """Workers of one group that returned identical initial responses."""

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
        rng: np.random.Generator = None,  # unread; perfbench/child.py's replay still passes it
    ):
        if len(responder.malicious) > params.s:
            raise ValueError(
                f"adversary controls {len(responder.malicious)} workers; budget is s={params.s}"
            )
        self.params = params
        self.responder = responder
        self.transcript = Transcript(group_rounds={g: 0 for g in range(1, params.m + 1)})
        self._resolved = {}  # group -> surviving value, shape (d,)
        self._eliminated = set()  # every worker eliminated so far, in any group
        table = getattr(responder, "table", None)
        shared = table is not None and table.params == params and table.truth is truth
        if shared and table.deviations.keys() <= responder.malicious:  # no honest worker has an entry
            self._honest = table  # so every honest answer is the truth: one memo of truth sums
        else:
            self._honest = ClaimedGradientTable(params, truth)  # checks the truth (core.as_truth)
        self.truth = self._honest.truth

    # -- plumbing ----------------------------------------------------------

    def _eliminate(self, t, group, workers, reason, index=0):
        if workers:
            self.transcript.events.append(
                _record(EliminationEvent, (t, group, tuple(sorted(workers)), reason, index))
            )
            self._eliminated.update(workers)

    def _reply(self, t, group, worker, query):
        """Send ``query`` to ``worker``, charge the message and return the answer as the engine uses it.

        Every message goes through here: it is logged and its t >= 1 cost is
        added to the kappa counters whatever comes back.  An honest worker is
        answered by the honest table.  A malicious worker's answer is
        checked; it comes back in canonical form (an int64 vector, a symbol
        or a bool), or as None after the sender is eliminated as
        malformed_<kind>.  Anything the responder raises counts as a
        malformed answer.
        """
        kind, symbols, bits = _COST[type(query)]
        if symbols is None:
            symbols = self.params.d
        transcript = self.transcript
        transcript.events.append(_record(Message, (t, group, worker, kind, symbols, bits)))
        if t >= 1:
            transcript.kappa_symbols += symbols
            transcript.kappa_bits += bits
        if worker not in self.responder.malicious:
            return self._honest.answer(worker, query)
        try:
            value = self._validate(kind, self.responder.respond(worker, query))
        except Exception:
            value = None
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
        for g in range(1, self.params.m + 1):
            query = _record(InitialQuery, (g,))
            for j in self.params.workers_of_group(g):
                vec = self._reply(0, g, j, query)
                if vec is not None:
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
            subsets = buckets.values()  # in first-worker order, as the workers were visited
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
                pending[g] = [ConsistentSubset(workers=ws, value=z0[ws[0]]) for ws in keep]
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
        rep1, rep2 = sub1.representative, sub2.representative
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
            query = _record(LabelQuery, (group, lo, mid, coord))
            a1 = self._reply(t, group, rep1, query)
            a2 = self._reply(t, group, rep2, query)
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
        query = _record(CommitQuery, (group, index, coord, value))
        for j in subset.workers:
            bit = self._reply(t, group, j, query)
            if bit is None:
                committed.discard(j)
            elif bit:
                committed.add(j)
        return committed

    def local_compute(self, group: int, index: int, coord: int) -> int:
        """The true value of gradient ``index`` at ``coord``.

        The first call for an index is one oracle call (one unit of c), which
        caches the full vector; a later call reads the cache and logs nothing.
        """
        vec = self.transcript.oracle_values.get(index)
        if vec is None:
            t = self.transcript.group_rounds[group]
            vec = self.transcript.oracle_values[index] = self.truth[index - 1].copy()
            self.transcript.events.append(_record(OracleCall, (t, group, index, coord)))
        return int(vec[coord - 1])

    def elimination_tournament(self, group: int, subsets: list) -> ConsistentSubset:
        """Run matches until one consistent subset is left; return it.

        A commit set smaller than u incriminates exactly its members; when
        both claims have at least u backers the leaf is settled locally and
        every backer of a wrong value is removed.  Eliminated workers leave
        their subsets at the end of each iteration, and subsets falling
        below u members drop out.  Invariant: a group plays at most s+1-u
        matches, as scheme_upper_bounds proves; more than one subset left
        after them, or none, is a ProtocolError, never a hang.
        """
        u = self.params.u
        for _ in range(self.params.s + 1 - u):
            if len(subsets) < 2:
                break
            subsets.sort(key=lambda sub: sub.workers[0])
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
                    true_value = self.local_compute(group, index, coord)
                    for backers, claim in zip(votes, (claim1, claim2)):
                        if claim != true_value:
                            self._eliminate(t, group, backers, "wrong_value", index)
            for sub in subsets:
                sub.workers = [j for j in sub.workers if j not in self._eliminated]
            subsets = [sub for sub in subsets if len(sub.workers) >= u]
        if len(subsets) != 1:
            raise ProtocolError(f"group {group} ends its at most s+1-u matches with {len(subsets)} consistent subsets")
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
        pending = self.build_subsets(self.initial_round())
        for g in sorted(pending):
            self._resolved[g] = self.elimination_tournament(g, pending[g]).value
        return self.decode(), metrics_from_transcript(self.params, self.transcript), self.transcript
