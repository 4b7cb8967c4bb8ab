"""Adversary strategies.

Two families are modelled.  Consistent adversaries fix a claimed-gradient
table up front and answer every query by evaluating it, so their responses
never contradict each other across rounds; the symmetrization attack is the
canonical instance, engineered so that different ground truths produce
identical tables.  Message-level adversaries answer each query however they
like, including inconsistently ("flip-flop").

A strategy object is an immutable value; ``instantiate`` binds it to one
run's parameters, truth and RNG substream and returns a responder holding
any per-run state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .core import SchemeParams, as_truth, block_sums, random_gradients, sum_dtype, wide_rows


class InitialQuery(NamedTuple):
    group: int


class LabelQuery(NamedTuple):
    group: int
    lo: int  # local to the group block, 1-based, half-open
    hi: int
    coord: int


class CommitQuery(NamedTuple):
    group: int
    index: int  # global gradient index
    coord: int
    value: int  # the representative's claimed residue at (index, coord)


class ClaimedGradientTable:
    """What every worker claims: a reference truth plus sparse per-worker deviations.

    ``deviations[j]`` maps a global gradient index in worker j's block to the
    read-only (d,) vector j claims there instead of the truth, shared by the
    workers one ``set`` gave it to; a worker with no deviations is honest.
    Values outside a worker's block are not representable, matching the
    assignment structure.  The (p, d) truth passes ``core.as_truth``, is
    shared with the caller when already in that form, and is only ever read;
    deviations and sums are int64.  No sum of the truth spans a chunk, so
    each accumulates in ``core.sum_dtype`` of its dtype, the chunk and q: its
    own dtype at a power-of-two q, else uint32 when a chunk of values q - 1
    sums below 2**32.  So each is exact mod q, and exact outright unless q
    is a power of two, and every answer is reduced mod q.  The direct sums
    call ``np.add.reduce``, which skips the ``.sum`` wrapper on this hot path.

    Sums of the truth are memoized on first use.  Each block gets a chunk
    table from one ``core.block_sums`` pass: the int64 prefix sums at every
    boundary of a chunk of CHUNK wide rows (``core.wide_rows``), shape
    (n_chunks + 1, d), or None in a block shorter than one chunk, and the
    block sum mod q.  Each label slice sum is kept by (first, stop, coord)
    (global, half-open); a range of at least one chunk is two prefix entries
    plus at most two partial chunks, a shorter one is summed directly.
    ``z0`` and ``label`` add a worker's own deviations on top of them, so
    the memo relies on the truth array not changing while the table is alive.
    """

    CHUNK = 16  # wide rows per chunk

    def __init__(self, params: SchemeParams, truth: np.ndarray):
        self.params = params
        self.truth = as_truth(truth, params.q)
        if self.truth.shape != (params.p, params.d):
            raise ValueError(f"truth must have shape (p, d)={(params.p, params.d)}, got {self.truth.shape}")
        self.deviations = {}
        self._sums = {}  # block start -> (prefix sums or None, block sum mod q); (first, stop, coord) -> int
        self._chunk, self._acc, self._blocks = _layout(params, self.truth.dtype)

    def _block(self, worker: int, index: int = None) -> range:
        """The global gradient indices of ``worker``'s block (checking ``index`` is one)."""
        if not 1 <= worker <= self.params.n:
            raise ValueError(f"worker id out of range: {worker}")
        block = self._blocks[(worker - 1) // self.params.group_size]
        if index is not None and index not in block:
            raise ValueError(f"gradient {index} is not assigned to worker {worker}")
        return block

    def set(self, workers, index: int, vector) -> None:
        """Make ``workers`` (one id, or a range of ids) claim ``vector`` (reduced mod q) at global ``index``."""
        workers = workers if isinstance(workers, range) else (workers,)
        for worker in workers:
            self._block(worker, index)
        vec = np.asarray(vector, dtype=np.int64) % self.params.q
        if vec.shape != (self.params.d,):
            raise ValueError(f"claimed vector must have shape ({self.params.d},): got {vec.shape}")
        vec.setflags(write=False)
        truthful = vec.tolist() == self.truth[index - 1].tolist()
        for worker in workers:
            own = self.deviations.setdefault(worker, {})
            if truthful:
                own.pop(index, None)
            else:
                own[index] = vec

    def value(self, worker: int, index: int) -> np.ndarray:
        self._block(worker, index)
        return self.deviations.get(worker, {}).get(index, self.truth[index - 1])

    def z0(self, worker: int) -> np.ndarray:
        """The worker's initial response: its claimed block sum mod q."""
        block = self._block(worker)
        total = (self._sums.get(block.start) or self._chunk_table(block))[1]  # no call on a memo hit
        own = self.deviations.get(worker)
        if not own:
            return total
        for index, vec in own.items():
            total = total + vec - self.truth[index - 1]
        return total % self.params.q

    def label(self, worker: int, lo: int, hi: int, coord: int) -> int:
        """Claimed sum at ``coord`` over block positions [lo, hi) (1-based), mod q."""
        block = self._block(worker)
        if not 1 <= lo < hi <= len(block) + 1 or not 1 <= coord <= self.params.d:
            raise ValueError(f"no label for range [{lo}, {hi}) at coordinate {coord}")
        first, stop = block.start + lo - 1, block.start + hi - 1  # global, half-open
        key = (first, stop, coord)
        total = self._sums.get(key)
        if total is None:
            chunk = self._chunk
            if stop - first < chunk:
                total = int(np.add.reduce(self.truth[first - 1 : stop - 1, coord - 1], dtype=self._acc))
            else:  # whole chunks from the prefix table, the partial ones at each end directly
                prefix = self._chunk_table(block)[0][:, coord - 1]
                a = -((block.start - first) // chunk)  # first chunk boundary at or after first
                b = (stop - block.start) // chunk  # last chunk boundary at or before stop
                column = self.truth[:, coord - 1]
                cut_a, cut_b = block.start - 1 + a * chunk, block.start - 1 + b * chunk
                total = (
                    int(prefix[b] - prefix[a])
                    + int(np.add.reduce(column[first - 1 : cut_a], dtype=self._acc))
                    + int(np.add.reduce(column[cut_b : stop - 1], dtype=self._acc))
                )
            self._sums[key] = total
        for index, vec in self.deviations.get(worker, {}).items():
            if first <= index < stop:
                total += int(vec[coord - 1]) - int(self.truth[index - 1, coord - 1])
        return total % self.params.q

    def _chunk_table(self, block: range):
        """The block's ``core.block_sums`` in chunks of CHUNK wide rows, its total reduced mod q."""
        entry = self._sums.get(block.start)
        if entry is None:
            prefix, total = block_sums(self.truth[block.start - 1 : block.stop - 1], self._chunk, self.params.q)
            total %= self.params.q
            total.setflags(write=False)
            entry = self._sums[block.start] = (prefix, total)
        return entry

    def answer(self, worker: int, query):
        """The response ``worker`` sends to ``query`` under these claims."""
        if isinstance(query, InitialQuery):
            return self.z0(worker)
        if isinstance(query, LabelQuery):
            return self.label(worker, query.lo, query.hi, query.coord)
        if isinstance(query, CommitQuery):
            return int(self.value(worker, query.index)[query.coord - 1]) == query.value
        raise TypeError(f"unknown query type: {type(query).__name__}")

    def differs_from(self, worker: int, truth: np.ndarray) -> bool:
        """Whether ``worker`` claims anything other than ``truth`` on its block."""
        block = self._block(worker)
        own = self.deviations.get(worker, {})
        if any(not np.array_equal(vec, truth[index - 1]) for index, vec in own.items()):
            return True
        span = slice(block.start - 1, block.stop - 1)
        moved = np.nonzero((self.truth[span] != truth[span]).any(axis=1))[0] + block.start
        return any(int(index) not in own for index in moved)

    def to_bytes(self) -> bytes:
        """Canonical encoding: the reference truth, then every deviation in (worker, index) order.

        Every value is encoded as int64, whatever the dtype of the truth.
        """
        parts = [np.asarray(self.truth, dtype=np.int64).tobytes()]
        for worker in sorted(self.deviations):
            for index, vec in sorted(self.deviations[worker].items()):
                parts.append(np.array([worker, index], dtype=np.int64).tobytes() + vec.tobytes())
        return b"".join(parts)


@lru_cache(maxsize=1)  # one sweep point's, shared by the tables of all its runs
def _layout(params: SchemeParams, dtype) -> tuple:
    """A table's rows per chunk, their sums' accumulator (``core.sum_dtype``) and every group's block."""
    chunk = ClaimedGradientTable.CHUNK * wide_rows(params.d)
    return chunk, sum_dtype(dtype, chunk, params.q), tuple(params.block_of_group(g) for g in range(1, params.m + 1))


def _deviated(vec: np.ndarray, q: int, rng: np.random.Generator) -> np.ndarray:
    """Copy of ``vec`` with one uniformly chosen coordinate altered to a uniform other value.

    The protocol compares single coordinates, so one is enough to plant a dispute.
    """
    out = vec.copy()
    k = int(rng.integers(out.shape[0]))
    out[k] = (int(out[k]) + 1 + int(rng.integers(q - 1))) % q  # Python ints: no uint16 or uint32 wrap
    return out


def symmetrization_attack(
    params: SchemeParams, truth: np.ndarray, rng: np.random.Generator, mode: str = "per-index"
):
    """Consistent claimed-gradient table for the symmetrization attack by workers 1..s.

    Workers 1..s all sit in group 1.  Draws floor(s/u) disputed indices
    uniformly from its block.  In per-index mode, disjoint size-u subsets of
    workers 1..s each plant one shared wrong value on their own index; the
    s mod u leftover workers claim the truth.  In collusive mode all s
    workers plant the same wrong value on a single index drawn from the set.

    Returns (table, indices): the sorted global indices of the disagreement
    set, all in group 1's block (empty when s < u).
    """
    if mode not in ("per-index", "collusive"):
        raise ValueError(f"unknown attack mode: {mode!r}")

    table = ClaimedGradientTable(params, truth)
    n_dev = params.s // params.u
    if n_dev == 0:
        return table, ()
    block = params.block_size
    if n_dev > block:
        raise ValueError(
            f"disagreement set of size {n_dev} does not fit in a block of {block}"
        )

    picks = rng.choice(block, size=n_dev, replace=False)
    indices = tuple(sorted(int(x) + 1 for x in picks))  # group 1: local == global

    if mode == "per-index":
        for chunk, index in enumerate(indices):
            wrong = _deviated(table.truth[index - 1], params.q, rng)
            table.set(range(chunk * params.u + 1, (chunk + 1) * params.u + 1), index, wrong)
    else:
        index = indices[int(rng.integers(len(indices)))]
        table.set(range(1, params.s + 1), index, _deviated(table.truth[index - 1], params.q, rng))

    return table, indices


@dataclass(frozen=True)
class World:
    """One complete ground truth plus the claimed table the main node observes."""

    truth: np.ndarray
    table: ClaimedGradientTable
    malicious: frozenset


def flip_world(params: SchemeParams, truth: np.ndarray, table: ClaimedGradientTable, index: int) -> World:
    """Alternative world where the truth at ``index`` is the planted wrong value.

    The workers claiming the wrong value at ``index`` become the honest ones;
    everyone else in the attacked group becomes malicious.  The claimed table
    is unchanged, which is the whole point.
    """
    group = params.workers_of_group(1)
    deviators = [
        j for j in group if not np.array_equal(table.value(j, index), truth[index - 1])
    ]
    if not deviators:
        raise ValueError(f"no competing value planted at index {index}")
    flipped = table.truth.copy()  # canonical (core.as_truth), so the planted value fits
    flipped[index - 1] = table.value(deviators[0], index)
    malicious = frozenset(j for j in group if table.differs_from(j, flipped))
    return World(truth=flipped, table=table, malicious=malicious)


def attacked_world(params: SchemeParams, rng: np.random.Generator):
    """A truth drawn from ``rng`` under the per-index attack of workers 1..s.

    Returns (world, the attack's sorted disputed indices).
    """
    truth = random_gradients(params, rng)
    table, indices = symmetrization_attack(params, truth, rng)
    world = World(truth=truth, table=table, malicious=frozenset(range(1, params.s + 1)))
    return world, indices


def two_case_worlds(params: SchemeParams, rng):
    """Two worlds with byte-identical claimed tables but different full gradients.

    World 1 takes the synthesized truth at face value; all planted values are
    lies by the first s workers.  World 2 flips the truth at one disputed
    index to the planted value, which swaps the honest/malicious roles there.
    Requires s >= u so that at least one index is disputed.
    """
    if params.s < params.u:
        raise ValueError(f"requires floor(s/u) >= 1: s={params.s}, u={params.u}")
    rng = np.random.default_rng(rng)  # a Generator is used as it is
    world1, indices = attacked_world(params, rng)
    flip_index = indices[int(rng.integers(len(indices)))]
    world2 = flip_world(params, world1.truth, world1.table, flip_index)
    if len(world2.malicious) > params.s:
        raise AssertionError("flipped world exceeds the malicious budget")
    return world1, world2


# ---------------------------------------------------------------------------
# responders (per-run adversary state)


class Responder:
    """The workers one run's adversary controls and how each answers a query.

    ``answer(worker, query)`` is only ever called for a controlled worker.
    Responders that answer from a claimed-gradient table also expose it as
    ``table``.  A run over the table's own params and truth array answers
    its honest workers from that table when none of them has a
    ``deviations`` entry, so every honest answer is the truth and the run
    shares the table's memo of truth sums; otherwise it builds a fresh
    table.
    """

    def __init__(self, malicious, answer: Callable):
        self.malicious = frozenset(malicious)
        self._answer = answer

    def respond(self, worker, query):
        if worker not in self.malicious:
            raise ValueError(f"worker {worker} is not controlled by this adversary")
        return self._answer(worker, query)


def _table_responder(malicious, table: ClaimedGradientTable) -> Responder:
    """Answers every query by evaluating a fixed claimed-gradient table."""
    responder = Responder(malicious, table.answer)
    responder.table = table
    return responder


# ---------------------------------------------------------------------------
# strategies (immutable, reusable across runs)


@dataclass(frozen=True)
class NoAdversary:
    def instantiate(self, params, truth, rng):
        return Responder(frozenset(), None)  # controls nobody, so never answers


@dataclass(frozen=True)
class TableAdversary:
    """Fixed claimed table plus the set of workers bound to it."""

    table: ClaimedGradientTable
    malicious: frozenset

    def instantiate(self, params, truth, rng):
        if self.table.params != params:
            raise ValueError("table was built for different parameters")
        for j in range(1, params.n + 1):
            if j not in self.malicious and self.table.differs_from(j, truth):
                raise ValueError(f"honest worker {j} has claims differing from the truth")
        return _table_responder(self.malicious, self.table)


@dataclass(frozen=True)
class SymmetrizationAdversary:
    """Draws a fresh symmetrization table per run; controls workers 1..s."""

    mode: str = "per-index"

    def instantiate(self, params, truth, rng):
        table, _ = symmetrization_attack(params, truth, rng, self.mode)
        return _table_responder(range(1, params.s + 1), table)


@dataclass(frozen=True)
class FlipFlopAdversary:
    """Uniformly random responder on s workers drawn from all n per run.

    Every query gets fresh uniform noise, so nothing is consistent.  One RNG
    substream per group keeps responses independent of the order in which
    group tournaments are executed.
    """

    def instantiate(self, params, truth, rng):
        picks = rng.choice(params.n, size=params.s, replace=False)
        malicious = frozenset(int(j) + 1 for j in picks)
        group_rng = dict(zip(range(1, params.m + 1), rng.spawn(params.m)))

        def answer(worker, query):
            stream = group_rng[query.group]
            if isinstance(query, InitialQuery):
                return stream.integers(0, params.q, size=params.d, dtype=np.int64)
            if isinstance(query, LabelQuery):
                return int(stream.integers(params.q))
            if isinstance(query, CommitQuery):
                return bool(stream.integers(2))
            raise TypeError(f"unknown query type: {type(query).__name__}")

        return Responder(malicious, answer)


@dataclass(frozen=True)
class CallbackAdversary:
    """Message-level strategy with caller-supplied behaviour."""

    malicious: frozenset
    fn: Callable

    def instantiate(self, params, truth, rng):
        return Responder(self.malicious, lambda worker, query: self.fn(worker, query, rng))
