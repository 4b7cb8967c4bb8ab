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
from typing import Callable, NamedTuple

import numpy as np

from .core import SchemeParams, full_gradient


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


@dataclass(frozen=True)
class DisagreementSet:
    """Gradient indices the attack plants competing values on (global, sorted)."""

    group: int
    indices: tuple


class ClaimedGradientTable:
    """What every worker claims: a reference truth plus sparse per-worker deviations.

    ``deviations[j]`` maps a global gradient index in worker j's block to the
    (d,) vector j claims there instead of the truth; a worker with no
    deviations is honest.  Values outside a worker's block are not
    representable, matching the assignment structure.  The truth array is
    shared with the caller and only ever read.
    """

    def __init__(self, params: SchemeParams, truth: np.ndarray):
        self.params = params
        self.truth = np.asarray(truth, dtype=np.int64)
        self.deviations = {}
        self._block_sums = {}  # group -> truth block sum mod q, computed on first use

    def _block(self, worker: int, index: int = None) -> range:
        block = self.params.block_of_group(self.params.group_of_worker(worker))
        if index is not None and index not in block:
            raise ValueError(f"gradient {index} is not assigned to worker {worker}")
        return block

    def set(self, worker: int, index: int, vector) -> None:
        """Make ``worker`` claim ``vector`` (reduced mod q) at global ``index``."""
        self._block(worker, index)
        vec = np.asarray(vector, dtype=np.int64) % self.params.q
        if vec.shape != (self.params.d,):
            raise ValueError(f"claimed vector must have shape ({self.params.d},): got {vec.shape}")
        own = self.deviations.setdefault(worker, {})
        if np.array_equal(vec, self.truth[index - 1]):
            own.pop(index, None)
        else:
            own[index] = vec

    def value(self, worker: int, index: int) -> np.ndarray:
        self._block(worker, index)
        return self.deviations.get(worker, {}).get(index, self.truth[index - 1])

    def z0(self, worker: int) -> np.ndarray:
        """The worker's initial response: its claimed block sum mod q."""
        g = self.params.group_of_worker(worker)
        total = self._block_sums.get(g)
        if total is None:
            block = self.params.block_of_group(g)
            total = self.truth[block.start - 1 : block.stop - 1].sum(axis=0) % self.params.q
            total.setflags(write=False)
            self._block_sums[g] = total
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
        total = int(self.truth[first - 1 : stop - 1, coord - 1].sum())
        for index, vec in self.deviations.get(worker, {}).items():
            if first <= index < stop:
                total += int(vec[coord - 1]) - int(self.truth[index - 1, coord - 1])
        return total % self.params.q

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
        """Canonical encoding: the reference truth, then every deviation in (worker, index) order."""
        parts = [self.truth.tobytes()]
        for worker in sorted(self.deviations):
            for index, vec in sorted(self.deviations[worker].items()):
                parts.append(np.array([worker, index], dtype=np.int64).tobytes() + vec.tobytes())
        return b"".join(parts)

    def identical_to(self, other: "ClaimedGradientTable") -> bool:
        return self.params == other.params and self.to_bytes() == other.to_bytes()


def honest_table(params: SchemeParams, truth: np.ndarray) -> ClaimedGradientTable:
    """Table in which every worker claims the true values of its block."""
    return ClaimedGradientTable(params, truth)


def _deviated(vec: np.ndarray, q: int, rng: np.random.Generator) -> np.ndarray:
    """Copy of ``vec`` with one uniformly chosen coordinate altered to a uniform other value.

    The protocol compares single coordinates, so one is enough to plant a dispute.
    """
    out = vec.copy()
    k = int(rng.integers(out.shape[0]))
    out[k] = (out[k] + 1 + rng.integers(q - 1)) % q
    return out


def symmetrization_attack(
    params: SchemeParams,
    truth: np.ndarray,
    malicious,
    rng: np.random.Generator,
    mode: str = "per-index",
    leftover_mimic: bool = False,
):
    """Consistent claimed-gradient table for the symmetrization attack.

    Draws floor(s/u) disputed indices uniformly from the attacked group's
    block.  In per-index mode, disjoint malicious subsets of size u each
    plant one shared wrong value on their own index; the s mod u leftover
    workers claim the truth (or mimic a uniformly chosen subset when
    ``leftover_mimic`` is set).  In collusive mode every malicious worker
    plants the same wrong value on a single index drawn from the set.
    ``mode="coinflip"`` picks collusive with probability 1/2.

    Returns (table, disagreement_set).
    """
    malicious = sorted(int(j) for j in malicious)
    if len(set(malicious)) != len(malicious):
        raise ValueError("malicious worker ids must be distinct")
    if len(malicious) != params.s:
        raise ValueError(
            f"symmetrization controls exactly s workers: got {len(malicious)}, s={params.s}"
        )
    if malicious:
        groups = {params.group_of_worker(j) for j in malicious}
        if len(groups) > 1:
            raise ValueError("malicious set spans multiple groups")
        if groups != {1}:
            raise ValueError("symmetrization attacks the first group only")

    if mode == "coinflip":
        mode = "collusive" if int(rng.integers(2)) == 1 else "per-index"
    if mode not in ("per-index", "collusive"):
        raise ValueError(f"unknown attack mode: {mode!r}")

    truth = np.asarray(truth, dtype=np.int64)
    table = honest_table(params, truth)
    n_dev = params.s // params.u
    if n_dev == 0:
        return table, DisagreementSet(group=1, indices=())
    block = params.block_size
    if n_dev > block:
        raise ValueError(
            f"disagreement set of size {n_dev} does not fit in a block of {block}"
        )

    picks = rng.choice(block, size=n_dev, replace=False)
    indices = tuple(sorted(int(x) + 1 for x in picks))  # group 1: local == global

    if mode == "per-index":
        for chunk, index in enumerate(indices):
            wrong = _deviated(truth[index - 1], params.q, rng)
            for j in malicious[chunk * params.u : (chunk + 1) * params.u]:
                table.set(j, index, wrong)
        leftovers = malicious[n_dev * params.u :]
        if leftovers and leftover_mimic:
            pick = int(rng.integers(n_dev + 1))
            if pick < n_dev:  # mimic subset `pick`; the last option is mimicking honesty
                wrong = table.value(malicious[pick * params.u], indices[pick])
                for j in leftovers:
                    table.set(j, indices[pick], wrong)
    else:
        index = int(rng.choice(np.asarray(indices)))
        wrong = _deviated(truth[index - 1], params.q, rng)
        for j in malicious:
            table.set(j, index, wrong)

    return table, DisagreementSet(group=1, indices=indices)


@dataclass(frozen=True)
class World:
    """One complete ground truth plus the claimed table the main node observes."""

    truth: np.ndarray
    table: ClaimedGradientTable
    malicious: frozenset

    def full_gradient(self) -> np.ndarray:
        return full_gradient(self.truth, self.table.params.q)


def flip_world(params: SchemeParams, truth: np.ndarray, table: ClaimedGradientTable, index: int) -> World:
    """Alternative world where the truth at ``index`` is the planted wrong value.

    The workers claiming the wrong value at ``index`` become the honest ones;
    everyone else in the attacked group becomes malicious.  The claimed table
    is unchanged, which is the whole point.
    """
    truth = np.asarray(truth, dtype=np.int64)
    group = params.workers_of_group(1)
    deviators = [
        j for j in group if not np.array_equal(table.value(j, index), truth[index - 1])
    ]
    if not deviators:
        raise ValueError(f"no competing value planted at index {index}")
    flipped = truth.copy()
    flipped[index - 1] = table.value(deviators[0], index)
    malicious = frozenset(j for j in group if table.differs_from(j, flipped))
    return World(truth=flipped, table=table, malicious=malicious)


def two_case_worlds(params: SchemeParams, rng, flip_index: int = None):
    """Two worlds with byte-identical claimed tables but different full gradients.

    World 1 takes the synthesized truth at face value; all planted values are
    lies by the first s workers.  World 2 flips the truth at one disputed
    index to the planted value, which swaps the honest/malicious roles there.
    Requires s >= u so that at least one index is disputed.
    """
    if params.s < params.u:
        raise ValueError(f"requires floor(s/u) >= 1: s={params.s}, u={params.u}")
    rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    from .core import random_gradients

    truth = random_gradients(params, rng)
    malicious = list(range(1, params.s + 1))
    table, disagreement = symmetrization_attack(params, truth, malicious, rng)
    if flip_index is None:
        flip_index = int(rng.choice(np.asarray(disagreement.indices)))
    elif flip_index not in disagreement.indices:
        raise ValueError(f"index {flip_index} is not in the disagreement set")
    world1 = World(truth=truth, table=table, malicious=frozenset(malicious))
    world2 = flip_world(params, truth, table, flip_index)
    if len(world2.malicious) > params.s:
        raise AssertionError("flipped world exceeds the malicious budget")
    return world1, world2


# ---------------------------------------------------------------------------
# responders (per-run adversary state)


class _NullResponder:
    malicious = frozenset()

    def respond(self, worker, query):
        raise ValueError(f"worker {worker} is not controlled by this adversary")


class TableResponder:
    """Answers every query by evaluating a fixed claimed-gradient table."""

    def __init__(self, malicious, table: ClaimedGradientTable, disagreement=None):
        self.malicious = frozenset(malicious)
        self.table = table
        self.disagreement = disagreement

    def respond(self, worker, query):
        if worker not in self.malicious:
            raise ValueError(f"worker {worker} is not controlled by this adversary")
        return self.table.answer(worker, query)


class FlipFlopResponder:
    """Answers every query with fresh uniform noise; nothing is consistent.

    One RNG substream per group keeps responses independent of the order in
    which group tournaments are executed.
    """

    def __init__(self, malicious, params: SchemeParams, rng: np.random.Generator):
        self.malicious = frozenset(malicious)
        self.params = params
        self._group_rng = dict(zip(range(1, params.m + 1), rng.spawn(params.m)))

    def respond(self, worker, query):
        if worker not in self.malicious:
            raise ValueError(f"worker {worker} is not controlled by this adversary")
        rng = self._group_rng[query.group]
        if isinstance(query, InitialQuery):
            return rng.integers(0, self.params.q, size=self.params.d, dtype=np.int64)
        if isinstance(query, LabelQuery):
            return int(rng.integers(self.params.q))
        if isinstance(query, CommitQuery):
            return bool(rng.integers(2))
        raise TypeError(f"unknown query type: {type(query).__name__}")


class CallbackResponder:
    """Arbitrary message-level behaviour supplied as a callback (tests use this)."""

    def __init__(self, malicious, fn: Callable, rng: np.random.Generator = None):
        self.malicious = frozenset(malicious)
        self._fn = fn
        self._rng = rng

    def respond(self, worker, query):
        if worker not in self.malicious:
            raise ValueError(f"worker {worker} is not controlled by this adversary")
        return self._fn(worker, query, self._rng)


# ---------------------------------------------------------------------------
# strategies (immutable, reusable across runs)


@dataclass(frozen=True)
class NoAdversary:
    def instantiate(self, params, truth, rng):
        return _NullResponder()


@dataclass(frozen=True)
class TableAdversary:
    """Fixed claimed table plus the set of workers bound to it."""

    table: ClaimedGradientTable
    malicious: frozenset

    def instantiate(self, params, truth, rng):
        if self.table.params != params:
            raise ValueError("table was built for different parameters")
        truth = np.asarray(truth, dtype=np.int64)
        for j in range(1, params.n + 1):
            if j not in self.malicious and self.table.differs_from(j, truth):
                raise ValueError(f"honest worker {j} has claims differing from the truth")
        return TableResponder(self.malicious, self.table)


@dataclass(frozen=True)
class SymmetrizationAdversary:
    """Draws a fresh symmetrization table per run; controls workers 1..s."""

    mode: str = "per-index"
    leftover_mimic: bool = False

    def instantiate(self, params, truth, rng):
        malicious = frozenset(range(1, params.s + 1))
        table, disagreement = symmetrization_attack(
            params,
            truth,
            sorted(malicious),
            rng,
            mode=self.mode,
            leftover_mimic=self.leftover_mimic,
        )
        return TableResponder(malicious, table, disagreement=disagreement)


@dataclass(frozen=True)
class FlipFlopAdversary:
    """Uniformly random responder on a seeded set of workers (s by default)."""

    count: int = None  # type: ignore[assignment]

    def instantiate(self, params, truth, rng):
        count = params.s if self.count is None else self.count
        if count > params.s:
            raise ValueError(f"cannot control {count} workers with budget s={params.s}")
        picks = rng.choice(params.n, size=count, replace=False)
        malicious = frozenset(int(j) + 1 for j in picks)
        return FlipFlopResponder(malicious, params, rng)


@dataclass(frozen=True)
class CallbackAdversary:
    """Message-level strategy with caller-supplied behaviour."""

    malicious: frozenset
    fn: Callable

    def instantiate(self, params, truth, rng):
        return CallbackResponder(self.malicious, self.fn, rng)
