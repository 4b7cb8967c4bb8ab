"""The one catalogue of test adversaries: coalitions, random tables and
malformed answers.

``PlantedCoalitions`` is the one table-backed shape: malicious workers plant
wrong values in a claimed table, may withhold their commit bits, may lie on
labels and may send junk, or raise, in place of any kind of answer.  Which
shape reaches which bound:

- the deepest leaf (``deepest_leaf_coalitions`` with ``sizes=[s]``) reaches
  T_upper and kappa's single-group bound B(s);
- the balanced split over the worst group count (``balanced_sizes``)
  reaches kappa_upper;
- the built-in per-index symmetrization (``SymmetrizationAdversary``)
  reaches c_upper.

``spread_coalitions`` searches coalitions spread over groups,
``deviation_table`` draws random consistent tables, and
``malformed_answers`` any answer a malicious worker might send, over the
configurations of ``scheme_params``.  At tiny configurations ``ChoiceTape``
and ``worst_runs`` go further: they play every adaptive strategy of every
size-s coalition.
"""

import itertools

import numpy as np
from hypothesis import strategies as st

from bgcsim.adversary import ClaimedGradientTable, CommitQuery, InitialQuery, LabelQuery, Responder, TableAdversary
from bgcsim.bounds import run_trial
from bgcsim.core import SchemeParams, random_gradients


class RAISE:
    """A junk answer: the responder raises instead of answering."""


class PlantedCoalitions:
    """Plants ``(workers, index, shift)``: each of ``workers`` adds ``shift`` to
    coordinate 1 of its claim at global gradient ``index``.  Plants compose,
    so workers that take the same plants share one block sum.  A member of
    ``withhold`` answers every commit False, and a worker in ``lies`` adds its
    shift to every label it sends.  ``junk`` maps a query type to the answer
    every malicious worker sends to each query of that type in place of its
    claim; ``RAISE`` makes the responder raise.  Every worker named anywhere
    is malicious; one that plants nothing sits in the honest subset."""

    def __init__(self, plants, withhold=(), lies=None, junk=None):
        self.plants = [(tuple(workers), index, shift) for workers, index, shift in plants]
        self.withhold = frozenset(withhold)
        self.lies = dict(lies or {})
        self.junk = dict(junk or {})

    def __repr__(self):  # what a falsifying example shows
        return (
            f"PlantedCoalitions({self.plants!r}, withhold={sorted(self.withhold)!r}, "
            f"lies={self.lies!r}, junk={self.junk!r})"
        )

    def instantiate(self, params, truth, rng):
        table = ClaimedGradientTable(params, truth)
        for workers, index, shift in self.plants:
            for j in workers:
                claim = table.value(j, index).astype(np.int64)
                claim[0] += shift
                table.set(j, index, claim)
        malicious = {j for workers, _, _ in self.plants for j in workers}
        malicious |= self.withhold | set(self.lies)

        def answer(worker, query):
            if type(query) in self.junk:
                if self.junk[type(query)] is RAISE:
                    raise RuntimeError(f"worker {worker} will not answer")
                return self.junk[type(query)]
            if isinstance(query, CommitQuery) and worker in self.withhold:
                return False
            value = table.answer(worker, query)
            if isinstance(query, LabelQuery):
                return (value + self.lies.get(worker, 0)) % params.q
            return value

        return Responder(malicious, answer)


def deepest_leaf_coalitions(params: SchemeParams, sizes) -> PlantedCoalitions:
    """The first ``sizes[g-1]`` workers of group g plant one wrong value on the
    group's first leaf (the deepest, as the left child takes the ceiling half)
    and withhold every commit.  ``sizes=[s]`` reaches T_upper and B(s); the
    balanced split over the worst group count reaches kappa_upper."""
    plants = [
        (params.workers_of_group(g)[:size], params.block_of_group(g).start, 1)
        for g, size in enumerate(sizes, start=1)
    ]
    return PlantedCoalitions(plants, withhold=[j for workers, _, _ in plants for j in workers])


def balanced_sizes(s: int, groups: int) -> list:
    """s split over ``groups`` as evenly as possible, larger shares first."""
    a, r = divmod(s, groups)
    return [a + 1] * r + [a] * (groups - r)


# (s, u, m, block, q) for the search.  At the first five, coalitions split
# over groups can cost more kappa than all s in one group; the rest cover
# u = 1 and u = 3, one group, blocks that are not powers of two and q = 2**16.
SEARCH_POINTS = [
    (8, 2, 2, 2, 2), (9, 2, 3, 4, 2), (11, 2, 3, 8, 2), (12, 2, 3, 2, 5), (10, 2, 2, 4, 3),
    (9, 3, 3, 2, 2), (7, 3, 2, 5, 5), (6, 1, 3, 8, 2**16), (4, 2, 1, 3, 3),
]


@st.composite
def spread_coalitions(draw):
    """(params, truth, adversary) at a search point: at most s malicious
    workers over the groups.  Cut points in [0, s] give each group its share,
    and what is left over goes to liars hidden in the honest subsets.  A
    group's share is cut into up to three coalitions, each with a planted
    leaf; a coalition's members may split their claims at that leaf while
    sharing one block sum, and may withhold their commits."""
    s, u, m, block, q = draw(st.sampled_from(SEARCH_POINTS), label="point")
    params = SchemeParams(s=s, u=u, m=m, p=m * block, d=draw(st.integers(1, 2)), q=q)
    truth = random_gradients(params, draw(st.integers(0, 2**16), label="truth seed"))
    ends = sorted(draw(st.lists(st.integers(0, s), min_size=m, max_size=m), label="group shares"))
    if draw(st.booleans(), label="no liars"):  # coalitions take the whole budget, where kappa peaks
        ends[-1] = s
    liars = s - ends[-1]
    plants, withhold, lies = [], set(), {}
    for g, (start, end) in enumerate(zip([0, *ends], ends), start=1):
        workers, leaves, size = list(params.workers_of_group(g)), params.block_of_group(g), end - start
        turn = draw(st.integers(0, len(workers) - 1), label="first coalition member")
        workers = workers[turn:] + workers[:turn]  # so the honest subset's representative varies
        cuts = []
        if size > 1 and draw(st.booleans(), label="several coalitions"):
            cuts = draw(st.lists(st.integers(1, size - 1), min_size=1, max_size=2, unique=True))
        bounds = [0, *sorted(cuts), size] if size else [0]
        for members in (workers[a:b] for a, b in zip(bounds, bounds[1:])):
            leaf = draw(st.sampled_from(leaves), label="planted leaf")
            plants.append((members, leaf, draw(st.integers(1, q - 1))))
            if draw(st.booleans(), label="split leaf claims"):
                spare = draw(st.sampled_from([i for i in leaves if i != leaf]))
                for j in members:
                    x = draw(st.integers(1, q - 1))
                    plants += [((j,), leaf, x), ((j,), spare, -x)]
            if draw(st.booleans(), label="all withhold"):
                withhold.update(members)
            else:
                withhold.update(draw(st.sets(st.sampled_from(members))))
        hidden = draw(st.integers(0, liars), label="liars")
        liars -= hidden
        for j in workers[size : size + hidden]:
            lies[j] = draw(st.integers(0, q - 1))
            if draw(st.booleans()):
                withhold.add(j)
    return params, truth, PlantedCoalitions(plants, withhold, lies)


@st.composite
def scheme_params(draw):
    """Configurations for the fuzz: half the time s <= 6, u <= s + 1, m <= 3,
    blocks of 2, 3, 4, 8 or 17 and q in {2, 5, 2**16}, the rest a search
    point, where coalitions split over groups can cost the most kappa; d <= 4."""
    if draw(st.booleans(), label="search point"):
        s, u, m, block, q = draw(st.sampled_from(SEARCH_POINTS))
    else:
        s = draw(st.integers(1, 6), label="s")
        u, m = draw(st.integers(1, s + 1), label="u"), draw(st.integers(1, 3), label="m")
        block, q = draw(st.sampled_from([2, 3, 4, 8, 17])), draw(st.sampled_from([2, 5, 2**16]))
    return SchemeParams(s=s, u=u, m=m, p=m * block, d=draw(st.integers(1, 4), label="d"), q=q)


def malformed_answers(params, query, honest):
    """Every kind of answer a malicious worker might send to ``query``: the
    honest one, other valid ones, malformed ones, and ``RAISE``."""
    q, d = params.q, params.d
    junk = st.sampled_from([None, "7", "", 2.5, float("nan"), [], object()])
    raising = st.just(RAISE)
    if isinstance(query, InitialQuery):
        valid = st.lists(st.integers(0, q - 1), min_size=d, max_size=d)
        return st.one_of(
            st.just(honest),  # the honest block sum, so liars can join the honest subset
            valid.map(lambda v: np.array(v, dtype=np.int64)),
            valid,  # a plain list of ints is a valid vector too
            valid.map(lambda v: np.array(v, dtype=np.float64)),  # wrong dtype
            valid.map(lambda v: np.array([v], dtype=np.int64)),  # wrong shape
            st.integers(0, d + 2).filter(lambda k: k != d).map(lambda k: np.zeros(k, dtype=np.int64)),
            st.sampled_from([-1, q, 2**63, 2**64]).map(lambda x: [x] * d),  # out of the alphabet
            valid.map(lambda v: [bool(x % 2) for x in v]),  # bools where symbols belong
            junk,
            raising,
        )
    if isinstance(query, LabelQuery):
        valid = st.integers(0, q - 1)
        return st.one_of(
            st.just(honest),
            valid,
            valid.map(np.int64),
            valid.map(np.uint64),
            st.integers(min_value=q, max_value=2**70),  # out of the alphabet
            st.integers(max_value=-1),
            st.booleans(),  # a bool is not a label
            st.booleans().map(np.bool_),
            valid.map(lambda x: np.array([x])),  # wrong shape
            st.floats(),
            junk,
            raising,
        )
    return st.one_of(
        st.booleans(),
        st.booleans().map(np.bool_),
        st.integers(0, 1),  # an int is not a commit bit
        st.just(np.array([True])),
        junk,
        raising,
    )


def deviation_table(params: SchemeParams, truth, rng) -> TableAdversary:
    """Up to s workers drawn from all n, each claiming uniform noise on a
    random subset of the entries of its block: several subsets may dispute
    one index, mimics join the honest subset, and liars sit in any group."""
    count = int(rng.integers(0, params.s + 1))
    malicious = frozenset(int(j) + 1 for j in rng.choice(params.n, size=count, replace=False))
    table = ClaimedGradientTable(params, truth)
    for j in malicious:
        block = params.block_of_group(params.group_of_worker(j))
        mask = rng.integers(0, 2, size=(len(block), params.d)).astype(bool)
        noise = rng.integers(0, params.q, size=(len(block), params.d))
        rows = np.where(mask, noise, truth[block.start - 1 : block.stop - 1])
        for index, row in zip(block, rows):
            table.set(j, index, row)
    return TableAdversary(table, malicious)


def tape_options(params: SchemeParams, query) -> list:
    """What a choice tape may answer to ``query``: every well-formed answer,
    then one malformed one.  Every malformed answer of a kind leaves the
    engine's validation the same way, so None stands for all of them."""
    if isinstance(query, InitialQuery):
        return [np.array(v, dtype=np.int64) for v in itertools.product(range(params.q), repeat=params.d)] + [None]
    if isinstance(query, LabelQuery):
        return [*range(params.q), None]
    return [False, True, None]


class ChoiceTape:
    """``malicious`` answer the i-th query any of them is asked with option
    ``prefix[i]`` of ``tape_options``, and option 0 past the prefix.  The
    engine is deterministic, so the run is a function of the tape, and
    ``taken`` records each query's (choice, option count) for the walk."""

    def __init__(self, malicious, prefix=()):
        self.malicious = frozenset(malicious)
        self.prefix = list(prefix)
        self.taken = []

    def instantiate(self, params, truth, rng):
        def answer(worker, query):
            at, options = len(self.taken), tape_options(params, query)
            choice = self.prefix[at] if at < len(self.prefix) else 0
            self.taken.append((choice, len(options)))
            return options[choice]

        return Responder(self.malicious, answer)


def every_tape(params: SchemeParams, truth, malicious):
    """(tape, Trial) for every adaptive strategy of ``malicious`` against
    ``truth``: the choice tapes walked depth-first, the last choice with an
    option left moving on by one at each step."""
    prefix = []
    while True:
        tape = ChoiceTape(malicious, prefix)
        yield tape, run_trial(params, truth, tape)
        taken = tape.taken
        while taken and taken[-1][0] + 1 == taken[-1][1]:
            taken.pop()
        if not taken:
            return
        prefix = [choice for choice, _ in taken]
        prefix[-1] += 1


def every_run(params: SchemeParams, truth):
    """(malicious set, Trial) for every choice tape of every size-s
    malicious set against ``truth``.  Every run must pass ``verify_run`` and
    ``check_compliance``; the first that does not raises AssertionError with
    its truth, malicious set and tape."""
    for malicious in itertools.combinations(range(1, params.n + 1), params.s):
        for tape, trial in every_tape(params, truth, malicious):
            if trial.breaches or trial.violations:
                raise AssertionError(
                    f"{trial.breaches + trial.violations} on truth {truth.tolist()}, "
                    f"malicious {list(malicious)}, tape {[choice for choice, _ in tape.taken]}"
                )
            yield malicious, trial


def worst_runs(params: SchemeParams):
    """(runs, worst T, c, kappa_symbols, kappa_bits) over ``every_run``
    against the truth drawn from seed 0, each maximum taken on its own.

    One truth stands for every truth.  Shift the truth by any delta and each
    malicious answer by delta's sum over the same range and coordinate:
    honest answers shift alike, so every equality the engine tests, and
    every run, is unchanged (``test_every_truth_walks_the_same_runs``)."""
    runs, worst = 0, (0, 0, 0, 0)
    for _, trial in every_run(params, random_gradients(params, 0)):
        runs += 1
        t = trial.transcript
        worst = tuple(map(max, worst, (trial.metrics.T, trial.metrics.c, t.kappa_symbols, t.kappa_bits)))
    return (runs, *worst)
