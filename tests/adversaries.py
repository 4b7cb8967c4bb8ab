"""Table-backed adversaries that drive a run to its T and kappa bounds.

``PlantedCoalitions`` is the one shape: malicious workers plant wrong values
in a claimed table, may withhold their commit bits and may lie on labels.
The bound witnesses and the search for coalitions spread over groups are all
built from it.
"""

import numpy as np
from hypothesis import strategies as st

from bgcsim.adversary import ClaimedGradientTable, CommitQuery, LabelQuery, Responder
from bgcsim.core import SchemeParams, random_gradients


class PlantedCoalitions:
    """Plants ``(workers, index, shift)``: each of ``workers`` adds ``shift`` to
    coordinate 1 of its claim at global gradient ``index``.  Plants compose,
    so workers that take the same plants share one block sum.  A member of
    ``withhold`` answers every commit False, and a worker in ``lies`` adds its
    shift to every label it sends.  Every worker named anywhere is malicious;
    one that plants nothing sits in the honest subset."""

    def __init__(self, plants, withhold=(), lies=None):
        self.plants = [(tuple(workers), index, shift) for workers, index, shift in plants]
        self.withhold = frozenset(withhold)
        self.lies = dict(lies or {})

    def __repr__(self):  # what a falsifying example shows
        return f"PlantedCoalitions({self.plants!r}, withhold={sorted(self.withhold)!r}, lies={self.lies!r})"

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
