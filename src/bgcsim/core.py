"""Finite-alphabet gradient arithmetic and the block-replicated data assignment.

Partial gradients are length-d vectors over the integers modulo q, stored as
numpy int64 arrays with every coordinate in [0, q).  The full gradient is
their coordinate-wise sum modulo q.  Workers are partitioned into m groups of
s+u members each; all workers in a group are assigned the same block of p/m
consecutive gradient indices.  Worker ids and gradient indices are 1-based
throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# Block sums and label slice sums are taken in int64 before reducing mod q and
# reach block_size * (q - 1); SchemeParams rejects configurations where that
# is 2**63 or more, whatever the alphabet.
MAX_ALPHABET = 2**32


@dataclass(frozen=True)
class SchemeParams:
    """One system configuration (n, s, u, m, p, d, q).

    n defaults to m * (s + u) when omitted; an explicit n must match.
    """

    s: int
    u: int
    m: int
    p: int
    d: int
    q: int = 65536
    n: int = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.n is None:
            object.__setattr__(self, "n", self.m * (self.s + self.u))
        if self.m < 1:
            raise ValueError(f"m must be >= 1: got m={self.m}")
        if self.u < 1:
            raise ValueError(f"u must be >= 1: got u={self.u}")
        if self.s < 0:
            raise ValueError(f"s must be >= 0: got s={self.s}")
        if self.d < 1:
            raise ValueError(f"d must be >= 1: got d={self.d}")
        if not 2 <= self.q <= MAX_ALPHABET:
            raise ValueError(f"q must be in [2, 2**32]: got q={self.q}")
        if self.n != self.m * (self.s + self.u):
            raise ValueError(
                f"n must equal m*(s+u): got n={self.n}, m*(s+u)={self.m * (self.s + self.u)}"
            )
        if self.p % self.m != 0:
            raise ValueError(f"m must divide p: got p={self.p}, m={self.m}")
        if self.p // self.m < 2:
            raise ValueError(f"p/m must be >= 2: got p/m={self.p // self.m}")
        if self.block_size * (self.q - 1) >= 2**63:
            raise ValueError(
                f"p/m * (q-1) must be below 2**63 for int64 sums: got p/m={self.block_size}, q={self.q}"
            )

    @property
    def group_size(self) -> int:
        return self.n // self.m

    @property
    def block_size(self) -> int:
        return self.p // self.m

    def group_of_worker(self, j: int) -> int:
        if not 1 <= j <= self.n:
            raise ValueError(f"worker id out of range: {j}")
        return (j - 1) // self.group_size + 1

    def workers_of_group(self, g: int) -> range:
        if not 1 <= g <= self.m:
            raise ValueError(f"group id out of range: {g}")
        return range((g - 1) * self.group_size + 1, g * self.group_size + 1)

    def block_of_group(self, g: int) -> range:
        """Global gradient indices assigned to group g (1-based, inclusive start)."""
        if not 1 <= g <= self.m:
            raise ValueError(f"group id out of range: {g}")
        return range((g - 1) * self.block_size + 1, g * self.block_size + 1)


def build_fractional_repetition(params: SchemeParams) -> np.ndarray:
    """Block-diagonal 0/1 assignment matrix of shape (p, n).

    Row i, column j is 1 exactly when gradient i and worker j fall in the
    same group, so every worker in a group computes the same p/m gradients.
    """
    a = np.zeros((params.p, params.n), dtype=np.int8)
    for g in range(1, params.m + 1):
        rows = params.block_of_group(g)
        cols = params.workers_of_group(g)
        a[rows.start - 1 : rows.stop - 1, cols.start - 1 : cols.stop - 1] = 1
    return a


def replication_factor(assignment: np.ndarray) -> Fraction:
    """Average number of workers each gradient is assigned to, as an exact rational."""
    a = np.asarray(assignment)
    if a.ndim != 2:
        raise ValueError("assignment must be a 2-D 0/1 matrix")
    return Fraction(int(a.sum()), a.shape[0])


def full_gradient(gradients, q: int) -> np.ndarray:
    """Coordinate-wise sum modulo q of a stack of equal-length gradient vectors."""
    try:
        arr = np.asarray(gradients, dtype=np.int64)
    except ValueError as exc:
        raise ValueError("gradient dimensions do not match") from exc
    if arr.ndim != 2:
        raise ValueError(f"expected a (p, d) stack of vectors, got shape {arr.shape}")
    return arr.sum(axis=0) % q


def random_gradients(params: SchemeParams, seed) -> np.ndarray:
    """Uniform ground-truth gradients of shape (p, d); deterministic in (params, seed)."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return rng.integers(0, params.q, size=(params.p, params.d), dtype=np.int64)
