"""Finite-alphabet gradient arithmetic and the block-replicated data assignment.

Partial gradients are length-d vectors over the integers modulo q with every
coordinate in [0, q).  The ground truth is drawn and held as a (p, d) numpy
uint32 array; claimed values and every sum are int64.  The full gradient is
their coordinate-wise sum modulo q.  Workers are partitioned into m groups of
s+u members each; all workers in a group are assigned the same block of p/m
consecutive gradient indices.  Worker ids and gradient indices are 1-based
throughout.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# Every residue is below q <= 2**32, so the truth fits in uint32.  Block sums,
# the chunk prefix sums of a block and label slice sums are taken in int64
# before reducing mod q and reach block_size * (q - 1); SchemeParams rejects
# configurations where that is 2**63 or more, whatever the alphabet.
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


def wide_rows(d: int) -> int:
    """Rows of width d summed as one wide row of about 1024 elements."""
    return max(1, 1024 // max(d, 1))


def chunk_sums(rows: np.ndarray, chunk: int) -> np.ndarray:
    """Exact int64 column sums of each whole chunk of ``chunk`` rows of a (k, d) array.

    Returns shape (k // chunk, d); leftover rows are ignored.  ``chunk``
    must be a multiple of w = wide_rows(d).  numpy reduces a narrow array
    along axis 0 one short row at a time, so each chunk is summed as
    chunk // w rows of w*d elements and the w partial rows are then folded
    by ``einsum``.  Integer addition wraps the same way in any order, so
    every output bit matches the plain sum.  Chunks are summed in slabs of
    about 2**18 elements, which keeps the temporary small.
    """
    k, d = rows.shape
    w = wide_rows(d)
    n = k // chunk
    out = np.empty((n, d), dtype=np.int64)
    step = max(1, 2**18 // (chunk * d))  # chunks per slab
    for i in range(0, n, step):
        slab = rows[i * chunk : min(i + step, n) * chunk]
        part = slab.reshape(-1, chunk // w, w * d).sum(axis=1, dtype=np.int64)
        np.einsum("ijk->ik", part.reshape(-1, w, d), out=out[i : i + step])
    return out


def column_sums(rows: np.ndarray) -> np.ndarray:
    """Exact int64 column sums of a (k, d) integer array, as ``rows.sum(axis=0, dtype=np.int64)``.

    The largest prefix of whole groups of w = wide_rows(d) rows is summed as
    one chunk by ``chunk_sums`` and the leftover rows are added.  Short
    blocks, zero-width rows and non-contiguous arrays, which the wide view
    would not speed up, could not reshape or would copy, take the plain sum.
    """
    k, d = rows.shape
    w = wide_rows(d)
    if d == 0 or k < 2 * w or not rows.flags.c_contiguous:
        return rows.sum(axis=0, dtype=np.int64)
    head = k - k % w
    return chunk_sums(rows[:head], head)[0] + rows[head:].sum(axis=0, dtype=np.int64)


def full_gradient(gradients, q: int) -> np.ndarray:
    """Coordinate-wise sum modulo q of a stack of equal-length integer gradient vectors, as int64."""
    try:
        arr = np.asarray(gradients)
    except ValueError as exc:
        raise ValueError("gradient dimensions do not match") from exc
    if arr.ndim != 2:
        raise ValueError(f"expected a (p, d) stack of vectors, got shape {arr.shape}")
    return column_sums(arr) % q


def random_gradients(params: SchemeParams, seed) -> np.ndarray:
    """Uniform uint32 ground-truth gradients of shape (p, d); deterministic in (params, seed).

    The values and the generator's later draws are those of
    ``rng.integers(0, q, (p, d), dtype=np.int64)``.  For a PCG64 generator,
    a power-of-two q and no buffered half word, they are read from one raw
    pass: numpy's bounded draw takes one 32-bit half word per value, low half
    first, and its multiply-shift bound keeps the top log2(q) bits without
    ever rejecting at a power-of-two range.  An odd count leaves the last
    high half buffered in the bit generator, as numpy does.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    q, shape = params.q, (params.p, params.d)
    bits = rng.bit_generator
    if (
        q & (q - 1)
        or type(bits) is not np.random.PCG64
        or sys.byteorder != "little"
        or bits.state["has_uint32"]
    ):
        return rng.integers(0, q, size=shape, dtype=np.uint32)
    n = params.p * params.d
    raw = bits.random_raw((n + 1) // 2)
    out = raw.view(np.uint32)[:n].reshape(shape)
    if n % 2:
        state = bits.state
        state["has_uint32"], state["uinteger"] = 1, int(raw[-1] >> np.uint64(32))
        bits.state = state
    if q < 2**32:
        out >>= 33 - q.bit_length()  # 32 - log2(q)
    return out
