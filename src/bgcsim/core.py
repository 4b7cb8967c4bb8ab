"""Finite-alphabet gradient arithmetic and the block-replicated data assignment.

Partial gradients are length-d vectors over the integers modulo q with every
coordinate in [0, q).  The ground truth is a (p, d) array, uint16 when
q <= 2**16 and uint32 otherwise, as ``as_truth`` checks; claimed values and
sums are int64, and a sum of the truth accumulates in ``sum_dtype``: the
truth's own dtype at a power-of-two q, whose wrap is exact mod q, else uint32
wherever that is exact.  The full gradient is their coordinate-wise sum
modulo q.  ``block_sums`` is the one walk that sums rows of the truth, for
the full gradient and for every block's chunk table (``ClaimedGradientTable``).
Workers are partitioned into m groups of s+u members each, so
their number n = m(s+u) is derived, never set; all workers in a group are
assigned the same block of p/m consecutive gradient indices.  Worker ids and
gradient indices are 1-based throughout.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

# Every residue is below q <= 2**32, so the truth fits in uint32, and in
# uint16 when q <= 2**16.  At a power-of-two q its sums wrap exactly mod q in
# its own dtype; otherwise k residues sum to at most k * (q - 1), exact in
# uint32 below 2**32 (``sum_dtype``).  Block, chunk prefix and label sums are
# int64, exact mod q, and reach block_size * (q - 1) unless q is a power of
# two; SchemeParams rejects configurations where that is 2**63 or more.
MAX_ALPHABET = 2**32
COLUMN_CHUNK = 256  # wide rows per full_gradient chunk: exact uint32 up to q = 2**24
RAW_SLAB = 2**15  # 64-bit words per raw read of the truth (2**17 ran as fast, 2**13 slower)


@dataclass(frozen=True)
class SchemeParams:
    """One system configuration (s, u, m, p, d, q); the worker count n = m * (s + u) is derived."""

    s: int
    u: int
    m: int
    p: int
    d: int
    q: int
    n: int = field(init=False)  # attributes, not properties: every claimed answer reads them
    group_size: int = field(init=False, repr=False, compare=False)  # s + u = n / m
    block_size: int = field(init=False, repr=False, compare=False)  # p / m

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"m must be >= 1: got m={self.m}")
        object.__setattr__(self, "n", self.m * (self.s + self.u))
        object.__setattr__(self, "group_size", self.s + self.u)
        object.__setattr__(self, "block_size", self.p // self.m)
        if self.u < 1:
            raise ValueError(f"u must be >= 1: got u={self.u}")
        if self.s < 0:
            raise ValueError(f"s must be >= 0: got s={self.s}")
        if self.d < 1:
            raise ValueError(f"d must be >= 1: got d={self.d}")
        if not 2 <= self.q <= MAX_ALPHABET:
            raise ValueError(f"q must be in [2, 2**32]: got q={self.q}")
        if self.p % self.m != 0:
            raise ValueError(f"m must divide p: got p={self.p}, m={self.m}")
        if self.p // self.m < 2:
            raise ValueError(f"p/m must be >= 2: got p/m={self.p // self.m}")
        if self.block_size * (self.q - 1) >= 2**63:
            raise ValueError(
                f"p/m * (q-1) must be below 2**63 for int64 sums: got p/m={self.block_size}, q={self.q}"
            )

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
    return max(1, 1024 // d)


def sum_dtype(dtype, k: int, q: int):
    """The scalar type in which k values in [0, q) of a truth's uint16 or uint32 ``dtype`` sum exactly mod q.

    They sum in their own dtype when q is a power of two that fits it (the
    sum wraps mod 2**16 or 2**32, which q divides), else in uint32 when
    k * (q - 1) < 2**32 (exactly), else in int64.  numpy's sums wrap
    silently, so these bounds are the only guard.
    """
    if not q & (q - 1) and q <= 2 ** (8 * np.dtype(dtype).itemsize):
        return np.dtype(dtype).type
    return np.uint32 if k * (q - 1) < 2**32 else np.int64


def block_sums(rows: np.ndarray, chunk: int, q: int):
    """(prefix, total): int64 column sums of a (k, d) row slice of a truth (``as_truth``), so C-contiguous.

    ``prefix`` is the cumulative sums at every boundary of a whole chunk of
    ``chunk`` rows (a multiple of w = wide_rows(d)), shape (k // chunk + 1, d),
    or None when k < chunk; ``total`` sums all k rows.  Both are exact mod q,
    and exact outright unless q is a power of two.  numpy reduces a narrow
    array along axis 0 one short row at a time, so each whole chunk is summed
    as chunk // w rows of w*d elements in ``acc = sum_dtype(rows.dtype,
    chunk // w, q)``.  A uint16 ``acc`` comes only from the wrap branch, so
    its w partial rows fold in place by halving at that width; any other
    ``acc`` folds by ``einsum`` into int64, so every chunk sum matches the
    plain int64 sum.  The rows after the last whole chunk take the plain
    int64 sum.
    """
    k, d = rows.shape
    w = wide_rows(d)
    n = k // chunk
    total = np.add.reduce(rows[n * chunk :], axis=0, dtype=np.int64)
    if not n:
        return None, total
    acc = sum_dtype(rows.dtype, chunk // w, q)
    part = np.add.reduce(rows[: n * chunk].reshape(n, chunk // w, w * d), axis=1, dtype=acc).reshape(n, w, d)
    if acc is np.uint16:
        while w > 1:  # fold the top half of the w partial rows onto the bottom half
            w, h = (w + 1) // 2, w // 2
            part[:, :h] += part[:, w : w + h]
        sums = part[:, 0]
    else:
        sums = np.einsum("ijk->ik", part, dtype=np.int64)
    prefix = np.zeros((n + 1, d), dtype=np.int64)
    np.cumsum(sums, axis=0, dtype=np.int64, out=prefix[1:])
    total += prefix[-1]
    return prefix, total


def as_truth(truth, q: int) -> np.ndarray:
    """``truth`` as a 2-D C-contiguous array of residues in [0, q): uint16 if q <= 2**16, else uint32.

    Such an array comes back as it is and another integer array of width
    d >= 1 is copied into that form; anything else, or a value outside
    [0, q), raises ValueError.  The scan for values of q or more runs
    wherever the dtype can hold one.
    """
    arr = np.asarray(truth)
    if arr.ndim != 2 or not arr.shape[1] or arr.dtype.kind not in "iu":
        raise ValueError(f"truth must be a 2-D integer array, d >= 1: got {arr.dtype} of shape {arr.shape}")
    signed = arr.dtype.kind == "i"
    if arr.size and (signed and arr.min() < 0 or (1 << 8 * arr.itemsize - signed) > q and arr.max() >= q):
        raise ValueError(f"truth values must be in [0, {q})")
    return np.ascontiguousarray(arr, dtype=np.uint16 if q <= 2**16 else np.uint32)


def full_gradient(gradients, q: int) -> np.ndarray:
    """Coordinate-wise sum modulo q of a (p, d) truth (see ``as_truth``), as int64."""
    truth = as_truth(gradients, q)
    return block_sums(truth, COLUMN_CHUNK * wide_rows(truth.shape[1]), q)[1] % q


def random_gradients(params: SchemeParams, seed) -> np.ndarray:
    """Uniform ground-truth gradients of shape (p, d); deterministic in (params, seed).

    The array is uint16 when q <= 2**16 and uint32 otherwise.  The values and
    the generator's later draws are those of
    ``rng.integers(0, q, (p, d), dtype=np.int64)``.  For a PCG64 generator,
    a power-of-two q and no buffered half word, they are read from the raw
    stream: numpy's bounded draw takes one 32-bit half word per value, low
    half first, and its multiply-shift bound keeps the top log2(q) bits
    without ever rejecting at a power-of-two range.  Each slab of RAW_SLAB
    words has its half words shifted right by 32 - log2(q) straight into the
    truth, which is written once, with no 32-bit copy of a 16-bit truth.  An
    odd count leaves the last high half buffered, as numpy does.
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
        out = rng.integers(0, q, size=shape, dtype=np.uint32)
        return out.astype(np.uint16) if q <= 2**16 else out
    n = params.p * params.d
    out = np.empty(shape, dtype=np.uint16 if q <= 2**16 else np.uint32)
    flat, shift = out.reshape(-1), 33 - q.bit_length()  # 32 - log2(q)
    for i in range(0, n, 2 * RAW_SLAB):
        raw = bits.random_raw(min(RAW_SLAB, (n - i + 1) // 2))
        np.right_shift(raw.view(np.uint32)[: n - i], shift, out=flat[i : i + 2 * RAW_SLAB], casting="unsafe")
    if n % 2:
        state = bits.state
        state["has_uint32"], state["uinteger"] = 1, int(raw[-1] >> np.uint64(32))
        bits.state = state
    return out
