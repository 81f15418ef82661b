"""Two's-complement helpers shared by every fixed-point datapath."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def wrap(value: int, width: int) -> int:
    """Reduce an integer modulo 2**width and reinterpret as signed.

    This is the wraparound (never saturating) behaviour of a hardware
    register: drop bits above `width`, sign bit is bit width-1.
    """
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    m = value & ((1 << width) - 1)
    if m & (1 << (width - 1)):
        m -= 1 << width
    return m


def array_dtype(bits: int):
    """Array type for operands of up to `bits` bits: int64 or Python ints.

    At 62 bits or fewer, masks, sign bits and the difference of two
    operands all fit in int64, and a cumulative sum that wraps modulo
    2**64 keeps every residue modulo 2**bits.  Wider operands go in
    object arrays, where the same expressions act on Python ints.
    """
    return np.int64 if bits <= 62 else object


def wrap_array(values, width: int):
    """wrap() applied element-wise to an array of array_dtype(width)."""
    m = values & ((1 << width) - 1)
    return m - ((m >> (width - 1)) << width)


def fits(value: int, width: int) -> bool:
    half = 1 << (width - 1)
    return -half <= value < half


def to_unsigned(value: int, width: int) -> int:
    """Two's-complement bit pattern of a signed value, as a non-negative int."""
    return value & ((1 << width) - 1)


def _exact_ints(samples):
    """Object array of the samples as Python ints; a fraction is an error."""
    out = []
    for i, s in enumerate(samples):
        v = int(s)
        if v != s:
            raise ValueError(f"sample {i} = {s!r} is not an integer")
        out.append(v)
    return np.array(out, dtype=object)


@dataclass(frozen=True, init=False, eq=False, repr=False)
class FixedSequence:
    """A sequence of signed integers together with its register width.

    Every sample must satisfy -2**(width-1) <= s < 2**(width-1).  The
    constructor takes any sequence of integers, checks it once and keeps
    it as `array`: a read-only array of array_dtype(width), int64 up to
    62 bits and Python ints above.  Stages whose outputs are in range by
    construction build theirs with `_trusted`, which checks nothing.
    `samples` is the same values as a tuple of Python ints, rebuilt on
    every access.
    """

    array: np.ndarray
    width: int

    def __init__(self, samples, width: int):
        object.__setattr__(self, "array", samples)
        object.__setattr__(self, "width", width)
        # the one check every validated sequence passes (bench/tracing.py times it)
        self.__post_init__()

    def __post_init__(self):
        if self.width < 1:
            raise ValueError(f"width must be >= 1, got {self.width}")
        given = self.array
        a = np.asarray(given)
        if a.dtype.kind != "i" or a.ndim != 1:
            a = _exact_ints(a.tolist() if isinstance(given, np.ndarray) else given)
        dtype = array_dtype(self.width)
        if dtype is object:
            a = a.astype(object)
        half = 1 << (self.width - 1)
        if a.size and (a.min() < -half or a.max() >= half):
            i = int(np.flatnonzero((a < -half) | (a >= half))[0])
            raise ValueError(
                f"sample {i} = {a[i]} does not fit in {self.width} signed bits"
            )
        # never keep a view of the caller's buffer
        a = a.astype(dtype, copy=isinstance(given, np.ndarray))
        a.flags.writeable = False
        object.__setattr__(self, "array", a)

    @classmethod
    def _trusted(cls, values, width: int) -> "FixedSequence":
        """Wrap an array whose values fit in `width` bits, unchecked."""
        seq = object.__new__(cls)
        a = np.asarray(values, dtype=array_dtype(width))
        a.flags.writeable = False
        object.__setattr__(seq, "array", a)
        object.__setattr__(seq, "width", width)
        return seq

    @property
    def samples(self) -> tuple:
        return tuple(self.array.tolist())

    def __len__(self):
        return len(self.array)

    def __iter__(self):
        return iter(self.array.tolist())

    def __getitem__(self, i):
        item = self.array[i]
        return tuple(item.tolist()) if isinstance(i, slice) else int(item)

    def __eq__(self, other):
        if not isinstance(other, FixedSequence):
            return NotImplemented
        return self.width == other.width and np.array_equal(self.array, other.array)

    def __hash__(self):
        return hash((self.samples, self.width))

    def __repr__(self):
        return f"FixedSequence(samples={self.samples!r}, width={self.width})"

    @classmethod
    def zeros(cls, n: int, width: int) -> "FixedSequence":
        return cls((0,) * n, width)

    @classmethod
    def impulse(cls, n: int, width: int, amplitude: int = 1) -> "FixedSequence":
        if n < 1:
            raise ValueError("impulse needs at least one sample")
        return cls((amplitude,) + (0,) * (n - 1), width)
