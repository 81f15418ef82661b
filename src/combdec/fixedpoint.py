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


@dataclass(frozen=True)
class FixedSequence:
    """A sequence of signed integers together with its register width.

    Every sample must satisfy -2**(width-1) <= s < 2**(width-1).
    """

    samples: tuple
    width: int

    def __post_init__(self):
        object.__setattr__(self, "samples", tuple(int(s) for s in self.samples))
        if self.width < 1:
            raise ValueError(f"width must be >= 1, got {self.width}")
        half = 1 << (self.width - 1)
        for i, s in enumerate(self.samples):
            if not -half <= s < half:
                raise ValueError(
                    f"sample {i} = {s} does not fit in {self.width} signed bits"
                )

    def __len__(self):
        return len(self.samples)

    def __iter__(self):
        return iter(self.samples)

    def __getitem__(self, i):
        return self.samples[i]

    @classmethod
    def zeros(cls, n: int, width: int) -> "FixedSequence":
        return cls((0,) * n, width)

    @classmethod
    def impulse(cls, n: int, width: int, amplitude: int = 1) -> "FixedSequence":
        if n < 1:
            raise ValueError("impulse needs at least one sample")
        return cls((amplitude,) + (0,) * (n - 1), width)
