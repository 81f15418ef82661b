"""Carry look-ahead adder built from 4-bit look-ahead groups.

Within a group the carries come from the expanded sum-of-products
look-ahead equations; between groups the carry ripples.  That keeps the
longest gate path at 4 (generate/propagate + first group) plus 2 gates
per extra group plus 3 through the final sum XOR, against 2 gates per
bit plus 1 for a plain ripple chain.

Mcla.add evaluates the boolean equations bit by bit and is the normative
model; mcla_add_many evaluates the same equations across numpy arrays.

The filters take their arithmetic from an adder strategy (see
adder_strategy): native wraparound adds, or every add through the
gate-level model.  Both produce identical bits.  In the gate-level
strategy, combs and two-tap sections add independent lanes, one
mcla_add_many call per block.  An integrator is a chain, each sum the
next step's operand, so GateAdder.accumulate first guesses the chain with
native running sums, then adds every step's operands (the previous guess
and the input) in one mcla_add_many call.  If every lane reproduces its
guess, the chain equals the guess by induction on the step.  From the
first lane that does not, the chain runs one Mcla.add per step, so a
faulty adder still gives the sequential chain's bits.
"""

from __future__ import annotations

import numpy as np

from .fixedpoint import wrap, wrap_array
from .params import ConfigError

GROUP_BITS = 4


def _check_width(width: int):
    if width < GROUP_BITS or width % GROUP_BITS != 0:
        raise ConfigError(
            f"width must be a positive multiple of {GROUP_BITS}, got {width}"
        )


def adder_width(bits: int) -> int:
    """Smallest valid adder width covering a datapath of `bits`."""
    if bits < 1:
        raise ConfigError(f"bits must be >= 1, got {bits}")
    return ((bits + GROUP_BITS - 1) // GROUP_BITS) * GROUP_BITS


class Mcla:
    """A width-bit adder modelled at gate level.

    Operands are unsigned bit patterns in [0, 2**width); two's-complement
    signed addition is the same bit function, so callers handle signs by
    masking in and re-interpreting out.
    """

    def __init__(self, width: int):
        _check_width(width)
        self.width = width
        self.groups = width // GROUP_BITS

    def add(self, a: int, b: int, carry_in: int = 0):
        """Return (sum, carry_out) from the look-ahead equations."""
        if not 0 <= a < (1 << self.width):
            raise ValueError(f"operand a out of range for {self.width} bits")
        if not 0 <= b < (1 << self.width):
            raise ValueError(f"operand b out of range for {self.width} bits")
        if carry_in not in (0, 1):
            raise ValueError("carry_in must be 0 or 1")
        g = a & b
        p = a ^ b
        total = 0
        c0 = carry_in
        for grp in range(self.groups):
            base = grp * GROUP_BITS
            g0 = (g >> base) & 1
            g1 = (g >> (base + 1)) & 1
            g2 = (g >> (base + 2)) & 1
            g3 = (g >> (base + 3)) & 1
            p0 = (p >> base) & 1
            p1 = (p >> (base + 1)) & 1
            p2 = (p >> (base + 2)) & 1
            p3 = (p >> (base + 3)) & 1
            c1 = g0 | (p0 & c0)
            c2 = g1 | (p1 & g0) | (p1 & p0 & c0)
            c3 = g2 | (p2 & g1) | (p2 & p1 & g0) | (p2 & p1 & p0 & c0)
            c4 = (
                g3
                | (p3 & g2)
                | (p3 & p2 & g1)
                | (p3 & p2 & p1 & g0)
                | (p3 & p2 & p1 & p0 & c0)
            )
            s = (p0 ^ c0) | ((p1 ^ c1) << 1) | ((p2 ^ c2) << 2) | ((p3 ^ c3) << 3)
            total |= s << base
            c0 = c4
        return total, c0


def mcla_add_many(a, b, carry_in, width: int):
    """Vectorized evaluation of the same group look-ahead equations.

    a, b, carry_in are integer arrays (broadcastable); returns
    (sum, carry_out), bit-identical to Mcla.add.  The arrays are int64
    when every input is and width <= 62, else object arrays of Python
    ints.
    """
    _check_width(width)
    a, b, cin = (np.asarray(v) for v in (a, b, carry_in))
    wide = width > 62 or object in (a.dtype, b.dtype, cin.dtype)
    a, b, cin = (v.astype(object if wide else np.int64, copy=False) for v in (a, b, cin))
    if np.any((a < 0) | (a >= (1 << width))) or np.any((b < 0) | (b >= (1 << width))):
        raise ValueError(f"operands out of range for {width} bits")
    if np.any((cin != 0) & (cin != 1)):
        raise ValueError("carry_in must be 0 or 1")
    g = a & b
    p = a ^ b
    total = np.zeros(np.broadcast(a, b, cin).shape, dtype=a.dtype)
    c0 = np.broadcast_to(cin, total.shape).copy()
    for grp in range(width // GROUP_BITS):
        base = grp * GROUP_BITS
        gb = [(g >> (base + i)) & 1 for i in range(GROUP_BITS)]
        pb = [(p >> (base + i)) & 1 for i in range(GROUP_BITS)]
        c1 = gb[0] | (pb[0] & c0)
        c2 = gb[1] | (pb[1] & gb[0]) | (pb[1] & pb[0] & c0)
        c3 = (
            gb[2]
            | (pb[2] & gb[1])
            | (pb[2] & pb[1] & gb[0])
            | (pb[2] & pb[1] & pb[0] & c0)
        )
        c4 = (
            gb[3]
            | (pb[3] & gb[2])
            | (pb[3] & pb[2] & gb[1])
            | (pb[3] & pb[2] & pb[1] & gb[0])
            | (pb[3] & pb[2] & pb[1] & pb[0] & c0)
        )
        s = (pb[0] ^ c0) | ((pb[1] ^ c1) << 1) | ((pb[2] ^ c2) << 2) | ((pb[3] ^ c3) << 3)
        total |= s << base
        c0 = c4
    return total, c0


def critical_path_gates(width: int, adder_kind: str = "mcla") -> int:
    """Longest gate path under a unit-delay model.

    ripple: 2 gates per bit through the carry chain plus the final sum.
    mcla:   4 to the first group carry-out, 2 per further group, 3 out.
    """
    if adder_kind == "ripple":
        if width < 1:
            raise ConfigError(f"ripple width must be >= 1, got {width}")
        return 2 * width + 1
    if adder_kind == "mcla":
        _check_width(width)
        return 4 + 2 * (width // GROUP_BITS - 1) + 3
    raise ConfigError(f"adder_kind must be 'ripple' or 'mcla', got {adder_kind!r}")


class WrapAdder:
    """Native integer adds, wrapped to the register width."""

    def operand_bits(self, width: int) -> int:
        return width

    def accumulate(self, acc, x, width: int):
        """The running sums acc + x[0], acc + x[0] + x[1], ..., wrapped.

        Wrapping once after the cumulative sum matches wrapping after
        every step, since addition modulo 2**width commutes with the wrap.
        """
        return wrap_array(np.cumsum(x) + acc, width)

    def add(self, a, b, width: int):
        return wrap_array(a + b, width)

    def sub(self, a, b, width: int):
        return wrap_array(a - b, width)


class GateAdder:
    """Every add through a Mcla of adder_width(register width) bits.

    Combs and two-tap sections add whole blocks of independent lanes
    through mcla_add_many.  An integrator feeds each sum back as its next
    operand, as in hardware; accumulate evaluates that chain in one batch
    and checks it, so a fault in the adder still propagates into every
    later sample.
    """

    def operand_bits(self, width: int) -> int:
        return adder_width(width)

    def accumulate(self, acc, x, width: int):
        """The chain s[t] = adder(s[t-1], x[t]), s[-1] = acc, wrapped.

        The native running sums y are a guess at the chain.  One
        mcla_add_many call adds every step's operands at once, lanes
        (prev[t], x[t]) with prev = [acc, y[0], ..., y[n-2]].  If every
        lane's wrapped sum equals y[t], then by induction on t the chain
        equals y and y is returned.  Otherwise, from the first lane t that
        disagrees, the chain runs one Mcla.add per step, seeded with
        prev[t].  For any deterministic adder, a faulty one included, the
        output is the sequential chain's bit for bit.
        """
        y = WrapAdder().accumulate(acc, x, width)
        prev = np.empty_like(y)
        prev[:1] = acc
        prev[1:] = y[:-1]
        bad = np.flatnonzero(self.add(prev, x, width) != y)
        if not len(bad):
            return y
        t = int(bad[0])
        return np.concatenate([y[:t], self._chain(int(prev[t]), x[t:], width)])

    @staticmethod
    def _chain(acc, x, width):
        """The chain from acc over x, one Mcla.add per step."""
        adder = Mcla(adder_width(width))
        mask = (1 << adder.width) - 1
        out = []
        for v in x.tolist():
            s, _ = adder.add(acc & mask, v & mask)
            acc = wrap(s, width)
            out.append(acc)
        return np.array(out, dtype=x.dtype)

    def add(self, a, b, width: int):
        return self._lanes(a, b, 0, width)

    def sub(self, a, b, width: int):
        return self._lanes(a, ~b, 1, width)

    def _lanes(self, a, b, carry_in, width):
        w = adder_width(width)
        mask = (1 << w) - 1
        s, _ = mcla_add_many(a & mask, b & mask, carry_in, w)
        return wrap_array(s, width)


_STRATEGIES = {"fast": WrapAdder(), "gate-model": GateAdder()}

ADDER_MODES = tuple(_STRATEGIES)


def adder_strategy(mode: str):
    """The arithmetic behind adder_mode `mode`, one of ADDER_MODES."""
    if mode not in _STRATEGIES:
        raise ConfigError(f"adder_mode must be one of {ADDER_MODES}")
    return _STRATEGIES[mode]
