"""Recursive integrator-comb decimator with wraparound arithmetic.

N integrator stages run at the input rate, every R-th chain output is
passed to N comb stages (differential delay M) at the output rate.  All
registers wrap modulo their width, never saturate: intermediate
integrator overflow is harmless as long as the output register is at
least total_width(config) bits, because addition and subtraction modulo
2**W commute with dropping high bits.

LSBs may be dropped between integrator stages per a WordLengthPlan.  The
drop is an arithmetic (sign-preserving) right shift of the wrapped stage
output, which equals the floor-shifted exact value modulo the narrower
next-stage width, so the plan widths fully determine the bit-exact
result.
"""

from __future__ import annotations

import numpy as np

from .fixedpoint import FixedSequence, array_dtype
from .mcla import adder_strategy
from .oracle import dropped_sample_coefficients
from .params import (
    ConfigError,
    FilterConfig,
    WidthMismatchError,
    WordLengthPlan,
    full_precision_plan,
)


def _check_plan(config: FilterConfig, plan: WordLengthPlan):
    n = config.order_n
    if len(plan.stage_widths) != n:
        raise ConfigError(
            f"plan has {len(plan.stage_widths)} stages, config wants {n}"
        )
    for a, b in zip(plan.stage_widths, plan.stage_widths[1:]):
        if b > a:
            raise ConfigError("recursive plan widths must be non-increasing")
    for i in range(n - 1):
        if plan.stage_widths[i] - plan.truncation_bits[i] != plan.stage_widths[i + 1]:
            raise ConfigError(
                f"stage {i}: width {plan.stage_widths[i]} minus "
                f"{plan.truncation_bits[i]} dropped bits must equal the next "
                f"stage width {plan.stage_widths[i + 1]}"
            )
    if plan.truncation_bits[-1] != 0:
        raise ConfigError("the last integrator stage feeds the comb untruncated")


class CicFilter:
    """Streaming recursive decimator instance owning its register state.

    adder_mode "fast" uses native integer adds; "gate-model" routes every
    addition and subtraction through the gate-level look-ahead adder.
    Both produce identical bits.
    """

    def __init__(self, config: FilterConfig, plan: WordLengthPlan | None = None,
                 adder_mode: str = "fast"):
        if config.arch != "cic":
            raise ConfigError(f"CicFilter needs arch='cic', got {config.arch!r}")
        self._adder = adder_strategy(adder_mode)
        self.config = config
        self.plan = plan if plan is not None else full_precision_plan(config)
        _check_plan(config, self.plan)
        self.adder_mode = adder_mode
        self.output_width = self.plan.stage_widths[-1]
        self._dtype = array_dtype(self._adder.operand_bits(max(self.plan.stage_widths)))
        self.reset()

    def reset(self):
        n = self.config.order_n
        self._accs = [0] * n
        self._combs = [np.zeros(self.config.diff_delay_m, self._dtype) for _ in range(n)]
        self._phase = 0

    @property
    def integrator_registers(self) -> int:
        """Storage elements in the integrator section: one accumulator per stage."""
        return self.config.order_n

    @property
    def storage_elements(self) -> int:
        return self.integrator_registers + self.config.order_n * self.config.diff_delay_m

    def pipeline_boundaries(self):
        """Names of the stage outputs where a pipeline register may sit.

        Only integrator stages qualify; the comb section runs R times
        slower and is never pipelined.
        """
        return tuple(f"integrator{i}" for i in range(self.config.order_n))

    def push(self, x: int):
        """Feed one input sample; returns an output sample or None."""
        out = self.process(FixedSequence((x,), self.config.input_width))
        return out[0] if len(out) else None

    def process(self, input: FixedSequence) -> FixedSequence:
        """Run a block of samples, continuing from the current state."""
        if input.width != self.config.input_width:
            raise WidthMismatchError(
                f"input width {input.width} does not match config "
                f"input_width {self.config.input_width}"
            )
        v = input.array.astype(self._dtype, copy=False)
        if len(v) == 0:
            return FixedSequence._trusted(v, self.output_width)
        adder = self._adder
        for i, (w, t) in enumerate(zip(self.plan.stage_widths, self.plan.truncation_bits)):
            sums = adder.accumulate(self._accs[i], v, w)
            self._accs[i] = int(sums[-1])
            v = sums >> t if t else sums
        r = self.config.decim_r
        v = v[(-self._phase) % r :: r]
        self._phase = (self._phase + len(input)) % r
        m = self.config.diff_delay_m
        for k, delayed in enumerate(self._combs):
            seq = np.concatenate([delayed, v])
            self._combs[k] = seq[-m:].copy()
            v = adder.sub(seq[m:], seq[:-m], self.output_width)
        return FixedSequence._trusted(v, self.output_width)


def cic_process(config: FilterConfig, plan: WordLengthPlan | None,
                input: FixedSequence, adder_mode: str = "fast") -> FixedSequence:
    """One-shot convenience: fresh filter, zero state, process, done."""
    return CicFilter(config, plan, adder_mode).process(input)


def truncation_error_bound(config: FilterConfig, plan: WordLengthPlan) -> int:
    """Worst-case |truncated - floor-shifted full-precision| output error.

    Each stage drop leaves a remainder in [0, 2**T_i - 1]; the remainder
    propagates through the rest of the cascade with at most the absolute
    tap-sum gain of that path.  Summing the worst cases over stages gives
    a bound the streaming filter can never exceed.
    """
    _check_plan(config, plan)
    bound = 0
    for i, t in enumerate(plan.truncation_bits):
        if t == 0:
            continue
        taps = dropped_sample_coefficients(config, i + 1)
        gain = sum(abs(c) for c in taps)
        bound += ((1 << t) - 1) * gain
    return bound
