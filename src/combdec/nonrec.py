"""Non-recursive comb decimator for power-of-two ratios.

For R = 2**S the boxcar-to-the-N transfer factors into S halving stages,
each a chain of N two-tap (1 + z**-1) sections followed by keep-every-
second-sample.  Stage k runs at 1/2**k of the input rate and its adders
are only input_width + k*N bits wide, so most of the arithmetic happens
in narrow registers at low rates.

With the width schedule from params.nonrec_width_schedule no stage can
overflow, so the output is the exact convolution value with no modular
ambiguity; it matches the recursive filter at full precision sample for
sample (both keep full-rate convolution phases 0, R, 2R, ...).
"""

from __future__ import annotations

import numpy as np

from .fixedpoint import FixedSequence, array_dtype
from .mcla import adder_strategy
from .params import (
    ConfigError,
    FilterConfig,
    WidthMismatchError,
    nonrec_width_schedule,
)


class NonRecFilter:
    """Streaming non-recursive decimator built from S halving stages.

    Stage k runs N two-tap sections, section j an adder of
    width_schedule[k] + j + 1 bits, then keeps every second sample.
    adder_mode selects the arithmetic as for CicFilter.
    """

    def __init__(self, config: FilterConfig, adder_mode: str = "fast"):
        if config.arch != "nonrec":
            raise ConfigError(f"NonRecFilter needs arch='nonrec', got {config.arch!r}")
        self._adder = adder_strategy(adder_mode)
        self.config = config
        self.adder_mode = adder_mode
        self.width_schedule = nonrec_width_schedule(config)
        self.output_width = self.width_schedule[-1]
        self._dtype = array_dtype(self._adder.operand_bits(self.output_width))
        self.reset()

    def reset(self):
        stages = len(self.width_schedule) - 1
        self._delays = [[0] * self.config.order_n for _ in range(stages)]
        self._phases = [0] * stages

    @property
    def storage_elements(self) -> int:
        return self.config.order_n * (len(self.width_schedule) - 1)

    def pipeline_boundaries(self):
        """Stage outputs where a pipeline register may sit (after the adders)."""
        return tuple(f"stage{k}" for k in range(len(self.width_schedule) - 1))

    def process(self, input: FixedSequence) -> FixedSequence:
        if input.width != self.config.input_width:
            raise WidthMismatchError(
                f"input width {input.width} does not match config "
                f"input_width {self.config.input_width}"
            )
        v = input.array.astype(self._dtype, copy=False)
        for k, delays in enumerate(self._delays):
            if not len(v):
                break
            for j in range(self.config.order_n):
                prev = np.empty_like(v)
                prev[0] = delays[j]
                prev[1:] = v[:-1]
                delays[j] = v[-1]
                v = self._adder.add(v, prev, self.width_schedule[k] + j + 1)
            start = self._phases[k]  # phase 0 keeps index 0; phase 1 keeps index 1
            self._phases[k] = (start + len(v)) & 1
            v = v[start::2]
        return FixedSequence._trusted(v, self.output_width)


def nonrec_process(config: FilterConfig, input: FixedSequence,
                   adder_mode: str = "fast") -> FixedSequence:
    """One-shot convenience: fresh filter, zero state, process, done."""
    return NonRecFilter(config, adder_mode).process(input)
