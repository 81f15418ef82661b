"""Pipeline registers and clock-rate estimation.

Pipelining here is retiming: a marked stage boundary re-reads the stage's
own output register instead of the combinational adder output, so the
critical path shrinks to a single adder without any extra storage in the
integrator section.  The externally visible effect, and the contract this
module guarantees, is that the pipelined filter emits exactly the base
filter's output delayed by latency_cycles output samples, zero-filled
while the registers flush.

For the recursive filter only integrator boundaries may carry a register;
the comb section runs R times slower and stays unpipelined.  For the
non-recursive filter the register sits after each stage's adder chain.

Clock estimates use a unit-gate delay model: the reachable clock is set
by the look-ahead adder depth at the widest register stage that runs at
the input rate.  Only relative numbers are meaningful, so a TimingModel
carries a calibration factor chosen to pin the fastest point of a sweep
to a known value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cic import CicFilter
from .fixedpoint import FixedSequence, array_dtype
from .mcla import adder_width, critical_path_gates
from .nonrec import NonRecFilter
from .params import ConfigError, FilterConfig, total_width


class PipelinedFilter:
    """Wrap a CicFilter or NonRecFilter with pipeline registers.

    register_map is one boolean per allowed boundary (see the base
    filter's pipeline_boundaries); default is fully pipelined.  Each
    registered boundary contributes one output sample of latency on the
    input-to-output path.
    """

    def __init__(self, base, register_map=None):
        if not isinstance(base, (CicFilter, NonRecFilter)):
            raise ConfigError("base must be a CicFilter or NonRecFilter")
        boundaries = base.pipeline_boundaries()
        if register_map is None:
            register_map = (True,) * len(boundaries)
        register_map = tuple(bool(b) for b in register_map)
        if len(register_map) != len(boundaries):
            raise ConfigError(
                f"register_map needs {len(boundaries)} entries, got {len(register_map)}"
            )
        self.base = base
        self.register_map = register_map
        self.boundaries = boundaries
        self.latency_cycles = sum(register_map)
        self.output_width = base.output_width
        self._regs = np.zeros(self.latency_cycles, array_dtype(self.output_width))

    def reset(self):
        self.base.reset()
        self._regs = np.zeros(self.latency_cycles, array_dtype(self.output_width))

    @property
    def integrator_registers(self) -> int:
        """Integrator-section storage: retiming reuses the accumulators."""
        if isinstance(self.base, CicFilter):
            return self.base.integrator_registers
        return 0

    def process(self, input: FixedSequence) -> FixedSequence:
        out = self.base.process(input)
        if self.latency_cycles == 0:
            return out
        # the registers shift the output stream right by latency_cycles
        stream = np.concatenate([self._regs, out.array])
        self._regs = stream[len(out):].copy()
        return FixedSequence._trusted(stream[: len(out)], self.output_width)


@dataclass(frozen=True)
class TimingModel:
    """Unit-gate timing: clock = calibration / (gate_delay * depth)."""

    gate_delay: float = 1e-9
    calibration: float = 1.0

    def __post_init__(self):
        if not self.gate_delay > 0:
            raise ConfigError(f"gate_delay must be > 0, got {self.gate_delay}")
        if not self.calibration > 0:
            raise ConfigError(f"calibration must be > 0, got {self.calibration}")


def input_stage_width(config: FilterConfig, arch: str) -> int:
    """Width of the widest register stage clocked at the input rate."""
    if arch == "cic":
        return total_width(config)
    if arch == "nonrec":
        return config.input_width + config.order_n
    raise ConfigError(f"unknown arch {arch!r}")


def critical_depth(config: FilterConfig, arch: str, pipelined: bool = True) -> int:
    """Gate depth per input-rate clock period.

    Pipelined: one look-ahead adder at the widest input-rate stage.
    Unpipelined: the combinational path crosses all N chained adders.
    """
    depth = critical_path_gates(adder_width(input_stage_width(config, arch)), "mcla")
    if not pipelined:
        depth *= config.order_n
    return depth


def estimate_max_clock(config: FilterConfig, arch: str, pipelined: bool = True,
                       timing: TimingModel | None = None) -> float:
    """Reachable input-rate clock in Hz under the unit-gate model.

    For the non-recursive architecture the result does not depend on R:
    its first stage is input_width + N bits no matter how many halving
    stages follow.
    """
    tm = timing if timing is not None else TimingModel()
    depth = critical_depth(config, arch, pipelined)
    return tm.calibration / (tm.gate_delay * depth)


def calibrated_timing_model(peak_hz: float, depths, gate_delay: float = 1e-9) -> TimingModel:
    """Calibration such that the smallest depth in the sweep maps to peak_hz."""
    depths = list(depths)
    if not depths:
        raise ConfigError("need at least one depth to calibrate against")
    if not peak_hz > 0:
        raise ConfigError(f"peak_hz must be > 0, got {peak_hz}")
    return TimingModel(gate_delay=gate_delay, calibration=peak_hz * gate_delay * min(depths))


def clock_table(r_values, order_n: int, input_width: int, diff_delay_m: int = 1,
                pipelined: bool = True, peak_hz: float = 90e6):
    """Sweep R for both architectures on a shared technology scale.

    The scale is calibrated so the fastest fully pipelined row hits
    peak_hz; an unpipelined sweep reuses that calibration and therefore
    comes out slower.  Returns rows of (arch, r, n, stage_width, depth,
    clock_hz).  The non-recursive arch only appears for power-of-two R.
    """
    entries = []
    for r in r_values:
        cfg = FilterConfig(order_n, diff_delay_m, r, input_width, arch="cic")
        entries.append(("cic", cfg))
        if diff_delay_m == 1 and r >= 2 and (r & (r - 1)) == 0:
            entries.append(
                ("nonrec", FilterConfig(order_n, 1, r, input_width, arch="nonrec"))
            )
    tm = calibrated_timing_model(
        peak_hz, [critical_depth(cfg, arch, True) for arch, cfg in entries]
    )
    depths = [critical_depth(cfg, arch, pipelined) for arch, cfg in entries]
    rows = []
    for (arch, cfg), depth in zip(entries, depths):
        rows.append(
            (
                arch,
                cfg.decim_r,
                cfg.order_n,
                input_stage_width(cfg, arch),
                depth,
                estimate_max_clock(cfg, arch, pipelined, tm),
            )
        )
    return rows
