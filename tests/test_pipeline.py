import random

import pytest

from combdec import (
    CicFilter,
    ConfigError,
    FilterConfig,
    FixedSequence,
    NonRecFilter,
    PipelinedFilter,
    TimingModel,
    calibrated_timing_model,
    cic_truncation_plan,
    clock_table,
    critical_depth,
    estimate_max_clock,
)
from combdec.pipeline import input_stage_width


def rand_seq(rng, n, width):
    half = 1 << (width - 1)
    return FixedSequence([rng.randrange(-half, half) for _ in range(n)], width)


def shifted(base_samples, latency):
    return (0,) * latency + tuple(base_samples[: len(base_samples) - latency])


def test_cic_full_map_latency_and_shift():
    rng = random.Random(4)
    cfg = FilterConfig(4, 1, 4, 6)
    seq = rand_seq(rng, 400, 6)
    base = CicFilter(cfg).process(seq)
    pf = PipelinedFilter(CicFilter(cfg))
    assert pf.latency_cycles == 4
    out = pf.process(seq)
    assert out.samples == shifted(base.samples, 4)
    assert out.width == base.width


def test_partial_register_map():
    rng = random.Random(5)
    cfg = FilterConfig(4, 1, 4, 6)
    seq = rand_seq(rng, 200, 6)
    base = CicFilter(cfg).process(seq)
    pf = PipelinedFilter(CicFilter(cfg), register_map=(True, False, True, False))
    assert pf.latency_cycles == 2
    assert pf.process(seq).samples == shifted(base.samples, 2)


def test_empty_register_map_is_identity():
    rng = random.Random(6)
    cfg = FilterConfig(3, 1, 2, 5)
    seq = rand_seq(rng, 100, 5)
    base = CicFilter(cfg).process(seq)
    pf = PipelinedFilter(CicFilter(cfg), register_map=(False,) * 3)
    assert pf.latency_cycles == 0
    assert pf.process(seq).samples == base.samples


def test_nonrec_pipelining():
    rng = random.Random(7)
    cfg = FilterConfig(3, 1, 8, 5, arch="nonrec")
    seq = rand_seq(rng, 320, 5)
    base = NonRecFilter(cfg).process(seq)
    pf = PipelinedFilter(NonRecFilter(cfg))
    assert pf.latency_cycles == 3  # one register per halving stage
    assert pf.process(seq).samples == shifted(base.samples, 3)


def test_truncated_filter_pipelines_identically():
    rng = random.Random(8)
    cfg = FilterConfig(5, 1, 16, 5)
    plan = cic_truncation_plan(cfg, [25, 22, 20, 18, 16])
    seq = rand_seq(rng, 800, 5)
    base = CicFilter(cfg, plan).process(seq)
    pf = PipelinedFilter(CicFilter(cfg, plan))
    assert pf.process(seq).samples == shifted(base.samples, 5)


def test_streaming_across_chunks():
    rng = random.Random(9)
    cfg = FilterConfig(3, 1, 4, 5)
    seq = rand_seq(rng, 203, 5)
    whole = PipelinedFilter(CicFilter(cfg)).process(seq).samples
    pf = PipelinedFilter(CicFilter(cfg))
    got = []
    prev = 0
    for cut in (31, 32, 150, 203):
        got += pf.process(FixedSequence(seq.samples[prev:cut], 5)).samples
        prev = cut
    assert tuple(got) == whole


def test_reset_reloads_zeros():
    cfg = FilterConfig(2, 1, 2, 5)
    pf = PipelinedFilter(CicFilter(cfg))
    seq = FixedSequence([3, -1, 4, 1, -5, 9], 5)
    first = pf.process(seq).samples
    pf.reset()
    assert pf.process(seq).samples == first


def test_registers_only_on_integrators():
    cfg = FilterConfig(4, 1, 4, 6)
    pf = PipelinedFilter(CicFilter(cfg))
    assert len(pf.register_map) == len(pf.boundaries) == 4
    assert all(b.startswith("integrator") for b in pf.boundaries)
    assert not any("comb" in b for b in pf.boundaries)


def test_storage_parity_with_unpipelined():
    cfg = FilterConfig(5, 1, 8, 5)
    base = CicFilter(cfg)
    pf = PipelinedFilter(CicFilter(cfg))
    # retiming reuses the accumulators: no extra integrator storage
    assert pf.integrator_registers == base.integrator_registers == 5


def test_register_map_length_checked():
    cfg = FilterConfig(3, 1, 4, 6)
    with pytest.raises(ConfigError):
        PipelinedFilter(CicFilter(cfg), register_map=(True, True))


def test_clock_decreases_with_r_for_cic():
    tm = TimingModel()
    clocks = [
        estimate_max_clock(FilterConfig(5, 1, r, 5), "cic", True, tm)
        for r in (8, 16, 32, 64)
    ]
    assert all(a > b for a, b in zip(clocks, clocks[1:]))


def test_clock_constant_in_r_for_nonrec():
    tm = TimingModel()
    clocks = {
        estimate_max_clock(FilterConfig(5, 1, r, 5, arch="nonrec"), "nonrec", True, tm)
        for r in (2, 4, 8, 16, 32, 64, 128)
    }
    assert len(clocks) == 1


def test_clock_non_increasing_with_n():
    tm = TimingModel()
    clocks = [
        estimate_max_clock(FilterConfig(n, 1, 16, 5), "cic", True, tm)
        for n in (1, 2, 3, 4, 5, 6)
    ]
    assert all(a >= b for a, b in zip(clocks, clocks[1:]))


def test_unpipelined_slower_than_pipelined():
    cfg = FilterConfig(5, 1, 16, 5)
    tm = TimingModel()
    assert estimate_max_clock(cfg, "cic", False, tm) < estimate_max_clock(cfg, "cic", True, tm)
    assert critical_depth(cfg, "cic", False) == 5 * critical_depth(cfg, "cic", True)


def test_calibration_pins_peak():
    cfgs = [(r, FilterConfig(5, 1, r, 5)) for r in (8, 16, 32, 64)]
    depths = [critical_depth(c, "cic", True) for _, c in cfgs]
    tm = calibrated_timing_model(90e6, depths)
    peak = max(estimate_max_clock(c, "cic", True, tm) for _, c in cfgs)
    assert peak == pytest.approx(90e6, rel=1e-12)


def test_clock_table_shape_and_peak():
    rows = clock_table([8, 16, 32, 64], 5, 5)
    cic_rows = [r for r in rows if r[0] == "cic"]
    nr_rows = [r for r in rows if r[0] == "nonrec"]
    assert len(cic_rows) == 4 and len(nr_rows) == 4
    assert max(r[5] for r in rows) == pytest.approx(90e6, rel=1e-12)
    assert len({r[5] for r in nr_rows}) == 1


def test_input_stage_width_rule():
    cfg = FilterConfig(5, 1, 16, 5)
    assert input_stage_width(cfg, "cic") == 25
    assert input_stage_width(FilterConfig(5, 1, 16, 5, arch="nonrec"), "nonrec") == 10
    with pytest.raises(ConfigError):
        input_stage_width(cfg, "systolic")


def test_timing_model_validation():
    with pytest.raises(ConfigError):
        TimingModel(gate_delay=0.0)
    with pytest.raises(ConfigError):
        TimingModel(calibration=-1.0)
    with pytest.raises(ConfigError):
        calibrated_timing_model(0.0, [5])
    with pytest.raises(ConfigError):
        calibrated_timing_model(90e6, [])
