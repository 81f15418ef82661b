"""Streams through every filter, against the FIR oracle, at widths on both
sides of the 62-bit int64 limit and the 64-bit adder width.

Each case cuts a seeded input into random chunks, feeds them to a
long-lived filter (single samples through CicFilter.push when drawn), and
compares the concatenated output with fir_decimate on the whole input.
A state machine also interleaves reset with push and process.
"""

import random
from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from combdec import (
    CicFilter,
    FilterConfig,
    FixedSequence,
    NonRecFilter,
    PipelinedFilter,
    cic_process,
    cic_truncation_plan,
    fir_coefficients,
    fir_decimate,
    total_width,
    truncation_error_bound,
)

# (n, m, r, bin) with total widths 25, 61, 62, 63, 64, 65, 72
CIC_CONFIGS = [
    (5, 1, 16, 5),
    (4, 1, 16, 45),
    (7, 1, 64, 20),
    (7, 1, 64, 21),
    (6, 1, 64, 28),
    (6, 1, 64, 29),
    (8, 2, 64, 16),
]
# output widths 20, 61, 62, 63, 64, 65
NONREC_CONFIGS = [(5, 1, 8, 5), (4, 1, 16, 45), (7, 1, 64, 20), (7, 1, 64, 21),
                  (6, 1, 64, 28), (6, 1, 64, 29)]
# gate model: short inputs; adder widths 28, 64 (a 62-bit stage), 68
GATE_CONFIGS = [(5, 1, 16, 5), (7, 1, 64, 20), (6, 1, 64, 29)]
# truncation: first stage widths 58, 64, 68
TRUNC_CONFIGS = [(3, 1, 32, 43), (4, 1, 64, 40), (3, 2, 32, 50)]


def full_scale_input(seed, n, width):
    rng = random.Random(seed)
    lo, hi = -(1 << (width - 1)), (1 << (width - 1)) - 1
    return [rng.choice((lo, hi, rng.randint(lo, hi))) for _ in range(n)]


def feed(data, flt, xs, width):
    """Random chunks of xs through flt; single samples may go through push."""
    out, i = [], 0
    while i < len(xs):
        size = data.draw(st.integers(1, 80), label="chunk")
        chunk = xs[i:i + size]
        i += size
        if size == 1 and isinstance(flt, CicFilter) and data.draw(st.booleans(), label="push"):
            y = flt.push(chunk[0])
            out += [] if y is None else [y]
        else:
            out += flt.process(FixedSequence(chunk, width)).samples
    return out


def oracle(dims, xs):
    n, m, r, b = dims
    return list(fir_decimate(fir_coefficients(FilterConfig(n, m, r, b)), r,
                             FixedSequence(xs, b)).samples)


def build(dims, arch, adder_mode, pipelined):
    cfg = FilterConfig(*dims, arch=arch)
    base = CicFilter(cfg, None, adder_mode) if arch == "cic" else NonRecFilter(cfg, adder_mode)
    return PipelinedFilter(base) if pipelined else base


def check_stream(data, dims, arch, adder_mode, max_len):
    pipelined = data.draw(st.booleans(), label="pipelined")
    flt = build(dims, arch, adder_mode, pipelined)
    xs = full_scale_input(data.draw(st.integers(0, 2**32 - 1), label="seed"),
                          data.draw(st.integers(0, max_len), label="length"), dims[3])
    want = oracle(dims, xs)
    lat = flt.latency_cycles if pipelined else 0
    want = ([0] * lat + want)[:len(want)]
    assert feed(data, flt, xs, dims[3]) == want
    assert flt.output_width == total_width(FilterConfig(*dims))


@given(st.data(), st.sampled_from(CIC_CONFIGS))
@settings(max_examples=40, deadline=None)
def test_cic_stream_matches_oracle(data, dims):
    check_stream(data, dims, "cic", "fast", 400)


@given(st.data(), st.sampled_from(NONREC_CONFIGS))
@settings(max_examples=30, deadline=None)
def test_nonrec_stream_matches_oracle(data, dims):
    check_stream(data, dims, "nonrec", "fast", 400)


@given(st.data(), st.sampled_from(GATE_CONFIGS), st.sampled_from(("cic", "nonrec")))
@settings(max_examples=20, deadline=None)
def test_gate_model_stream_matches_oracle(data, dims, arch):
    check_stream(data, dims, arch, "gate-model", 160)


@lru_cache(maxsize=None)
def error_bound(cfg, plan):
    return truncation_error_bound(cfg, plan)


@given(st.data(), st.sampled_from(TRUNC_CONFIGS))
@settings(max_examples=30, deadline=None)
def test_truncated_stream_within_bound(data, dims):
    cfg = FilterConfig(*dims)
    widths = [total_width(cfg)]
    for _ in range(cfg.order_n - 1):
        widths.append(widths[-1] - data.draw(st.integers(0, 4), label="dropped bits"))
    plan = cic_truncation_plan(cfg, widths)
    xs = full_scale_input(data.draw(st.integers(0, 2**32 - 1), label="seed"),
                          data.draw(st.integers(0, 400), label="length"), cfg.input_width)
    got = feed(data, CicFilter(cfg, plan), xs, cfg.input_width)
    assert got == list(cic_process(cfg, plan, FixedSequence(xs, cfg.input_width)).samples)
    shift, bound = plan.total_truncation, error_bound(cfg, plan)
    assert all(abs(t - (f >> shift)) <= bound for t, f in zip(got, oracle(dims, xs)))


# n=5 m=1 bin=5: cic r=16 (25 bits, a 28-bit gate adder), nonrec r=8
STREAM_CIC, STREAM_NONREC = FilterConfig(5, 1, 16, 5), FilterConfig(5, 1, 8, 5, arch="nonrec")
STREAM_FILTERS = {
    "cic-fast": lambda: CicFilter(STREAM_CIC),
    "cic-gate": lambda: CicFilter(STREAM_CIC, None, "gate-model"),
    "cic-gate-truncated": lambda: CicFilter(
        STREAM_CIC, cic_truncation_plan(STREAM_CIC, (25, 22, 20, 18, 16)), "gate-model"),
    "nonrec-gate": lambda: NonRecFilter(STREAM_NONREC, "gate-model"),
    "pipelined-cic": lambda: PipelinedFilter(CicFilter(STREAM_CIC)),
}


class StreamMachine(RuleBasedStateMachine):
    """push, process and reset in any order; the output since the last
    reset always matches fir_decimate of the input since that reset."""

    @initialize(kind=st.sampled_from(sorted(STREAM_FILTERS)))
    def build(self, kind):
        self.flt = STREAM_FILTERS[kind]()
        self.xs, self.ys = [], []

    @rule(x=st.integers(-16, 15))
    def push(self, x):
        self.xs.append(x)
        if isinstance(self.flt, CicFilter):
            y = self.flt.push(x)
            self.ys += [] if y is None else [y]
        else:
            self.ys += self.flt.process(FixedSequence([x], 5)).samples

    @rule(size=st.integers(0, 200), seed=st.integers(0, 2**32 - 1))
    def process(self, size, seed):
        chunk = full_scale_input(seed, size, 5)
        self.xs += chunk
        self.ys += self.flt.process(FixedSequence(chunk, 5)).samples

    @precondition(lambda self: self.xs)  # a fresh filter is already reset
    @rule()
    def reset(self):
        self.flt.reset()
        self.xs, self.ys = [], []

    @invariant()
    def output_matches_oracle(self):
        flt = getattr(self.flt, "base", self.flt)
        cfg = flt.config
        want = list(fir_decimate(fir_coefficients(cfg), cfg.decim_r,
                                 FixedSequence(self.xs, 5)).samples)
        if isinstance(self.flt, PipelinedFilter):
            want = ([0] * self.flt.latency_cycles + want)[:len(want)]
        if isinstance(flt, CicFilter) and flt.plan.total_truncation:
            shift, bound = flt.plan.total_truncation, error_bound(cfg, flt.plan)
            assert len(self.ys) == len(want)
            assert all(abs(t - (f >> shift)) <= bound for t, f in zip(self.ys, want))
        else:
            assert self.ys == want


StreamMachine.TestCase.settings = settings(max_examples=40, stateful_step_count=25,
                                           deadline=None)
test_stream_machine = StreamMachine.TestCase
