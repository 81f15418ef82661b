import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combdec import (
    FilterConfig,
    FixedSequence,
    NonRecFilter,
    WidthMismatchError,
    cic_process,
    fir_coefficients,
    fir_decimate,
    nonrec_process,
    nonrec_width_schedule,
)


def rand_seq(rng, n, width):
    half = 1 << (width - 1)
    return FixedSequence([rng.randrange(-half, half) for _ in range(n)], width)


def one_stage(n, b, adder_mode="fast"):
    return NonRecFilter(FilterConfig(n, 1, 2, b, arch="nonrec"), adder_mode)


def test_twotap_step_adds_previous():
    # two-tap outputs [3, 8, 4]: the second call adds the 5 kept from the first
    for mode in ("fast", "gate-model"):
        f = one_stage(1, 8, mode)
        assert f.process(FixedSequence([3, 5], 8)).samples == (3,)
        assert f.process(FixedSequence([-1], 8)).samples == (4,)


def test_stage_first_order_example():
    for mode in ("fast", "gate-model"):
        out = one_stage(1, 4, mode).process(FixedSequence([1, 2, 3, 4], 4))
        # two-tap outputs [1, 3, 5, 7], keep even positions
        assert out.samples == (1, 5)
        assert out.width == 5


def test_stage_dc_gain_is_two_to_the_n():
    for n in (1, 2, 3, 5):
        out = one_stage(n, 6).process(FixedSequence([3] * 40, 6))
        assert out.samples[-1] == 3 * (2 ** n)


def test_stage_output_width_grows_by_n():
    f = one_stage(4, 7)
    assert f.width_schedule == (7, 11)
    assert f.output_width == 11
    assert f.storage_elements == 4


def test_impulse_response_is_decimated_taps():
    for n, r in [(1, 2), (2, 4), (5, 8), (3, 16)]:
        cfg = FilterConfig(n, 1, r, 6, arch="nonrec")
        taps = fir_coefficients(FilterConfig(n, 1, r, 6))
        length = r * (len(taps) // r + 2)
        out = nonrec_process(cfg, FixedSequence.impulse(length, 6))
        expect = [taps[j * r] if j * r < len(taps) else 0 for j in range(len(out))]
        assert list(out.samples) == expect


def test_matches_recursive_filter_short():
    rng = random.Random(9)
    for n, r, b in [(1, 2, 4), (3, 4, 5), (5, 8, 5), (2, 16, 6)]:
        nr_cfg = FilterConfig(n, 1, r, b, arch="nonrec")
        cic_cfg = FilterConfig(n, 1, r, b)
        seq = rand_seq(rng, 800, b)
        a = nonrec_process(nr_cfg, seq)
        c = cic_process(cic_cfg, None, seq)
        assert a.width == c.width
        assert a.samples == c.samples


def test_exact_values_no_wraparound_needed():
    # the width schedule leaves no overflow anywhere: outputs equal the
    # exact convolution values without any modular reduction
    rng = random.Random(10)
    cfg = FilterConfig(5, 1, 8, 5, arch="nonrec")
    taps = fir_coefficients(FilterConfig(5, 1, 8, 5))
    seq = rand_seq(rng, 640, 5)
    got = nonrec_process(cfg, seq)
    exact = fir_decimate(taps, 8, seq)
    assert list(got.samples) == list(exact.samples)


def test_full_scale_constants_fit_schedule():
    cfg = FilterConfig(5, 1, 8, 5, arch="nonrec")
    for const in (-16, 15):
        out = nonrec_process(cfg, FixedSequence([const] * 200, 5))
        assert out.samples[-1] == const * 8 ** 5


def test_gate_model_bit_identical():
    rng = random.Random(12)
    cfg = FilterConfig(3, 1, 8, 5, arch="nonrec")
    seq = rand_seq(rng, 256, 5)
    fast = nonrec_process(cfg, seq, adder_mode="fast")
    gate = nonrec_process(cfg, seq, adder_mode="gate-model")
    assert fast.samples == gate.samples


@given(st.integers(1, 4), st.integers(1, 3), st.integers(2, 6), st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_chunked_matches_one_shot(n, s, b, seed):
    r = 1 << s
    cfg = FilterConfig(n, 1, r, b, arch="nonrec")
    rng = random.Random(seed)
    seq = rand_seq(rng, 97, b)
    whole = NonRecFilter(cfg).process(seq).samples
    f = NonRecFilter(cfg)
    parts = []
    prev = 0
    for cut in (13, 14, 50, 97):
        parts += f.process(FixedSequence(seq.samples[prev:cut], b)).samples
        prev = cut
    assert tuple(parts) == whole


def test_schedule_matches_filter_widths():
    cfg = FilterConfig(4, 1, 16, 6, arch="nonrec")
    f = NonRecFilter(cfg)
    sched = nonrec_width_schedule(cfg)
    assert f.width_schedule == sched == (6, 10, 14, 18, 22)
    assert f.output_width == sched[-1]
    assert f.pipeline_boundaries() == ("stage0", "stage1", "stage2", "stage3")
    assert f.storage_elements == 4 * 4


def test_reset_and_empty():
    cfg = FilterConfig(2, 1, 4, 5, arch="nonrec")
    f = NonRecFilter(cfg)
    seq = FixedSequence([1, -2, 3, 4, 5, -6, 7, 8], 5)
    first = f.process(seq).samples
    f.reset()
    assert f.process(seq).samples == first
    assert len(f.process(FixedSequence((), 5))) == 0


def test_width_mismatch_and_arch_rejected():
    cfg = FilterConfig(2, 1, 4, 5, arch="nonrec")
    with pytest.raises(WidthMismatchError):
        nonrec_process(cfg, FixedSequence((1,), 6))
    with pytest.raises(Exception):
        NonRecFilter(FilterConfig(2, 1, 4, 5))
