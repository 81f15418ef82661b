import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combdec import (
    CicFilter,
    FilterConfig,
    FixedSequence,
    WidthMismatchError,
    cic_process,
    cic_truncation_plan,
    fir_coefficients,
    fir_decimate,
    full_precision_plan,
    total_width,
    truncation_error_bound,
    wrap,
)


def rand_seq(rng, n, width):
    half = 1 << (width - 1)
    return FixedSequence([rng.randrange(-half, half) for _ in range(n)], width)


def oracle_wrapped(cfg, seq, width):
    ref = fir_decimate(fir_coefficients(cfg), cfg.decim_r, seq)
    return [wrap(v, width) for v in ref.samples]


def push_all(flt, samples):
    return [y for s in samples if (y := flt.push(s)) is not None]


def test_integrator_step_wraps():
    # N=1 R=1 M=1 at 4 bits: the accumulator runs 3, 5, 7, then wraps to
    # -8 and back up past 7, and the comb must still return each input
    cfg = FilterConfig(1, 1, 1, 4)
    xs = [3, 2, 2, 1, -1, -8, -8, 7, 7, 7, 1]
    for mode in ("fast", "gate-model"):
        assert push_all(CicFilter(cfg, adder_mode=mode), xs) == xs
        assert list(cic_process(cfg, None, FixedSequence(xs, 4), mode).samples) == xs


def test_comb_step_difference_and_delay():
    for mode in ("fast", "gate-model"):
        # N=1 R=1: the comb sees the running sums 1, 2, 4 and with M=2
        # subtracts the sum two steps back
        f = CicFilter(FilterConfig(1, 2, 1, 8), adder_mode=mode)
        assert push_all(f, [1, 1, 2]) == [1, 2, 3]
        # identical comb inputs with M=1 cancel
        f = CicFilter(FilterConfig(1, 1, 1, 8), adder_mode=mode)
        assert push_all(f, [57, 0]) == [57, 0]


def test_impulse_response_is_decimated_taps():
    for n, m, r in [(1, 1, 4), (2, 1, 2), (3, 2, 2), (5, 1, 16), (4, 1, 3)]:
        cfg = FilterConfig(n, m, r, 6)
        taps = fir_coefficients(cfg)
        length = r * (len(taps) // r + 2)
        out = cic_process(cfg, None, FixedSequence.impulse(length, 6))
        expect = [taps[j * r] if j * r < len(taps) else 0 for j in range(len(out))]
        assert list(out.samples) == expect


def test_oracle_equivalence_random_subset():
    rng = random.Random(11)
    for n, m, r, b in [(1, 1, 2, 4), (3, 1, 4, 8), (5, 2, 3, 4), (4, 2, 8, 6), (5, 1, 16, 5)]:
        cfg = FilterConfig(n, m, r, b)
        seq = rand_seq(rng, 600, b)
        out = cic_process(cfg, None, seq)
        assert list(out.samples) == oracle_wrapped(cfg, seq, out.width)


def test_steady_state_constant_full_published_config():
    cfg = FilterConfig(5, 1, 16, 5)
    n_settle = 5 * 16 + 16
    out = cic_process(cfg, None, FixedSequence([1] * (n_settle + 64), 5))
    tail = out.samples[(n_settle // 16):]
    assert set(tail) == {1048576}


def test_full_scale_constant_matches_exact_values():
    # wrapped arithmetic at total_width returns the true accumulation,
    # positive and negative extremes alike
    for n, m, r, b in [(3, 1, 4, 4), (2, 2, 3, 5), (5, 1, 8, 5)]:
        cfg = FilterConfig(n, m, r, b)
        taps = fir_coefficients(cfg)
        n_in = r * ((len(taps) + r - 1) // r + 2)
        for const in (-(1 << (b - 1)), (1 << (b - 1)) - 1):
            seq = FixedSequence([const] * n_in, b)
            got = cic_process(cfg, None, seq)
            exact = fir_decimate(taps, r, seq)
            assert list(got.samples) == list(exact.samples)
            assert got.samples[-1] == const * sum(taps)


def test_linearity_within_input_range():
    rng = random.Random(3)
    cfg = FilterConfig(3, 1, 4, 6)
    a = [rng.randrange(-16, 16) for _ in range(256)]
    b = [rng.randrange(-15, 16) for _ in range(256)]
    fa = cic_process(cfg, None, FixedSequence(a, 6)).samples
    fb = cic_process(cfg, None, FixedSequence(b, 6)).samples
    fab = cic_process(cfg, None, FixedSequence([x + y for x, y in zip(a, b)], 6)).samples
    assert all(s == x + y for s, x, y in zip(fab, fa, fb))


def test_truncation_error_within_bound():
    rng = random.Random(23)
    cfg = FilterConfig(5, 1, 16, 5)
    plan = cic_truncation_plan(cfg, [25, 22, 20, 18, 16])
    bound = truncation_error_bound(cfg, plan)
    seq = rand_seq(rng, 8000, 5)
    full = cic_process(cfg, None, seq)
    trunc = cic_process(cfg, plan, seq)
    shift = plan.total_truncation
    assert len(full) == len(trunc)
    for t, f in zip(trunc.samples, full.samples):
        assert abs(t - (f >> shift)) <= bound


def test_truncation_bound_zero_for_full_precision():
    cfg = FilterConfig(5, 1, 16, 5)
    assert truncation_error_bound(cfg, full_precision_plan(cfg)) == 0


def test_truncated_output_width_follows_plan():
    cfg = FilterConfig(5, 1, 16, 5)
    plan = cic_truncation_plan(cfg, [25, 22, 20, 18, 16])
    out = cic_process(cfg, plan, FixedSequence([5] * 64, 5))
    assert out.width == 16


def test_gate_model_bit_identical():
    rng = random.Random(41)
    for cfg, widths in [
        (FilterConfig(3, 1, 4, 4), None),
        (FilterConfig(2, 2, 3, 5), None),
        (FilterConfig(5, 1, 16, 5), [25, 22, 20, 18, 16]),
    ]:
        plan = cic_truncation_plan(cfg, widths) if widths else None
        seq = rand_seq(rng, 300, cfg.input_width)
        fast = cic_process(cfg, plan, seq, adder_mode="fast")
        gate = cic_process(cfg, plan, seq, adder_mode="gate-model")
        assert fast.samples == gate.samples


@given(
    st.integers(1, 4),
    st.integers(1, 2),
    st.integers(1, 6),
    st.integers(2, 6),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_push_by_push_matches_oracle(n, m, r, b, seed):
    cfg = FilterConfig(n, m, r, b)
    rng = random.Random(seed)
    seq = rand_seq(rng, 120, b)
    f = CicFilter(cfg)
    assert push_all(f, seq.samples) == oracle_wrapped(cfg, seq, f.output_width)


def test_chunked_processing_matches_one_shot():
    rng = random.Random(8)
    cfg = FilterConfig(4, 1, 4, 5)
    seq = rand_seq(rng, 331, 5)  # deliberately not a multiple of R
    whole = CicFilter(cfg).process(seq).samples
    f = CicFilter(cfg)
    parts = []
    samples = list(seq.samples)
    prev = 0
    for cut in (1, 7, 100, 101, 331):
        parts += f.process(FixedSequence(samples[prev:cut], 5)).samples
        prev = cut
    assert tuple(parts) == whole


def test_reset_restores_zero_state():
    cfg = FilterConfig(3, 1, 4, 5)
    f = CicFilter(cfg)
    seq = FixedSequence([7, -3, 5, 1, 2, 2, 2, 2], 5)
    first = f.process(seq).samples
    f.reset()
    again = f.process(seq).samples
    assert first == again


def test_empty_input_gives_empty_output():
    cfg = FilterConfig(3, 1, 4, 5)
    out = cic_process(cfg, None, FixedSequence((), 5))
    assert len(out) == 0
    assert out.width == total_width(cfg)


def test_width_mismatch_rejected():
    cfg = FilterConfig(3, 1, 4, 5)
    with pytest.raises(WidthMismatchError):
        cic_process(cfg, None, FixedSequence((1, 2), 6))


def test_plan_config_cross_checks():
    cfg = FilterConfig(3, 1, 4, 5)
    other = FilterConfig(4, 1, 4, 5)
    plan = full_precision_plan(other)
    with pytest.raises(Exception):
        CicFilter(cfg, plan)
    with pytest.raises(Exception):
        CicFilter(FilterConfig(2, 1, 8, 4, arch="nonrec"))
