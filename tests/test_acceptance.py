"""Acceptance suite.

One test per acceptance criterion.  Each test prints exactly one
summary line (PASS or FAIL, plus the measured numbers) on the real
stdout, bypassing capture, so a plain pytest run shows the scorecard.
"""

import math
import time
from itertools import product

import numpy as np

from combdec.analysis import (
    measure_snr,
    response_sweep,
    sigma_delta_source,
)
from combdec.cic import CicFilter, cic_process, truncation_error_bound
from combdec.cli import main as cli_main
from combdec.fixedpoint import FixedSequence
from combdec.mcla import Mcla, adder_width, critical_path_gates, mcla_add_many
from combdec.nonrec import NonRecFilter, nonrec_process
from combdec.oracle import fir_coefficients, fir_decimate
from combdec.params import (
    FilterConfig,
    cic_truncation_plan,
    max_register_growth,
    max_register_growth as max_gain,
    total_width,
)
from combdec.pipeline import PipelinedFilter, clock_table

SEED = 20240816

R_SET = (2, 3, 4, 8, 16)
M_SET = (1, 2)
N_SET = (1, 2, 3, 4, 5)
B_SET = (4, 8)


def grid_configs():
    for r, m, n, b in product(R_SET, M_SET, N_SET, B_SET):
        yield FilterConfig(n, m, r, b)


def rand_input(rng, n_samples, width):
    half = 1 << (width - 1)
    vals = rng.integers(-half, half, size=n_samples)
    return FixedSequence([int(v) for v in vals], width)


def report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"criterion {num:>2}: {'PASS' if ok else 'FAIL'} | {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_recursive_matches_oracle(capsys):
    rng = np.random.default_rng(SEED)
    n_samples = 100_000
    t0 = time.perf_counter()
    checked = 0
    for cfg in grid_configs():
        x = rand_input(rng, n_samples, cfg.input_width)
        got = cic_process(cfg, None, x)
        want = fir_decimate(fir_coefficients(cfg), cfg.decim_r, x)
        assert got.width == total_width(cfg) == want.width
        assert got.samples == want.samples
        checked += 1
    dt = time.perf_counter() - t0
    report(
        capsys, 1, dt < 60.0,
        f"{checked} configs x {n_samples} samples bit-exact in {dt:.1f} s (limit 60)",
    )


def test_criterion_02_architectures_agree(capsys):
    rng = np.random.default_rng(SEED + 1)
    n_samples = 100_000
    t0 = time.perf_counter()
    checked = 0
    for r, n, b in product((2, 4, 8, 16), N_SET, B_SET):
        cic_cfg = FilterConfig(n, 1, r, b, arch="cic")
        nr_cfg = FilterConfig(n, 1, r, b, arch="nonrec")
        x = rand_input(rng, n_samples, b)
        got = nonrec_process(nr_cfg, x)
        want = cic_process(cic_cfg, None, x)
        assert got.width == want.width
        assert got.samples == want.samples
        checked += 1
    dt = time.perf_counter() - t0
    report(
        capsys, 2, dt < 30.0,
        f"{checked} configs x {n_samples} samples bit-exact in {dt:.1f} s (limit 30)",
    )


def test_criterion_03_growth_and_full_scale(capsys):
    checked = 0
    for cfg in grid_configs():
        taps = fir_coefficients(cfg)
        assert max_register_growth(cfg) == sum(taps)
        n_in = 16 * (len(taps) + cfg.decim_r)
        half = 1 << (cfg.input_width - 1)
        for const in (half - 1, -half):
            x = FixedSequence([const] * n_in, cfg.input_width)
            got = cic_process(cfg, None, x)
            want = fir_decimate(taps, cfg.decim_r, x)
            assert got.samples == want.samples
        checked += 1
    report(capsys, 3, True, f"growth formula and full-scale agreement on {checked} configs")


def test_criterion_04_published_word_widths(capsys):
    code, out = _run_cli(capsys, "design", "--n", "5", "--r", "16", "--bin", "5")
    assert code == 0 and "total_width=25" in out
    code, out = _run_cli(
        capsys, "design", "--n", "5", "--r", "8", "--bin", "5", "--arch", "nonrec"
    )
    assert code == 0 and "output_width=20" in out
    code, out = _run_cli(capsys, "design", "--n", "5", "--r", "8", "--bin", "5")
    assert code == 0 and "total_width=20" in out
    report(capsys, 4, True, "design reports 25 bits (r=16 n=5 bin=5) and 20 bits (r=8 n=5 bin=5)")


def _run_cli(capsys, *argv):
    code = cli_main(list(argv))
    return code, capsys.readouterr().out


def test_criterion_05_truncation_error_within_bound(capsys):
    cfg = FilterConfig(5, 1, 16, 5)
    plan = cic_truncation_plan(cfg, (25, 22, 20, 18, 16))
    bound = truncation_error_bound(cfg, plan)
    shift = plan.total_truncation
    rng = np.random.default_rng(SEED + 2)
    x = rand_input(rng, 100_000, 5)
    trunc = cic_process(cfg, plan, x)
    full = cic_process(cfg, None, x)
    worst = max(
        abs(t - (f >> shift)) for t, f in zip(trunc.samples, full.samples)
    )
    violations = sum(
        1 for t, f in zip(trunc.samples, full.samples) if abs(t - (f >> shift)) > bound
    )
    report(
        capsys, 5, violations == 0,
        f"{len(trunc)} truncated outputs, worst error {worst} <= bound {bound}, "
        f"{violations} violations",
    )


def test_criterion_06_adder_equivalence_and_depth(capsys):
    t0 = time.perf_counter()
    adder = Mcla(8)
    cases = 0
    for cin in (0, 1):
        for a in range(256):
            for b in range(256):
                s, c = adder.add(a, b, cin)
                ref = a + b + cin
                assert s == ref & 0xFF and c == ref >> 8
                cases += 1
    assert cases == 131072
    rng = np.random.default_rng(SEED + 3)
    random_cases = 0
    per_width = 1 << 18
    for width in (12, 16, 20, 24, 28):
        a = rng.integers(0, 1 << width, size=per_width, dtype=np.int64)
        b = rng.integers(0, 1 << width, size=per_width, dtype=np.int64)
        cin = rng.integers(0, 2, size=per_width, dtype=np.int64)
        s, c = mcla_add_many(a, b, cin, width)
        ref = a + b + cin
        assert np.array_equal(s, ref & ((1 << width) - 1))
        assert np.array_equal(c, ref >> width)
        random_cases += per_width
    assert random_cases >= 1_000_000
    for w in range(8, 65):
        assert critical_path_gates(adder_width(w), "mcla") < critical_path_gates(w, "ripple")
    dt = time.perf_counter() - t0
    report(
        capsys, 6, dt < 10.0,
        f"131072 exhaustive + {random_cases} random cases exact, depth ordering "
        f"holds for widths 8..64, {dt:.1f} s (limit 10)",
    )


def test_criterion_07_pipeline_shifted_equivalence(capsys):
    rng = np.random.default_rng(SEED + 4)
    n_samples = 20_000
    checked = 0
    for cfg in grid_configs():
        x = rand_input(rng, n_samples, cfg.input_width)
        base = cic_process(cfg, None, x)
        piped = PipelinedFilter(CicFilter(cfg)).process(x)
        lat = cfg.order_n
        assert piped.samples == (0,) * lat + base.samples[: len(base) - lat]
        checked += 1
        if cfg.diff_delay_m == 1 and (cfg.decim_r & (cfg.decim_r - 1)) == 0:
            nr_cfg = FilterConfig(
                cfg.order_n, 1, cfg.decim_r, cfg.input_width, arch="nonrec"
            )
            nr = NonRecFilter(nr_cfg)
            lat = len(nr.pipeline_boundaries())
            base = nonrec_process(nr_cfg, x)
            piped = PipelinedFilter(nr).process(x)
            assert piped.samples == (0,) * lat + base.samples[: len(base) - lat]
            checked += 1
    report(capsys, 7, True, f"shifted equivalence exact on {checked} pipelined runs")


def test_criterion_08_clock_trend(capsys):
    rows = clock_table((8, 16, 32, 64), 5, 5, peak_hz=90e6)
    cic = [hz for arch, *_, hz in rows if arch == "cic"]
    nonrec = [hz for arch, *_, hz in rows if arch == "nonrec"]
    assert len(cic) == 4 and len(nonrec) == 4
    strictly_down = all(a > b for a, b in zip(cic, cic[1:]))
    constant = max(nonrec) - min(nonrec) == 0.0
    peak = max(max(cic), max(nonrec))
    pinned = math.isclose(peak, 90e6, rel_tol=1e-12)
    report(
        capsys, 8, strictly_down and constant and pinned,
        f"cic clocks {['%.1f' % (h / 1e6) for h in cic]} MHz strictly decreasing, "
        f"nonrec constant {nonrec[0] / 1e6:.1f} MHz, peak pinned to 90 MHz",
    )


def test_criterion_09_response_closed_form_vs_fft(capsys):
    cfg = FilterConfig(5, 1, 16, 5)
    fs = 6.144e6
    n_points = 4096
    points = response_sweep(cfg, fs, n_points)
    taps = np.array(fir_coefficients(cfg), dtype=float)
    nfft = 2 * (n_points - 1)
    spectrum = np.abs(np.fft.rfft(taps, nfft))[:n_points]
    closed = np.array([p.magnitude for p in points])
    rel = float(np.max(np.abs(closed - spectrum)) / max_gain(cfg))
    db = np.array([p.magnitude_db for p in points])
    freqs = np.array([p.freq_hz for p in points])
    null_minima = []
    for mult in range(1, 9):
        k = int(round(mult * 384e3 / (freqs[1] - freqs[0])))
        lo, hi = max(k - 3, 0), min(k + 4, n_points)
        null_minima.append(float(db[lo:hi].min()))
    worst_null = max(null_minima)
    ok = rel < 1e-9 and worst_null < -100.0
    report(
        capsys, 9, ok,
        f"closed form vs FFT max rel err {rel:.2e} (< 1e-9), "
        f"null grid minima all below -100 dB (worst {worst_null:.0f} dB)",
    )


def test_criterion_10_snr_improvement_and_meter_truth(capsys):
    fs = 6.144e6
    r = 16
    n_mod = 1 << 17
    fout = fs / r
    n_out = n_mod // r
    tone = (fout / n_out) * 213  # exact analysis bin
    bits = sigma_delta_source(tone, 0.5, fs, n_mod)
    cfg = FilterConfig(5, 1, r, 2, arch="cic")
    comb = CicFilter(cfg).process(bits)
    dropped = FixedSequence(bits.samples[::r], bits.width)
    band = fout / 2.0
    snr_comb = measure_snr(comb, fout, tone, band).snr_db
    snr_drop = measure_snr(dropped, fout, tone, band).snr_db
    gain = snr_comb - snr_drop

    rng = np.random.default_rng(SEED + 5)
    n = 1 << 14
    fs2 = 48_000.0
    tone2 = (fs2 / n) * 1000
    amp, sigma = 0.5, 1e-3
    t = np.arange(n) / fs2
    x = amp * np.sin(2.0 * math.pi * tone2 * t) + rng.normal(0.0, sigma, n)
    truth = 10.0 * math.log10((amp * amp / 2.0) / (sigma * sigma))
    measured = measure_snr(x, fs2, tone2, fs2 / 2.0).snr_db
    meter_err = abs(measured - truth)

    ok = gain >= 20.0 and meter_err <= 1.0
    report(
        capsys, 10, ok,
        f"comb {snr_comb:.1f} dB vs dropped {snr_drop:.1f} dB "
        f"(+{gain:.1f} dB, need >= 20), meter within {meter_err:.2f} dB of "
        f"analytic truth (limit 1.00)",
    )
