"""Frequency response, sigma-delta test source, and SNR measurement.

The closed-form magnitude |sin(pi f R M) / sin(pi f)|**N is evaluated in
a way that stays finite at f = 0 and at the nulls: for power-of-two R*M
the ratio factors exactly into a product of cosines with no division at
all, otherwise a small-denominator guard substitutes the analytic limit.

measure_snr integrates a Hann-windowed spectrum: the tone bin plus two
leakage bins on each side count as signal, every other bin from bin 3 up
to the band edge counts as noise (bins 0..2 are a DC guard).  Powers are
normalized so a full-scale unit sine reports 10*log10(1/2); a Parseval
identity is checked on every call and a violation raises InternalError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fixedpoint import FixedSequence
from .params import ConfigError, FilterConfig, is_power_of_two, max_register_growth

DB_FLOOR = -400.0

_SIN_GUARD = 1e-12
_TINY_POWER = 1e-300


class InternalError(RuntimeError):
    """A computation violated one of its own invariants."""


@dataclass(frozen=True)
class ResponsePoint:
    freq_hz: float
    magnitude: float
    magnitude_db: float


@dataclass(frozen=True)
class SnrReport:
    signal_power_db: float
    noise_power_db: float
    snr_db: float
    band_hz: float


def magnitude_response(config: FilterConfig, f: float) -> float:
    """|H| at normalized frequency f (cycles per input sample), f in [0, 0.5].

    Equals |sin(pi f R M) / sin(pi f)|**N with the removable singularity
    at f = 0 filled by the limit (R*M)**N.
    """
    if not 0.0 <= f <= 0.5:
        raise ConfigError(f"normalized frequency must be in [0, 0.5], got {f}")
    rm = config.decim_r * config.diff_delay_m
    n = config.order_n
    if rm == 1:
        return 1.0
    if is_power_of_two(rm):
        # sin(2**S x) / sin(x) = prod 2 cos(2**i x): exact, no division
        ratio = 1.0
        for i in range(rm.bit_length() - 1):
            ratio *= 2.0 * math.cos(math.pi * f * (1 << i))
        return abs(ratio) ** n
    s = math.sin(math.pi * f)
    if abs(s) < _SIN_GUARD:
        return float(rm) ** n
    return abs(math.sin(math.pi * f * rm) / s) ** n


def response_sweep(config: FilterConfig, fs_hz: float, n_points: int):
    """Uniform grid of n_points over [0, fs/2], dB normalized to 0 at DC.

    The dB column is floored at DB_FLOOR so exact nulls stay finite.
    """
    if not fs_hz > 0:
        raise ConfigError(f"fs_hz must be > 0, got {fs_hz}")
    if n_points < 2:
        raise ConfigError(f"n_points must be >= 2, got {n_points}")
    dc = float(max_register_growth(config))
    floor_mag = 10.0 ** (DB_FLOOR / 20.0)
    points = []
    for k in range(n_points):
        freq = k * (fs_hz / 2.0) / (n_points - 1)
        mag = magnitude_response(config, freq / fs_hz)
        db = 20.0 * math.log10(max(mag / dc, floor_mag))
        points.append(ResponsePoint(freq, mag, db))
    return points


def sigma_delta_source(tone_hz: float, amplitude: float, fs_hz: float,
                       n_samples: int) -> FixedSequence:
    """Deterministic second-order error-feedback modulator, samples +-1.

    The quantization error is fed back through a double zero at DC
    (u[n] = x[n] + 2 e[n-1] - e[n-2]), pushing the noise toward high
    frequencies where the decimation filter removes it.  Two-level
    output is returned at width 2 so both +1 and -1 are representable.
    """
    if not fs_hz > 0:
        raise ConfigError(f"fs_hz must be > 0, got {fs_hz}")
    if not 0.0 <= amplitude < 1.0:
        raise ConfigError(f"amplitude must be in [0, 1), got {amplitude}")
    if not 0.0 <= tone_hz < fs_hz / 2.0:
        raise ConfigError(f"tone_hz must be in [0, fs/2), got {tone_hz}")
    if n_samples < 1:
        raise ConfigError(f"n_samples must be >= 1, got {n_samples}")
    w = 2.0 * math.pi * tone_hz / fs_hz
    e1 = 0.0
    e2 = 0.0
    out = []
    sin = math.sin
    for k in range(n_samples):
        u = amplitude * sin(w * k) + 2.0 * e1 - e2
        y = 1 if u >= 0.0 else -1
        e2 = e1
        e1 = u - y
        out.append(y)
    return FixedSequence(out, 2)


def _hann(n: int):
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def measure_snr(signal, fs_hz: float, tone_hz: float, band_hz: float) -> SnrReport:
    """In-band SNR of a tone against everything else below band_hz.

    signal is a FixedSequence or any 1-D sample sequence, at least 1024
    samples.  Requires 0 < tone_hz < band_hz <= fs/2.
    """
    samples = signal.array if isinstance(signal, FixedSequence) else signal
    x = np.asarray(samples, dtype=float)
    n = x.size
    if n < 1024:
        raise ConfigError(f"need at least 1024 samples, got {n}")
    if not np.all(np.isfinite(x)):
        raise ConfigError("signal contains non-finite samples")
    if not fs_hz > 0:
        raise ConfigError(f"fs_hz must be > 0, got {fs_hz}")
    if not 0.0 < tone_hz < band_hz:
        raise ConfigError("need 0 < tone_hz < band_hz")
    if band_hz > fs_hz / 2.0 * (1.0 + 1e-12):
        raise ConfigError(f"band_hz {band_hz} exceeds Nyquist {fs_hz / 2.0}")

    w = _hann(n)
    xw = x * w
    spectrum = np.fft.rfft(xw)
    p = np.abs(spectrum) ** 2

    # Parseval: the full-spectrum bin sum must equal n * sum((x*w)**2).
    doubled = 2.0 * np.sum(p[1 : (n + 1) // 2])
    full_sum = p[0] + doubled + (p[n // 2] if n % 2 == 0 else 0.0)
    time_sum = n * float(np.sum(xw * xw))
    scale = max(abs(time_sum), _TINY_POWER)
    if abs(full_sum - time_sum) > 1e-6 * scale:
        raise InternalError(
            f"Parseval mismatch: bins {full_sum!r} vs time {time_sum!r}"
        )

    # one-sided mean-square normalization: a unit sine reports 0.5
    norm = n * float(np.sum(w * w))
    nyq_bin = p.size - 1
    one_sided = p * 2.0
    one_sided[0] = p[0]
    if n % 2 == 0:
        one_sided[nyq_bin] = p[nyq_bin]

    tone_bin = int(round(tone_hz / fs_hz * n))
    if tone_bin > nyq_bin:
        raise ConfigError("tone_hz lands above the representable spectrum")
    band_bin = min(int(band_hz / fs_hz * n), nyq_bin)
    sig_lo = max(tone_bin - 2, 0)
    sig_hi = min(tone_bin + 2, nyq_bin)

    sig_power = float(np.sum(one_sided[sig_lo : sig_hi + 1])) / norm
    idx = np.arange(3, band_bin + 1)
    idx = idx[(idx < sig_lo) | (idx > sig_hi)]
    noise_power = float(np.sum(one_sided[idx])) / norm if idx.size else 0.0

    sig_db = 10.0 * math.log10(max(sig_power, _TINY_POWER))
    noise_db = 10.0 * math.log10(max(noise_power, _TINY_POWER))
    return SnrReport(sig_db, noise_db, sig_db - noise_db, band_hz)
