"""Reference FIR model of the comb decimator.

The whole cascade, recursive or not, is equivalent to an FIR filter whose
taps are a boxcar of length R*M convolved with itself N times, followed by
keeping every R-th sample of the full-rate convolution (phases 0, R, 2R,
... counted from the first input sample).  This module computes that
directly, in exact integer arithmetic, so the streaming implementations
have something independent to be compared against.

The arithmetic runs on int64 arrays when a worst-case bound proves the
values fit, otherwise on object arrays of Python integers, which carry
arbitrary precision.
"""

from __future__ import annotations

import numpy as np

from .fixedpoint import FixedSequence
from .params import FilterConfig, ceil_log2

_INT64_SAFE = 1 << 62


def convolve_ints(a, b):
    """Full convolution of two integer sequences, exact."""
    la, lb = len(a), len(b)
    out = [0] * (la + lb - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def fir_coefficients(config: FilterConfig) -> tuple:
    """Taps of the equivalent FIR: ones(R*M) self-convolved N times.

    Length N*(R*M - 1) + 1, symmetric, all positive, summing to (R*M)**N.
    """
    rm = config.decim_r * config.diff_delay_m
    taps = [1] * rm
    out = [1]
    for _ in range(config.order_n):
        out = convolve_ints(out, taps)
    return tuple(out)


def dropped_sample_coefficients(config: FilterConfig, integrators_done: int) -> tuple:
    """Taps of the path from integrator stage output to the filter output.

    After `integrators_done` of the N integrators, the remaining transfer
    is (N - integrators_done) boxcars times (1 - z**-(R*M)) per completed
    integrator.  Used to bound how far a value injected mid-cascade (a
    truncation remainder) can move the output.
    """
    n = config.order_n
    if not 1 <= integrators_done <= n:
        raise ValueError(f"integrators_done must be in 1..{n}")
    rm = config.decim_r * config.diff_delay_m
    out = [1]
    for _ in range(n - integrators_done):
        out = convolve_ints(out, [1] * rm)
    diff = [1] + [0] * (rm - 1) + [-1]
    for _ in range(integrators_done):
        out = convolve_ints(out, diff)
    return tuple(out)


def fir_decimate(coeffs, decim_r: int, input: FixedSequence) -> FixedSequence:
    """Convolve with coeffs and keep full-rate indices 0, R, 2R, ...

    output[j] = sum_k coeffs[k] * input[j*R - k] with zero padding before
    the first sample, exactly one output per R inputs (no tail flush; pad
    the input with zeros to see the full response die out).  Exact
    arbitrary-precision arithmetic; the declared output width is sized
    from the tap sum so nothing wraps.
    """
    if decim_r < 1:
        raise ValueError(f"decim_r must be >= 1, got {decim_r}")
    coeffs = [int(c) for c in coeffs]
    if not coeffs:
        raise ValueError("need at least one coefficient")
    gain = sum(abs(c) for c in coeffs)
    out_width = input.width + (ceil_log2(gain) if gain >= 1 else 0)
    x = input.array
    n_out = (len(x) + decim_r - 1) // decim_r
    peak = max(-int(x.min()), int(x.max())) if len(x) else 0
    dtype = np.int64 if max(peak, 1) * gain < _INT64_SAFE else object
    # one pass per tap over the kept outputs: padded[j*R + lc-1 - k] = x[j*R - k]
    lc = len(coeffs)
    padded = np.concatenate([np.zeros(lc - 1, dtype), x.astype(dtype, copy=False)])
    acc = np.zeros(n_out, dtype)
    for k, c in enumerate(coeffs):
        acc += c * padded[lc - 1 - k :: decim_r][:n_out]
    return FixedSequence._trusted(acc, out_width)
