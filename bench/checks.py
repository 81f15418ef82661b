"""Bit-exact output checks, run outside every timed region.

The reference is combdec's arbitrary-precision FIR oracle,
`fir_decimate(fir_coefficients(cfg), r, x)`.  Full-precision outputs must
equal it; pipelined outputs equal it delayed by `latency_cycles` zeros;
truncated outputs must lie within `truncation_error_bound` of the oracle
shifted right by the plan's dropped bits, and equal a one-block `process` of
the same input.  Output files are parsed here, independently of
`combdec.sampleio`.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np

_HEADER_RE = re.compile(rb"^width=(\d+) count=(\d+)\n")


def parse_samples(data: bytes):
    """(width or None, list of ints) from a text or binary sample file."""
    m = _HEADER_RE.match(data)
    if not m:
        return None, [int(tok) for tok in data.split()]
    width, count = int(m.group(1)), int(m.group(2))
    nb = (width + 7) // 8
    payload = data[m.end():]
    if len(payload) != nb * count:
        raise ValueError(f"payload holds {len(payload)} bytes, header says {nb * count}")
    if width <= 62:
        raw = np.zeros((count, 8), dtype=np.uint8)
        raw[:, :nb] = np.frombuffer(payload, dtype=np.uint8).reshape(count, nb)
        u = raw.view("<u8").ravel().astype(np.int64)
        sign = np.int64(1) << np.int64(width - 1)
        values = ((u & ((sign << np.int64(1)) - 1)) ^ sign) - sign
        return width, values.tolist()
    values = []
    for i in range(count):
        v = int.from_bytes(payload[i * nb:(i + 1) * nb], "little")
        values.append(v - (1 << width) if v >> (width - 1) else v)
    return width, values


class Expectation:
    """What one output sequence must be, given the oracle for its input.

    kind "full": equal to the oracle.  "pipelined": the oracle delayed by
    `latency` leading zeros.  "truncated": equal to `block` (the one-block
    result) and within `bound` of the oracle shifted right by `shift`.
    """

    def __init__(self, kind, width, oracle, latency=0, block=None, shift=0, bound=0):
        self.kind = kind
        self.width = width
        self.oracle = list(oracle)
        self.latency = latency
        self.block = None if block is None else list(block)
        self.shift = shift
        self.bound = bound

    def expected(self):
        if self.kind == "pipelined":
            lat = self.latency
            return ([0] * lat + self.oracle)[: len(self.oracle)]
        if self.kind == "truncated":
            return self.block
        return self.oracle

    def bad_positions(self, values):
        """Indices of `values` that break the expectation (all, on length mismatch)."""
        want = self.expected()
        if len(values) != len(want):
            return list(range(max(len(values), 1)))
        bad = [i for i, (a, b) in enumerate(zip(values, want)) if a != b]
        if self.kind == "truncated":
            s, bound = self.shift, self.bound
            bad += [
                i for i, (t, f) in enumerate(zip(values, self.oracle))
                if abs(t - (f >> s)) > bound
            ]
        return sorted(set(bad))

    def matches_file(self, data: bytes) -> bool:
        try:
            width, values = parse_samples(data)
        except ValueError:
            return False
        if width is not None and width != self.width:
            return False
        return not self.bad_positions(values)


class StreamChecker:
    """Checks a long-lived filter's output one segment of its stream at a time.

    Keeps the tail of the input stream so the oracle for a segment sees the
    samples its taps reach back to; the stream starts from zero state, which
    the oracle's zero padding reproduces.
    """

    def __init__(self, cfg, kind, plan=None, latency=0):
        from combdec.cic import CicFilter, truncation_error_bound
        from combdec.oracle import fir_coefficients

        self.cfg = cfg
        self.kind = kind
        self.taps = fir_coefficients(cfg)
        self.latency = latency
        self.hist = np.zeros(0, dtype=np.int64)
        self.keep = len(self.taps) - 1 + cfg.decim_r
        self.pos = 0
        self.prev = [0] * latency
        # segments recur with the same history, and so do their oracle outputs
        self.cache = {}
        self.shadow = None
        self.shift = self.bound = 0
        if kind == "truncated":
            self.shadow = CicFilter(cfg, plan)
            self.shift = plan.total_truncation
            self.bound = truncation_error_bound(cfg, plan)

    def bad_positions(self, xs: np.ndarray, ys: list):
        """Indices of `ys` (outputs emitted while consuming xs) that are wrong."""
        from combdec.fixedpoint import FixedSequence
        from combdec.oracle import fir_decimate

        r = self.cfg.decim_r
        s = self.pos
        g0 = max(0, s - (len(self.taps) - 1))
        g0 -= g0 % r
        buf = np.concatenate([self.hist[len(self.hist) - (s - g0):], xs])
        first = -(-s // r) - g0 // r
        last = -(-(s + len(xs)) // r) - g0 // r
        key = (hashlib.sha1(buf.tobytes()).digest(), first, last)
        oracle = self.cache.get(key)
        if oracle is None:
            full = fir_decimate(self.taps, r, FixedSequence(buf.tolist(), self.cfg.input_width))
            oracle = self.cache[key] = list(full.samples[first:last])
        block = None
        if self.kind == "pipelined":
            joined = self.prev + oracle
            self.prev = joined[len(joined) - self.latency:] if self.latency else []
            oracle = joined[: len(oracle)]
            kind = "full"
        else:
            kind = self.kind
        if self.shadow is not None:
            block = list(self.shadow.process(FixedSequence(xs.tolist(), self.cfg.input_width)))
        exp = Expectation(kind, None, oracle, block=block, shift=self.shift, bound=self.bound)
        self.pos += len(xs)
        self.hist = np.concatenate([self.hist, xs])[-self.keep:]
        return exp.bad_positions(ys)
