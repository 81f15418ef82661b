"""In-memory span tracer that wraps combdec's public entry points in place.

Only the traced pass of a `--trace 1` run installs it, and it restores every
binding it replaced before the run ends, so untraced passes execute combdec
exactly as shipped.

Each wrapped call records a span (name, start, end, parent id, counts).  The
per-sample callables `CicFilter.push` and `Mcla.add` would drown in span
records, so they keep a call count and a self time per enclosing span instead.
A layer's self time is its spans' duration minus the part covered by child
spans and by hot calls of another layer.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

_now = time.perf_counter
_MISSING = object()


def _arg(args, kwargs, index, name):
    if len(args) > index:
        return args[index]
    return kwargs[name]


def _fixedseq_counts(args, kwargs, result):
    return {"samples": len(args[0])}


def _input_counts(args, kwargs, result):
    return {"samples": len(_arg(args, kwargs, 1, "input"))}


def _read_counts(args, kwargs, result):
    path = _arg(args, kwargs, 0, "path")
    fmt = args[2] if len(args) > 2 else kwargs.get("fmt")
    return {"samples": len(result), "bytes": os.path.getsize(path),
            "binary": int(fmt == "binary")}


def _write_counts(args, kwargs, result):
    return {
        "samples": len(_arg(args, kwargs, 1, "seq")),
        "bytes": os.path.getsize(_arg(args, kwargs, 0, "path")),
    }


def _decimate_counts(args, kwargs, result):
    return {"samples": len(_arg(args, kwargs, 2, "input"))}


def _lanes(args, kwargs, result):
    a = _arg(args, kwargs, 0, "a")
    b = _arg(args, kwargs, 1, "b")
    return {"lanes": int(np.broadcast(np.asarray(a), np.asarray(b)).size)}


# (module, class, attribute, span name, counts).  A counts of None on a
# class attribute marks a hot per-sample callable.
METHOD_TARGETS = (
    ("fixedpoint", "FixedSequence", "__post_init__", "fixedpoint.construct", _fixedseq_counts),
    ("cic", "CicFilter", "process", "cic.process", _input_counts),
    ("cic", "CicFilter", "push", "cic.push", None),
    ("nonrec", "NonRecFilter", "process", "nonrec.process", _input_counts),
    ("nonrec", "NonRecStage", "process", "nonrec.stage", _input_counts),
    ("pipeline", "PipelinedFilter", "process", "pipeline.process", _input_counts),
    ("mcla", "Mcla", "add", "mcla.add", None),
)

# (module, function, span name, counts).  Rebound under every name that any
# combdec module binds it to, since `cli` imports most of these by name.
FUNCTION_TARGETS = (
    ("cli", "main", "cli.main", None),
    ("sampleio", "read_samples", "sampleio.read", _read_counts),
    ("sampleio", "write_samples", "sampleio.write", _write_counts),
    ("oracle", "fir_coefficients", "oracle.coeffs", None),
    ("oracle", "fir_decimate", "oracle.decimate", _decimate_counts),
    ("params", "full_precision_plan", "params.plan", None),
    ("params", "cic_truncation_plan", "params.plan", None),
    ("params", "nonrec_width_schedule", "params.plan", None),
    ("mcla", "mcla_add_many", "mcla.add_many", _lanes),
)


class Tracer:
    """Spans and hot-call counters, kept in memory until `dump`."""

    def __init__(self):
        self.spans = []  # [id, parent id, name, start, end, counts]
        self.hot = {}  # (parent span id, name) -> [calls, self seconds]
        self.active = False
        self._stack = [0]  # 0 is the implicit root
        self._hot_nested = 0.0
        self._patches = []

    # -- recording -----------------------------------------------------

    def open(self, name, counts=None):
        rec = [len(self.spans) + 1, self._stack[-1], name, _now(), None, counts or {}]
        self.spans.append(rec)
        self._stack.append(rec[0])
        return rec

    def close(self, rec):
        rec[4] = _now()
        self._stack.pop()

    def _span_wrapper(self, fn, name, counts):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            rec = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(rec)
            if counts is not None:
                rec[5] = counts(args, kwargs, result)
            return result

        return wrapper

    def _hot_wrapper(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            outer = tracer._hot_nested
            tracer._hot_nested = 0.0
            t0 = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _now() - t0
                key = (tracer._stack[-1], name)
                acc = tracer.hot.get(key)
                if acc is None:
                    acc = tracer.hot[key] = [0, 0.0]
                acc[0] += 1
                acc[1] += dt - tracer._hot_nested
                tracer._hot_nested = outer + dt

        return wrapper

    # -- patching ------------------------------------------------------

    def install(self, package):
        """Wrap the public entry points of `package` (the combdec module)."""
        for mod_name, cls_name, attr, name, counts in METHOD_TARGETS:
            cls = getattr(getattr(package, mod_name, None), cls_name, None)
            fn = getattr(cls, attr, None)
            if fn is None:
                continue
            if counts is None:
                wrapper = self._hot_wrapper(fn, name)
            else:
                wrapper = self._span_wrapper(fn, name, counts)
            self._patches.append((cls, attr, cls.__dict__.get(attr, _MISSING)))
            setattr(cls, attr, wrapper)
        modules = [
            m for key, m in sys.modules.items()
            if key == package.__name__ or key.startswith(package.__name__ + ".")
        ]
        for mod_name, fn_name, name, counts in FUNCTION_TARGETS:
            fn = getattr(getattr(package, mod_name, None), fn_name, None)
            if fn is None:
                continue
            wrapper = self._span_wrapper(fn, name, counts)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)

    def restore(self):
        self.active = False
        for owner, attr, orig in reversed(self._patches):
            if orig is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, orig)
        self._patches.clear()

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(
                {
                    "spans": self.spans,
                    "hot": [[sid, name, n, t] for (sid, name), (n, t) in self.hot.items()],
                },
                fh,
            )

    # -- derivation ----------------------------------------------------

    def layer_metrics(self, input_samples, overhead_ratio):
        """Per-layer figures from the recorded spans; see bench/README.md."""
        covered = defaultdict(float)
        by_id = {}
        for rec in self.spans:
            by_id[rec[0]] = rec
            covered[rec[1]] += rec[4] - rec[3]
        for (sid, _), (_, t) in self.hot.items():
            covered[sid] += t
        self_s = defaultdict(float)
        calls = defaultdict(int)
        sums = defaultdict(int)
        for sid, _, name, t0, t1, counts in self.spans:
            self_s[name] += (t1 - t0) - covered[sid]
            calls[name] += 1
            for key, value in counts.items():
                sums[name, key] += value
        top_pushes = 0
        for (sid, name), (n, t) in self.hot.items():
            self_s[name] += t
            calls[name] += n
            if name == "cic.push" and (sid == 0 or by_id[sid][2] != "cic.process"):
                top_pushes += n

        def per(num, den, scale=1.0):
            return num / den * scale if den else 0.0

        cic_s = self_s["cic.process"] + self_s["cic.push"]
        cic_in = sums["cic.process", "samples"] + top_pushes
        nonrec_s = self_s["nonrec.process"] + self_s["nonrec.stage"]
        nonrec_in = sums["nonrec.process", "samples"]
        lanes = sums["mcla.add_many", "lanes"]
        return {
            "cli.self_ms": (per(self_s["cli.main"], calls["cli.main"], 1e3), "ms"),
            "sampleio.read_s": (self_s["sampleio.read"], "s"),
            "sampleio.write_s": (self_s["sampleio.write"], "s"),
            "sampleio.read_ns_per_sample": (
                per(self_s["sampleio.read"], sums["sampleio.read", "samples"], 1e9), "ns/sample"),
            "sampleio.write_ns_per_sample": (
                per(self_s["sampleio.write"], sums["sampleio.write", "samples"], 1e9), "ns/sample"),
            "sampleio.bytes_read": (sums["sampleio.read", "bytes"], "bytes"),
            "sampleio.bytes_written": (sums["sampleio.write", "bytes"], "bytes"),
            "fixedpoint.construct_s": (self_s["fixedpoint.construct"], "s"),
            "fixedpoint.constructs": (calls["fixedpoint.construct"], "count"),
            "fixedpoint.samples_validated": (sums["fixedpoint.construct", "samples"], "count"),
            "fixedpoint.validations_per_input_sample": (
                per(sums["fixedpoint.construct", "samples"], input_samples), "ratio"),
            "params.plan_s": (self_s["params.plan"], "s"),
            "params.plans": (calls["params.plan"], "count"),
            "cic.process_s": (cic_s, "s"),
            "cic.process_calls": (calls["cic.process"], "count"),
            "cic.samples_in": (cic_in, "count"),
            "cic.ns_per_sample": (per(cic_s, cic_in, 1e9), "ns/sample"),
            "cic.push_calls": (calls["cic.push"], "count"),
            "cic.scalar_share": (per(calls["cic.push"], cic_in), "ratio"),
            "nonrec.process_s": (nonrec_s, "s"),
            "nonrec.stage_s": (self_s["nonrec.stage"], "s"),
            "nonrec.stage_calls": (calls["nonrec.stage"], "count"),
            "nonrec.samples_in": (nonrec_in, "count"),
            "nonrec.ns_per_sample": (per(nonrec_s, nonrec_in, 1e9), "ns/sample"),
            "pipeline.process_s": (self_s["pipeline.process"], "s"),
            "pipeline.process_calls": (calls["pipeline.process"], "count"),
            "oracle.coeffs_s": (self_s["oracle.coeffs"], "s"),
            "oracle.decimate_s": (self_s["oracle.decimate"], "s"),
            "oracle.decimate_calls": (calls["oracle.decimate"], "count"),
            "oracle.ns_per_sample": (
                per(self_s["oracle.decimate"], sums["oracle.decimate", "samples"], 1e9),
                "ns/sample"),
            "mcla.add_calls": (calls["mcla.add"], "count"),
            "mcla.add_s": (self_s["mcla.add"], "s"),
            "mcla.add_many_lanes": (lanes, "count"),
            "mcla.scalar_share": (per(calls["mcla.add"], calls["mcla.add"] + lanes), "ratio"),
            "trace.overhead_ratio": (overhead_ratio, "ratio"),
        }
