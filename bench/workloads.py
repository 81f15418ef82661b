"""Seeded inputs and timed operations for the three benchmark workloads.

Each workload is a closed loop: one caller, one thread, the next operation
starts when the previous one returns.  Everything an operation reads is
generated from the seed before timing starts.  An operation has

- `prepare()`: untimed, clears what a previous pass left behind;
- `run()`: the timed call into combdec;
- `settle(digest)`: untimed, returns a digest of the operation's output when
  asked for one.

`Workload.check(ops, session)` then says, per operation, whether its output
was bit-exact (see checks.py).
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

from checks import Expectation, StreamChecker

TRUNC_WIDTHS = "25,22,20,18,16"


def mixed_values(rng, n, width):
    """n samples: full-scale uniform (half), the most negative value held
    constant (a quarter, worst-case register growth) and sparse full-scale
    impulses (a quarter), the three runs in seeded order."""
    lo, hi = -(1 << (width - 1)), (1 << (width - 1)) - 1
    q = n // 4
    sparse = np.zeros(q, dtype=np.int64)
    hits = rng.random(q) < 1 / 32
    sparse[hits] = rng.choice((lo, hi), size=int(hits.sum()))
    parts = [rng.integers(lo, hi + 1, size=n - 2 * q), np.full(q, lo), sparse]
    return np.concatenate([parts[i] for i in rng.permutation(3)]).astype(np.int64)


def log_grid(lo_exp, hi_exp, k):
    """k sizes at the centres of k equal strata of log2(size)."""
    return [round(2 ** (lo_exp + (hi_exp - lo_exp) * (i + 0.5) / k)) for i in range(k)]


def write_input(path, x, width, fmt):
    if fmt == "text":
        with open(path, "w") as fh:
            fh.write("\n".join(map(str, x.tolist())) + "\n")
        return
    nb = (width + 7) // 8
    u = (x & ((1 << width) - 1)).astype("<u8")
    with open(path, "wb") as fh:
        fh.write(f"width={width} count={len(x)}\n".encode("ascii"))
        fh.write(u.view(np.uint8).reshape(-1, 8)[:, :nb].tobytes())


def config_argv(n, r, bits, m=1, arch="cic"):
    argv = ["--n", str(n), "--m", str(m), "--r", str(r), "--bin", str(bits)]
    return argv + (["--arch", arch] if arch != "cic" else [])


class FileOp:
    """`combdec simulate` from file to file, then `oracle --compare` on its
    output when the oracle applies; both in-process through `cli.main`."""

    def __init__(self, cli, config, sim_argv, oracle_argv, out_path, samples, expect):
        self.cli = cli
        self.config = config  # index into the workload's configs
        self.sim_argv = sim_argv
        self.oracle_argv = oracle_argv
        self.out_path = out_path
        self.samples = samples
        self.expect = expect
        self.ok = False

    def prepare(self):
        # a stale output from an earlier pass must never pass the check
        for path in (self.out_path, self.out_path + ".manifest"):
            if os.path.exists(path):
                os.remove(path)
        self.rc = self.rc_oracle = None

    def run(self):
        self.rc = self.cli.main(self.sim_argv)
        self.rc_oracle = self.cli.main(self.oracle_argv) if self.oracle_argv else 0

    def settle(self, digest):
        try:
            with open(self.out_path, "rb") as fh:
                data = fh.read()
        except OSError:
            data = b""
        self.ok = self.rc == 0 and self.rc_oracle == 0 and self.expect.matches_file(data)
        return hashlib.sha256(data).hexdigest() if digest else None


class FileWorkload:
    """Shared driver for the two file-to-file workloads.

    The operations are the cells (config, formats) times `per_cell` sizes.
    The sizes are a log-uniform grid from 2**size_exps[0] to
    2**size_exps[1], one size per stratum and every stratum used once, and
    each cell gets sizes spread over the whole range.  Every seed gets the
    same sizes, so the mix of small and large operations does not move
    from seed to seed, and the operation times have no gap for a
    percentile to fall into.  The seed draws the values and the order.
    """

    name = ""
    size_exps = (0, 0)
    per_cell = 0
    formats = ()  # (input format, output format) pairs
    warmup_size = 0
    block = 1  # operations between host-speed samples, and per traced block

    def __init__(self, combdec, workdir, seed):
        self.cli = combdec.cli
        self.workdir = workdir
        self.seed = seed
        self.items = []
        self.warmups = []

    # subclasses: configs() returns (label, cfg, simulate flags, widths, use oracle)

    def _item(self, c, x, in_fmt, out_fmt, tag, checked=True):
        from combdec.cic import CicFilter, cic_process, truncation_error_bound
        from combdec.fixedpoint import FixedSequence
        from combdec.oracle import fir_coefficients, fir_decimate
        from combdec.params import cic_truncation_plan, full_precision_plan
        from combdec.pipeline import PipelinedFilter

        _, cfg, flags, widths, use_oracle = self.configs()[c]
        in_path = os.path.join(self.workdir, f"{tag}.in")
        out_path = os.path.join(self.workdir, f"{tag}.out")
        write_input(in_path, x, cfg.input_width, in_fmt)
        # warm-ups are not checked, and must not run combdec before they are timed
        expect = None
        if checked:
            seq = FixedSequence(x.tolist(), cfg.input_width)
            oracle = fir_decimate(fir_coefficients(cfg), cfg.decim_r, seq)
            expect = Expectation("full", oracle.width, oracle.samples)
        if checked and widths:
            plan = cic_truncation_plan(cfg, [int(w) for w in widths.split(",")])
            expect = Expectation(
                "truncated", plan.stage_widths[-1], oracle.samples,
                block=cic_process(cfg, plan, seq).samples, shift=plan.total_truncation,
                bound=truncation_error_bound(cfg, plan))
        elif checked and "--pipelined" in flags:
            base = CicFilter(cfg, full_precision_plan(cfg))
            expect = Expectation("pipelined", base.output_width, oracle.samples,
                                 latency=PipelinedFilter(base).latency_cycles)
        dims = (cfg.order_n, cfg.decim_r, cfg.input_width, cfg.diff_delay_m)
        sim = ["simulate", *config_argv(*dims, cfg.arch), *flags, "--in", in_path,
               "--out", out_path, "--format", in_fmt, "--out-format", out_fmt]
        if widths:
            sim += ["--widths", widths]
        orc = None
        if use_oracle:
            orc = ["oracle", *config_argv(*dims), "--in", in_path, "--format", in_fmt,
                   "--compare", out_path]
        return FileOp(self.cli, c, sim, orc, out_path, len(x), expect)

    def generate(self):
        rng = np.random.default_rng([self.seed, 1])
        configs = self.configs()
        cells = [(c, f) for c in range(len(configs)) for f in range(len(self.formats))]
        sizes = log_grid(*self.size_exps, len(cells) * self.per_cell)
        for i, size in enumerate(sizes):
            group, pos = divmod(i, len(cells))
            c, f = cells[(pos + 7 * group) % len(cells)]
            label, cfg = configs[c][:2]
            x = mixed_values(rng, size, cfg.input_width)
            self.items.append(self._item(c, x, *self.formats[f], f"{label}-{i}"))

    def generate_warmup(self):
        rng = np.random.default_rng([self.seed, 2])
        for c, (label, cfg, *_) in enumerate(self.configs()):
            x = mixed_values(rng, self.warmup_size, cfg.input_width)
            self.warmups.append(self._item(c, x, "text", "text", f"warmup-{label}", False))

    def warm_up(self):
        for op in self.warmups:
            op.prepare()
            op.run()

    def new_session(self):
        return None

    def pass_ops(self, k, session):
        order = np.random.default_rng([self.seed, 3, k]).permutation(len(self.items))
        return [self.items[i] for i in order]

    def check(self, ops, session):
        return [op.ok for op in ops]


class FileRoundtrip(FileWorkload):
    """The roadmap's end to end: simulate plus oracle compare, file to file."""

    name = "file-roundtrip"
    size_exps = (12, 18)
    per_cell = 5
    formats = (("text", "text"), ("text", "binary"), ("binary", "text"), ("binary", "binary"))
    warmup_size = 1 << 12
    trace_rate = 1 / 16  # traced-run passes per second of --seconds

    def configs(self):
        from combdec.params import FilterConfig

        cic = FilterConfig(5, 1, 16, 5)
        return (
            ("cic-r16", cic, [], None, True),
            ("cic-r16-trunc", cic, [], TRUNC_WIDTHS, False),
            ("nonrec-r8", FilterConfig(5, 1, 8, 5, arch="nonrec"), [], None, True),
            ("nonrec-r16", FilterConfig(5, 1, 16, 5, arch="nonrec"), [], None, True),
        )


class WideGate(FileWorkload):
    """The scalar fallbacks: 72-bit registers and the gate-level adder."""

    name = "wide-gate"
    size_exps = (10, 12)
    per_cell = 7
    formats = (("text", "text"),)
    warmup_size = 1 << 10
    trace_rate = 1 / 6

    def configs(self):
        from combdec.params import FilterConfig

        cic = FilterConfig(5, 1, 16, 5)
        return (
            ("wide-72", FilterConfig(8, 2, 64, 16), [], None, False),
            ("gate-cic", cic, ["--gate-model"], None, False),
            ("gate-nonrec", FilterConfig(5, 1, 8, 5, arch="nonrec"), ["--gate-model"],
             None, False),
            ("gate-pipelined", cic, ["--gate-model", "--pipelined"], None, False),
        )


class StreamOp:
    """One call on a long-lived filter: `push` for a one-sample chunk on a
    CicFilter, otherwise `process(FixedSequence(chunk, width))`."""

    def __init__(self, session, slot, chunk, xs, width, use_push, fixed_sequence):
        self.session = session
        self.slot = self.config = slot
        self.chunk = chunk
        self.xs = xs
        self.width = width
        self.use_push = use_push
        self.fixed_sequence = fixed_sequence
        self.samples = len(chunk)
        self.out = None

    def prepare(self):
        self.out = None

    def run(self):
        flt = self.session.filters[self.slot]
        if self.use_push:
            self.out = flt.push(self.chunk[0])
        else:
            self.out = flt.process(self.fixed_sequence(self.chunk, self.width))

    def outputs(self):
        if self.out is None:  # no output sample, or the call raised
            return []
        return [int(self.out)] if self.use_push else [int(v) for v in self.out]

    def settle(self, digest):
        return hashlib.sha256(repr(self.outputs()).encode()).hexdigest() if digest else None


class StreamSession:
    """The long-lived filters of one stream, and (lazily) their checkers."""

    def __init__(self, filters):
        self.filters = filters
        self.checkers = None


class StreamChunks:
    """The library in real-time use: long-lived filters fed seeded chunks."""

    name = "stream-chunks"
    chunks_per_slot = 60  # per filter per pass, one per stratum of log2(size)
    distinct_passes = 8  # passes cycle through this many seeded chunk sets
    trace_rate = 4
    block = None  # whole passes: the stream checks work pass by pass

    def __init__(self, combdec, workdir, seed):
        from combdec.params import FilterConfig

        self.seed = seed
        cic = FilterConfig(5, 1, 16, 5)
        # (label, config, truncating widths, pipelined)
        self.slots = (
            ("cic-r16", cic, None, False),
            ("cic-r16-trunc", cic, TRUNC_WIDTHS, False),
            ("nonrec-r16", FilterConfig(5, 1, 16, 5, arch="nonrec"), None, False),
            ("cic-r16-pipelined", cic, None, True),
            ("cic-n3-m2-r10", FilterConfig(3, 2, 10, 12), None, False),
        )
        self.passes = []

    def _filter(self, cfg, widths, pipelined):
        from combdec.cic import CicFilter
        from combdec.nonrec import NonRecFilter
        from combdec.params import cic_truncation_plan
        from combdec.pipeline import PipelinedFilter

        if cfg.arch == "nonrec":
            flt = NonRecFilter(cfg)
        else:
            plan = cic_truncation_plan(cfg, [int(w) for w in widths.split(",")]) \
                if widths else None
            flt = CicFilter(cfg, plan)
        return PipelinedFilter(flt) if pipelined else flt

    def _pushes(self, slot):
        _, cfg, _, pipelined = self.slots[slot]
        return cfg.arch == "cic" and not pipelined

    def generate(self):
        for p in range(self.distinct_passes):
            rng = np.random.default_rng([self.seed, 4, p])
            chunks = []
            for _, cfg, _, _ in self.slots:
                c = self.chunks_per_slot
                u = (rng.permutation(c) + rng.random(c)) / c
                sizes = np.clip((2.0 ** (12 * u)).astype(np.int64), 1, 4096)
                # a whole number of output periods per pass keeps every pass
                # at decimation phase 0, so recurring segments recur exactly
                sizes[np.argmax(sizes)] -= sizes.sum() % cfg.decim_r
                x = mixed_values(rng, int(sizes.sum()), cfg.input_width)
                bounds = np.concatenate([[0], np.cumsum(sizes)])
                chunks.append([(x[a:b].tolist(), x[a:b]) for a, b in zip(bounds, bounds[1:])])
            order = rng.permutation(np.repeat(np.arange(len(self.slots)), self.chunks_per_slot))
            taken = [0] * len(self.slots)
            plan = []
            for slot in order.tolist():
                plan.append((slot, chunks[slot][taken[slot]]))
                taken[slot] += 1
            self.passes.append(plan)

    def generate_warmup(self):
        rng = np.random.default_rng([self.seed, 5])
        self.warmups = [mixed_values(rng, 64, cfg.input_width).tolist()
                        for _, cfg, _, _ in self.slots]

    def warm_up(self):
        from combdec.fixedpoint import FixedSequence

        session = self.new_session()
        for flt, x, (_, cfg, _, _) in zip(session.filters, self.warmups, self.slots):
            flt.process(FixedSequence(x, cfg.input_width))

    def new_session(self):
        return StreamSession([self._filter(cfg, w, p) for _, cfg, w, p in self.slots])

    def pass_ops(self, k, session):
        from combdec.fixedpoint import FixedSequence

        ops = []
        for slot, (chunk, xs) in self.passes[k % self.distinct_passes]:
            width = self.slots[slot][1].input_width
            use_push = len(chunk) == 1 and self._pushes(slot)
            ops.append(StreamOp(session, slot, chunk, xs, width, use_push, FixedSequence))
        return ops

    @staticmethod
    def _checker(flt, cfg, widths, pipelined):
        if widths:
            return StreamChecker(cfg, "truncated", plan=flt.plan)
        if pipelined:
            return StreamChecker(cfg, "pipelined", latency=flt.latency_cycles)
        return StreamChecker(cfg, "full")

    def check(self, ops, session):
        if session.checkers is None:
            session.checkers = [
                self._checker(flt, cfg, widths, pipelined)
                for flt, (_, cfg, widths, pipelined) in zip(session.filters, self.slots)
            ]
        ok = [True] * len(ops)
        for slot, checker in enumerate(session.checkers):
            idx = [i for i, op in enumerate(ops) if op.slot == slot]
            if not idx:
                continue
            xs = np.concatenate([ops[i].xs for i in idx])
            ys, owner = [], []
            for i in idx:
                outs = ops[i].outputs()
                ys += outs
                owner += [i] * len(outs)
            bad = checker.bad_positions(xs, ys)
            for pos in bad:
                ok[owner[pos] if pos < len(owner) else idx[-1]] = False
        return ok


WORKLOADS = {w.name: w for w in (FileRoundtrip, StreamChunks, WideGate)}
