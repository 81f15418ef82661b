#!/usr/bin/env python3
"""combdec benchmark: host time of combdec end to end, and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; combdec is imported from its `src/` and
from nowhere else, so the command fails (exit code 2, no result) where
there are no sources.  Workloads, metrics and the layer-to-metric map are
described in bench/README.md.

`--trace 0` times whole passes over the workload's seeded operations until
about S seconds of operation time are measured (at least 100 operations),
checks every output bit-exact, and reports the end-to-end metrics.  Times
are scaled to a reference host speed (see hostspeed.py); the raw figures
are printed on the `#` line.  Set-up time is the median of five fresh
processes, run one at a time between passes, each importing combdec and
making one warm-up operation per config.

`--trace 1` runs a fixed number of passes, set by S, twice: untraced and
with the span tracer installed, in alternating blocks.  It checks that both
give the same output digests, and reports the per-layer metrics of the
traced side.  The spans are written to
.bench_work/trace-<workload>-seed<N>.json.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

import os

# one process, one thread: no BLAS or OpenMP pools behind numpy
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from hostspeed import REFERENCE_S, HostSpeed  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_OPS = 100  # so at least ten operations lie beyond p90
SETUP_PROBES = 5
MAX_WALL_S = 120.0  # stop adding passes past this, whatever --seconds says


class _Discard(io.TextIOBase):
    """stdout for the timed region: `cli.main` prints one line per call."""

    def write(self, s):
        return len(s)


def import_combdec():
    """Import combdec from this checkout's src/ only."""
    sys.path.insert(0, str(SRC))
    import combdec
    import combdec.cli  # noqa: F401  (the entry point the workloads call)

    if Path(combdec.__file__).resolve().parent != SRC / "combdec":
        raise ImportError(f"combdec came from {combdec.__file__}, not {SRC}")
    return combdec


def run_block(workload, ops, session, tracer=None, digests=False):
    """Time each operation; returns (times, output digests or Nones, per-op
    failed flags)."""
    times, sums, raised = [], [], []
    with contextlib.redirect_stdout(_Discard()):
        for op in ops:
            op.prepare()
            if tracer is not None:
                tracer.active = True
                rec = tracer.open("op", {"samples": op.samples, "config": op.config})
            t0 = time.perf_counter()
            try:
                op.run()
                err = False
            except Exception:
                err = True
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.close(rec)
                tracer.active = False
            if err:
                traceback.print_exc(limit=3)
            times.append(dt)
            raised.append(err)
            sums.append(op.settle(digests))
    ok = workload.check(ops, session)
    return times, sums, [r or not o for r, o in zip(raised, ok)]


def blocks(workload, ops):
    """Slices of a pass: `workload.block` operations each, or the whole pass."""
    step = workload.block or len(ops)
    return [ops[i:i + step] for i in range(0, len(ops), step)]


def probe_setup(args, workdir):
    """In a fresh process: import combdec plus one warm-up op per config.

    Returns (raw seconds, seconds at the reference host speed).
    """
    t0 = time.perf_counter()
    combdec = import_combdec()
    t_import = time.perf_counter() - t0
    workload = WORKLOADS[args.workload](combdec, str(workdir), args.seed)
    workload.generate_warmup()  # input generation is not set-up
    with contextlib.redirect_stdout(_Discard()):
        t1 = time.perf_counter()
        workload.warm_up()
        t_warm = time.perf_counter() - t1
    raw = t_import + t_warm
    speed = HostSpeed()
    return raw, raw * REFERENCE_S / statistics.median(speed.kernel_seconds() for _ in range(5))


def setup_probe(args):
    """(raw, scaled) set-up seconds measured in one fresh child process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--probe-setup"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    raw, scaled = proc.stdout.split()[-2:]
    return float(raw), float(scaled)


def prepared(args, workdir):
    combdec = import_combdec()
    workload = WORKLOADS[args.workload](combdec, str(workdir), args.seed)
    workload.generate()
    workload.generate_warmup()
    with contextlib.redirect_stdout(_Discard()):
        workload.warm_up()
    # the generated inputs stay alive all run: keep the collector off them
    gc.freeze()
    return combdec, workload


def timed_run(args, workdir):
    """Whole passes, block by block, with the host speed sampled between
    blocks; returns (correct, attempted, failed, end-to-end metrics)."""
    _, workload = prepared(args, workdir)
    speed = HostSpeed()
    session = workload.new_session()
    raw, scaled, setups = [], [], []
    samples = failed = 0
    before = speed.kernel_seconds()
    wall0 = time.perf_counter()
    k = 0
    while True:
        # set-up probes are spread over the run, between passes, so their
        # median samples the same host conditions as the timed operations
        while len(setups) < SETUP_PROBES and \
                sum(raw) >= args.seconds * len(setups) / SETUP_PROBES:
            setups.append(setup_probe(args))
        ops = workload.pass_ops(k, session)
        gc.collect()
        for block in blocks(workload, ops):
            t, _, bad = run_block(workload, block, session)
            # the host speed is sampled on both sides of every block
            after = speed.kernel_seconds()
            scale = 2 * REFERENCE_S / (before + after)
            before = after
            raw += t
            scaled += [x * scale for x in t]
            failed += sum(bad)
        samples += sum(op.samples for op in ops)
        k += 1
        if len(raw) >= MIN_OPS and sum(raw) * (k + 0.5) / k >= args.seconds:
            break
        if time.perf_counter() - wall0 > MAX_WALL_S:
            break
    while len(setups) < SETUP_PROBES:
        setups.append(setup_probe(args))
    n = len(raw)
    print(f"# {args.workload} seed={args.seed} passes={k} ops={n} "
          f"mismatch_ratio={failed / n:.6g} raw: measured_s={sum(raw):.4g} "
          f"throughput_sps={samples / sum(raw):.6g} "
          f"latency_p50_ms={statistics.median(raw) * 1e3:.6g} "
          f"latency_p90_ms={np.percentile(raw, 90) * 1e3:.6g} "
          f"setup_s={statistics.median(s for s, _ in setups):.6g} "
          f"host_scale={sum(scaled) / sum(raw):.4g}")
    metrics = {
        "throughput_sps": (samples / sum(scaled), "samples/s"),
        "latency_p50_ms": (statistics.median(scaled) * 1e3, "ms"),
        "latency_p90_ms": (float(np.percentile(scaled, 90)) * 1e3, "ms"),
        "setup_s": (statistics.median(s for _, s in setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return failed == 0, n, failed, metrics


def traced_run(combdec, workload, passes):
    """The first `passes` passes, untraced and traced, block by block.

    Untraced and traced blocks alternate, each side with its own filters, so
    host-speed drift falls on both alike; the tracer is installed for the
    traced blocks only.  Returns (correct, attempted, failed, per-layer
    metrics, tracer).
    """
    tracer = Tracer()

    @contextlib.contextmanager
    def traced():
        tracer.install(combdec)
        try:
            yield
        finally:
            tracer.restore()

    plain_session = workload.new_session()
    with traced():
        tracer.active = True
        rec = tracer.open("bench.setup")
        traced_session = workload.new_session()
        tracer.close(rec)
        tracer.active = False
    t_plain, d_plain, bad_plain, t_traced, d_traced, bad_traced = [], [], [], [], [], []
    samples = 0
    for k in range(passes):
        # file workloads hand out the same operation objects on every call,
        # so each traced block is run right after its untraced twin
        pairs = zip(blocks(workload, workload.pass_ops(k, plain_session)),
                    blocks(workload, workload.pass_ops(k, traced_session)))
        for plain, ops in pairs:
            gc.collect()
            t, d, b = run_block(workload, plain, plain_session, digests=True)
            t_plain += t
            d_plain += d
            bad_plain += b
            gc.collect()
            with traced():
                t, d, b = run_block(workload, ops, traced_session, tracer, digests=True)
            t_traced += t
            d_traced += d
            bad_traced += b
            samples += sum(op.samples for op in ops)
    same = d_plain == d_traced
    failed = sum(bad_plain) + sum(bad_traced)
    attempted = len(bad_plain) + len(bad_traced)
    print(f"# {workload.name} seed={workload.seed} traced ops={len(bad_traced)} "
          f"digests_equal={same} mismatch_ratio={failed / attempted:.6g}")
    metrics = tracer.layer_metrics(samples, sum(t_plain) / sum(t_traced))
    return failed == 0 and same, attempted, failed, metrics, tracer


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not (SRC / "combdec" / "__init__.py").is_file():
        print(f"error: no combdec sources under {SRC}", file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.probe_setup:
            print(*map(repr, probe_setup(args, workdir)))
            return 0
        print(f"# host cores={os.cpu_count()} python={platform.python_version()} "
              f"numpy={np.__version__}")
        if args.trace:
            combdec, workload = prepared(args, workdir)
            passes = max(1, round(args.seconds * workload.trace_rate))
            correct, attempted, failed, metrics, tracer = traced_run(combdec, workload, passes)
            tracer.dump(WORK / f"trace-{args.workload}-seed{args.seed}.json")
        else:
            correct, attempted, failed, metrics = timed_run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
