"""Command line front end.

Exit codes: 0 success, 1 a requested comparison found mismatches,
2 invalid configuration or plan, 3 malformed input data, 4 violated
width declaration or internal invariant.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .analysis import (
    InternalError,
    measure_snr,
    response_sweep,
    sigma_delta_source,
)
from .cic import CicFilter, truncation_error_bound
from .fixedpoint import FixedSequence, array_dtype, wrap_array
from .mcla import Mcla, critical_path_gates, mcla_add_many
from .nonrec import NonRecFilter
from .oracle import fir_coefficients, fir_decimate
from .params import (
    ConfigError,
    FilterConfig,
    WidthMismatchError,
    cic_truncation_plan,
    config_from_text,
    config_to_text,
    full_precision_plan,
    max_register_growth,
    nonrec_width_schedule,
    total_width,
)
from .pipeline import PipelinedFilter, clock_table
from .sampleio import DataFormatError, read_samples, write_samples


def _fmt(x) -> str:
    return f"{x:.12g}" if isinstance(x, float) else str(x)


def _add_config_args(sub, arch_choices=("cic", "nonrec")):
    sub.add_argument("--config", help="flat key=value config, inline or @file")
    sub.add_argument("--n", type=int, help="cascade order N")
    sub.add_argument("--m", type=int, default=None, help="differential delay M (default 1)")
    sub.add_argument("--r", type=int, help="decimation ratio R")
    sub.add_argument("--bin", type=int, dest="input_width", help="input sample width")
    if arch_choices:
        sub.add_argument("--arch", choices=arch_choices, default=None)


def _build_config(args) -> FilterConfig:
    flags = dict(order_n=args.n, diff_delay_m=args.m, decim_r=args.r,
                 input_width=args.input_width, arch=getattr(args, "arch", None))
    given = {field: value for field, value in flags.items() if value is not None}
    if getattr(args, "config", None):
        text = args.config
        if text.startswith("@"):
            with open(text[1:]) as fh:
                text = fh.read()
        return dataclasses.replace(config_from_text(text), **given)
    if args.n is None or args.r is None or args.input_width is None:
        raise ConfigError("need --n, --r and --bin (or --config)")
    return FilterConfig(**{"diff_delay_m": 1, **given})


def _parse_ints(text, what):
    try:
        return tuple(int(tok) for tok in text.replace(",", " ").split())
    except ValueError:
        raise ConfigError(f"bad {what} list {text!r}") from None


def _plan(args, cfg):
    """The cic word-length plan --widths asks for; None for nonrec."""
    if cfg.arch == "nonrec":
        if args.widths:
            raise ConfigError("--widths only applies to the cic architecture")
        return None
    if args.widths:
        return cic_truncation_plan(cfg, _parse_ints(args.widths, "width"))
    return full_precision_plan(cfg)


def _write_manifest(path, command, cfg, entries):
    head = [
        ("command", command),
        ("version", __version__),
        ("n", cfg.order_n),
        ("m", cfg.diff_delay_m),
        ("r", cfg.decim_r),
        ("bin", cfg.input_width),
    ]
    lines = [f"{k}={v}" for k, v in head + entries]
    lines.append(f"timestamp={datetime.now(timezone.utc).isoformat()}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_design(args) -> int:
    cfg = _build_config(args)
    plan = _plan(args, cfg)
    print(config_to_text(cfg))
    print(f"growth={max_register_growth(cfg)}")
    if plan is None:
        sched = nonrec_width_schedule(cfg)
        print(f"width_schedule={','.join(map(str, sched))}")
        print(f"output_width={sched[-1]}")
        return 0
    print(f"total_width={total_width(cfg)}")
    print(f"stage_widths={','.join(map(str, plan.stage_widths))}")
    print(f"truncation_bits={','.join(map(str, plan.truncation_bits))}")
    print(f"output_width={plan.stage_widths[-1]}")
    if plan.total_truncation:
        print(f"error_bound={truncation_error_bound(cfg, plan)}")
    return 0


def cmd_simulate(args) -> int:
    cfg = _build_config(args)
    seq = read_samples(args.infile, cfg.input_width, args.format)
    if seq.width != cfg.input_width:
        raise WidthMismatchError(
            f"input declares width {seq.width}, config wants {cfg.input_width}"
        )
    adder_mode = "gate-model" if args.gate_model else "fast"
    plan = _plan(args, cfg)
    if plan is None:
        base = NonRecFilter(cfg, adder_mode)
    else:
        base = CicFilter(cfg, plan, adder_mode)
    flt = PipelinedFilter(base) if args.pipelined else base
    out = flt.process(seq)
    write_samples(args.outfile, out, args.out_format)
    entries = [
        ("arch", cfg.arch),
        ("widths", args.widths or "full"),
        ("adder_mode", adder_mode),
        ("pipelined", int(bool(args.pipelined))),
        ("latency", flt.latency_cycles if args.pipelined else 0),
        ("input", args.infile),
        ("output", args.outfile),
        ("out_format", args.out_format),
        ("samples_in", len(seq)),
        ("samples_out", len(out)),
        ("output_width", out.width),
    ]
    _write_manifest(args.outfile + ".manifest", "simulate", cfg, entries)
    print(f"wrote {len(out)} samples at width {out.width} to {args.outfile}")
    return 0


def _reject_given(args, flags, reason):
    """ConfigError naming each given flag of `flags` ({flag: dest})."""
    given = [flag for flag, dest in flags.items() if getattr(args, dest) is not None]
    if given:
        raise ConfigError(f"{', '.join(given)} cannot be combined with {reason}")


def cmd_oracle(args) -> int:
    cfg = _build_config(args)
    taps = fir_coefficients(cfg)
    if args.coeffs:
        _reject_given(args, {"--in": "infile", "--out": "outfile", "--compare": "compare",
                             "--format": "format"}, "--coeffs")
        for t in taps:
            print(t)
        return 0
    if args.compare is not None:
        _reject_given(args, {"--out": "outfile"}, "--compare")
    if not args.infile:
        raise ConfigError("oracle needs --in (or --coeffs)")
    fmt = "auto" if args.format is None else args.format
    seq = read_samples(args.infile, cfg.input_width, fmt)
    if seq.width != cfg.input_width:
        raise WidthMismatchError(
            f"input declares width {seq.width}, config wants {cfg.input_width}"
        )
    out = fir_decimate(taps, cfg.decim_r, seq)
    if args.compare:
        other = read_samples(args.compare, total_width(cfg), "auto")
        if len(out) != len(other):
            print(f"length mismatch: oracle {len(out)} vs {len(other)}")
            return 1
        w = other.width
        got = out.array.astype(object) if array_dtype(w) is object else out.array
        mism = int(np.count_nonzero(wrap_array(got, w) != other.array))
        print(f"compared {len(out)} samples, {mism} mismatches")
        return 0 if mism == 0 else 1
    if args.outfile:
        write_samples(args.outfile, out, "text")
        _write_manifest(
            args.outfile + ".manifest", "oracle", cfg,
            [("input", args.infile), ("output", args.outfile), ("samples_out", len(out))],
        )
    elif len(out):
        print("\n".join(map(str, out.array.tolist())))
    return 0


def cmd_response(args) -> int:
    cfg = _build_config(args)
    points = response_sweep(cfg, args.fs, args.points)
    lines = ["freq_hz,magnitude,magnitude_db"]
    lines += [
        f"{_fmt(p.freq_hz)},{_fmt(p.magnitude)},{_fmt(p.magnitude_db)}" for p in points
    ]
    text = "\n".join(lines) + "\n"
    if args.outfile:
        with open(args.outfile, "w") as fh:
            fh.write(text)
        _write_manifest(
            args.outfile + ".manifest", "response", cfg,
            [("fs", _fmt(args.fs)), ("points", args.points), ("output", args.outfile)],
        )
    else:
        sys.stdout.write(text)
    return 0


def cmd_snr(args) -> int:
    cfg = FilterConfig(args.n, 1, args.r, 2, arch="cic")
    fs = args.fs
    fout = fs / args.r
    band = args.band if args.band else fout / 2.0
    bits = sigma_delta_source(args.tone, args.amplitude, fs, args.samples)
    comb = CicFilter(cfg).process(bits)
    dropped = FixedSequence._trusted(bits.array[:: args.r], bits.width)
    rep_comb = measure_snr(comb, fout, args.tone, band)
    rep_drop = measure_snr(dropped, fout, args.tone, band)
    lines = [
        "metric,value",
        f"modulator_samples,{len(bits)}",
        f"decimated_samples,{len(comb)}",
        f"comb_snr_db,{_fmt(rep_comb.snr_db)}",
        f"dropped_snr_db,{_fmt(rep_drop.snr_db)}",
        f"improvement_db,{_fmt(rep_comb.snr_db - rep_drop.snr_db)}",
        f"band_hz,{_fmt(band)}",
    ]
    print("\n".join(lines))
    return 0


def cmd_clocks(args) -> int:
    rows = clock_table(
        _parse_ints(args.r_list, "R"),
        args.n,
        args.input_width,
        diff_delay_m=args.m if args.m is not None else 1,
        pipelined=not args.unpipelined,
        peak_hz=args.peak_mhz * 1e6,
    )
    print("arch,r,n,width,depth,clock_mhz")
    for arch, r, n, width, depth, hz in rows:
        print(f"{arch},{r},{n},{width},{depth},{_fmt(hz / 1e6)}")
    return 0


def _random_operands(rng, width, cases):
    """`cases` uniform width-bit operands in an array of array_dtype(width)."""
    if array_dtype(width) is not object:
        return rng.integers(0, 1 << width, size=cases, dtype=np.int64)
    value = np.zeros(cases, dtype=object)
    for shift in range(0, width, 32):
        value |= rng.integers(0, 1 << 32, size=cases).astype(object) << shift
    return value & ((1 << width) - 1)


def cmd_adder(args) -> int:
    if args.depth:
        _reject_given(args, {"--width": "width", "--cases": "cases", "--seed": "seed"},
                      "--depth")
        rows = [
            (w, critical_path_gates(w, "mcla"), critical_path_gates(w, "ripple"))
            for w in _parse_ints(args.depth, "width")
        ]
        print("width,mcla_gates,ripple_gates")
        for w, mcla, ripple in rows:
            print(f"{w},{mcla},{ripple}")
        return 0
    width = 8 if args.width is None else args.width
    cases = 1_000_000 if args.cases is None else args.cases
    if cases < 0:
        raise ConfigError(f"--cases must be >= 0, got {cases}")
    adder = Mcla(width)
    if width <= 8:
        _reject_given(args, {"--cases": "cases", "--seed": "seed"},
                      f"width {width} (8 bits or fewer are checked exhaustively)")
        cin, a, b = (v.ravel() for v in np.indices((2, 1 << width, 1 << width)))
        sums, carries = [], []
        for ai, bi, ci in zip(a.tolist(), b.tolist(), cin.tolist()):
            s, c = adder.add(ai, bi, ci)
            ref = ai + bi + ci
            if s != ref % (1 << width) or c != ref >> width:
                print(f"MISMATCH a={ai} b={bi} cin={ci}")
                return 1
            sums.append(s)
            carries.append(c)
        # the integrators rely on the vector evaluator agreeing with Mcla.add
        s, c = mcla_add_many(a, b, cin, width)
        bad = np.flatnonzero((s != sums) | (c != carries))
        if len(bad):
            print(f"scalar/vector disagreement at case {bad[0]}")
            return 1
        print(f"OK {len(sums)} cases (exhaustive, width {width})")
        return 0
    rng = np.random.default_rng(2024 if args.seed is None else args.seed)
    a = _random_operands(rng, width, cases)
    b = _random_operands(rng, width, cases)
    cin = rng.integers(0, 2, size=cases, dtype=np.int64)
    s, c = mcla_add_many(a, b, cin, width)
    ref = a + b + cin
    bad = int(np.count_nonzero((s != (ref & ((1 << width) - 1))) | (c != (ref >> width))))
    if bad:
        print(f"MISMATCH in {bad} of {cases} cases")
        return 1
    # spot-check the scalar model against the vector evaluator
    for i in range(0, cases, max(1, cases // 64)):
        ss, sc = adder.add(int(a[i]), int(b[i]), int(cin[i]))
        if ss != int(s[i]) or sc != int(c[i]):
            print(f"scalar/vector disagreement at case {i}")
            return 1
    print(f"OK {cases} cases (random, width {width})")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument tree, built on the first call and shared by every `main`
    call after it.  Commands resolve defaults they need to tell from a given
    flag themselves and never change the parser."""
    p = argparse.ArgumentParser(
        prog="combdec",
        description="comb decimation filters: design, bit-exact simulation, analysis",
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = p.add_subparsers(dest="command", required=True)

    d = subs.add_parser("design", help="register growth and width schedules")
    _add_config_args(d)
    d.add_argument("--widths", help="comma separated integrator widths (cic)")
    d.set_defaults(func=cmd_design)

    s = subs.add_parser("simulate", help="run samples through a filter")
    _add_config_args(s)
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--out", dest="outfile", required=True)
    s.add_argument("--format", choices=("auto", "text", "binary"), default="auto")
    s.add_argument("--out-format", choices=("text", "binary"), default="text")
    s.add_argument("--widths", help="comma separated integrator widths (cic)")
    s.add_argument("--gate-model", action="store_true",
                   help="route every add through the gate-level adder")
    s.add_argument("--pipelined", action="store_true")
    s.set_defaults(func=cmd_simulate)

    o = subs.add_parser("oracle", help="reference FIR decimation")
    _add_config_args(o, arch_choices=None)
    o.add_argument("--coeffs", action="store_true", help="print the taps and stop")
    o.add_argument("--in", dest="infile")
    o.add_argument("--out", dest="outfile")
    o.add_argument("--format", choices=("auto", "text", "binary"),
                   help="input format (default auto)")
    o.add_argument("--compare", help="filter output file to check against")
    o.set_defaults(func=cmd_oracle)

    r = subs.add_parser("response", help="magnitude response sweep as CSV")
    _add_config_args(r, arch_choices=None)
    r.add_argument("--fs", type=float, required=True, help="sample rate in Hz")
    r.add_argument("--points", type=int, default=4096)
    r.add_argument("--out", dest="outfile")
    r.set_defaults(func=cmd_response)

    q = subs.add_parser("snr", help="sigma-delta decimation SNR demo")
    q.add_argument("--fs", type=float, default=6.144e6)
    q.add_argument("--tone", type=float, default=10e3)
    q.add_argument("--amplitude", type=float, default=0.5)
    q.add_argument("--samples", type=int, default=1 << 17)
    q.add_argument("--r", type=int, default=16)
    q.add_argument("--n", type=int, default=5)
    q.add_argument("--band", type=float, default=None,
                   help="analysis band in Hz (default: output Nyquist)")
    q.set_defaults(func=cmd_snr)

    c = subs.add_parser("clocks", help="clock estimates over a ratio sweep")
    c.add_argument("--r-list", default="8,16,32,64")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--m", type=int, default=None)
    c.add_argument("--bin", type=int, dest="input_width", required=True)
    c.add_argument("--peak-mhz", type=float, default=90.0)
    c.add_argument("--unpipelined", action="store_true")
    c.set_defaults(func=cmd_clocks)

    a = subs.add_parser("adder", help="verify the gate-level adder model")
    a.add_argument("--width", type=int, help="adder width (default 8)")
    a.add_argument("--cases", type=int, help="random cases above 8 bits (default 1000000)")
    a.add_argument("--seed", type=int, help="operand seed above 8 bits (default 2024)")
    a.add_argument("--depth", help="comma separated widths: print a depth table")
    a.set_defaults(func=cmd_adder)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except WidthMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
