"""Self-tests of the benchmark's checks and tracer, on small inputs.

    python3 -m pytest bench -q
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import combdec  # noqa: E402
import combdec.cli  # noqa: E402
import run as bench  # noqa: E402
from checks import parse_samples  # noqa: E402
from combdec.cic import CicFilter  # noqa: E402
from combdec.fixedpoint import FixedSequence  # noqa: E402
from combdec.sampleio import read_samples, write_samples  # noqa: E402
from workloads import FileRoundtrip, StreamChunks, WideGate  # noqa: E402

# counts that must repeat exactly across traced runs with one seed
EXACT_COUNTS = (
    "fixedpoint.constructs", "fixedpoint.samples_validated", "cic.samples_in",
    "cic.push_calls", "cic.process_calls", "nonrec.stage_calls", "nonrec.samples_in",
    "mcla.add_calls", "sampleio.bytes_read", "sampleio.bytes_written", "params.plans",
    "oracle.decimate_calls", "pipeline.process_calls",
)


def small(cls, tmp_path, seed=7):
    wl = cls(combdec, str(tmp_path), seed)
    if cls is StreamChunks:
        wl.chunks_per_slot, wl.distinct_passes = 24, 2
    else:
        wl.size_exps, wl.per_cell = (8, 9), 1
    wl.generate()
    wl.generate_warmup()
    return wl


def flip_lowest_bit(path):
    data = Path(path).read_bytes()
    width, values = parse_samples(data)
    if width is None:
        values[0] ^= 1
        Path(path).write_text("\n".join(map(str, values)) + "\n")
    else:
        header_len = data.index(b"\n") + 1
        Path(path).write_bytes(
            data[:header_len] + bytes([data[header_len] ^ 1]) + data[header_len + 1:])


@pytest.mark.parametrize("cls", [FileRoundtrip, WideGate])
def test_flipped_output_bit_is_a_mismatch(cls, tmp_path):
    wl = small(cls, tmp_path)
    ops = wl.pass_ops(0, None)
    _, _, bad = bench.run_block(wl, ops, None)
    assert not any(bad)
    for op in ops:
        flip_lowest_bit(op.out_path)
        op.settle(False)
    assert wl.check(ops, None) == [False] * len(ops)


def test_flipped_stream_output_bit_is_a_mismatch(tmp_path):
    wl = small(StreamChunks, tmp_path)
    session = wl.new_session()
    ops = wl.pass_ops(0, session)
    for op in ops:
        op.prepare()
        op.run()
    victims = {}
    for i, op in enumerate(ops):
        if not op.use_push and len(op.out) and op.slot not in victims:
            victims[op.slot] = i
            samples = list(op.out.samples)
            samples[-1] ^= 1
            op.out = FixedSequence(samples, op.out.width)
    ok = wl.check(ops, session)
    assert len(victims) == len(wl.slots)
    assert [i for i, good in enumerate(ok) if not good] == sorted(victims.values())


@pytest.mark.parametrize("cls", [FileRoundtrip, StreamChunks, WideGate])
def test_traced_counts_repeat_and_digests_match(cls, tmp_path):
    runs = []
    for _ in range(2):
        correct, attempted, failed, metrics, _ = bench.traced_run(
            combdec, small(cls, tmp_path), passes=2)
        assert correct and failed == 0 and attempted > 0
        runs.append(metrics)
    for name in EXACT_COUNTS:
        assert runs[0][name] == runs[1][name], name
    m = runs[0]
    assert m["fixedpoint.samples_validated"][0] > 0
    if cls is WideGate:
        assert m["mcla.add_calls"][0] > 0 and m["cic.scalar_share"][0] == 1.0
    else:
        assert m["mcla.add_calls"][0] == 0
    if cls is StreamChunks:
        assert m["cic.push_calls"][0] > 0 and m["sampleio.bytes_read"][0] == 0
    else:
        assert m["sampleio.bytes_read"][0] > 0 and m["cli.self_ms"][0] > 0


def test_tracer_restores_every_binding(tmp_path):
    bench.traced_run(combdec, small(FileRoundtrip, tmp_path), passes=1)
    assert combdec.cli.read_samples is combdec.sampleio.read_samples
    assert combdec.cli.fir_decimate is combdec.oracle.fir_decimate
    assert not hasattr(CicFilter.push, "__wrapped__")
    assert not hasattr(FixedSequence.__post_init__, "__wrapped__")


def test_parser_reads_wide_binary_like_sampleio(tmp_path):
    seq = FixedSequence([-(1 << 71), (1 << 71) - 1, -1, 0, 12345], 72)
    path = tmp_path / "wide.bin"
    write_samples(path, seq, "binary")
    assert parse_samples(path.read_bytes()) == (72, list(seq.samples))
    assert read_samples(path, 72).samples == seq.samples


def test_fails_without_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "wide-gate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
