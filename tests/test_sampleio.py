"""Round trips and failure modes for the text and binary sample formats."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combdec import sampleio
from combdec.fixedpoint import FixedSequence
from combdec.sampleio import (
    DataFormatError,
    bytes_per_sample,
    read_binary,
    read_samples,
    read_text,
    sniff_format,
    write_binary,
    write_samples,
    write_text,
)


def test_bytes_per_sample():
    assert bytes_per_sample(1) == 1
    assert bytes_per_sample(8) == 1
    assert bytes_per_sample(9) == 2
    assert bytes_per_sample(16) == 2
    assert bytes_per_sample(25) == 4


def test_text_round_trip(tmp_path):
    seq = FixedSequence([0, 1, -1, 15, -16], 5)
    p = tmp_path / "s.txt"
    write_text(p, seq)
    back = read_text(p, 5)
    assert back == seq


def test_text_skips_blank_lines(tmp_path):
    p = tmp_path / "s.txt"
    p.write_text("3\n\n  \n-4\n")
    back = read_text(p, 4)
    assert back.samples == (3, -4)


def test_text_rejects_garbage(tmp_path):
    p = tmp_path / "s.txt"
    p.write_text("3\nten\n")
    with pytest.raises(DataFormatError, match="line 2"):
        read_text(p, 8)


def test_text_rejects_out_of_range(tmp_path):
    p = tmp_path / "s.txt"
    p.write_text("3\n200\n")
    with pytest.raises(DataFormatError):
        read_text(p, 8)


def test_binary_round_trip(tmp_path):
    seq = FixedSequence([0, 1, -1, (1 << 24) - 1, -(1 << 24)], 25)
    p = tmp_path / "s.bin"
    write_binary(p, seq)
    back = read_binary(p)
    assert back == seq
    assert back.width == 25


def test_binary_header_and_layout(tmp_path):
    seq = FixedSequence([-1, 2], 9)
    p = tmp_path / "s.bin"
    write_binary(p, seq)
    raw = p.read_bytes()
    header, payload = raw.split(b"\n", 1)
    assert header == b"width=9 count=2"
    # -1 at width 9 is 0x1FF, little-endian over two bytes
    assert payload == bytes([0xFF, 0x01, 0x02, 0x00])


def test_binary_ignores_junk_bits_above_the_width(tmp_path):
    p = tmp_path / "s.bin"
    # width 5: 0xE3 holds 0b00011 (3) and 0xF0 holds 0b10000 (-16) under junk
    p.write_bytes(b"width=5 count=2\n\xe3\xf0")
    assert read_binary(p).samples == (3, -16)
    # width 12: the top byte's high nibble is junk; 0x7FF is 2047, 0x800 is -2048
    p.write_bytes(b"width=12 count=2\n\xff\xa7\x00\x58")
    assert read_binary(p).samples == (2047, -2048)


def test_text_bulk_and_per_line_paths_agree(tmp_path):
    p = tmp_path / "s.txt"
    p.write_text("+5\n 1_0 \n-7\r\n")
    assert read_text(p, 6).samples == (5, 10, -7)
    p.write_text("+5\n\n1_0\n-7\n")  # a blank line takes the per-line path
    assert read_text(p, 6).samples == (5, 10, -7)
    p.write_text(f"{1 << 70}\n{-(1 << 70)}\n")  # over int64
    assert read_text(p, 72).samples == (1 << 70, -(1 << 70))


@pytest.mark.parametrize("text", ["1\n2 3\n", "1\n1.5\n"], ids=["two-values", "fraction"])
def test_text_rejects_a_line_that_is_not_one_integer(tmp_path, text):
    p = tmp_path / "s.txt"
    p.write_text(text)
    with pytest.raises(DataFormatError, match="line 2"):
        read_text(p, 8)


def test_binary_bad_header(tmp_path):
    p = tmp_path / "s.bin"
    p.write_bytes(b"hello\n\x00\x01")
    with pytest.raises(DataFormatError, match="bad header"):
        read_binary(p)


def test_binary_zero_width_header(tmp_path):
    p = tmp_path / "s.bin"
    p.write_bytes(b"width=0 count=1\n\x00")
    with pytest.raises(DataFormatError):
        read_binary(p)


def test_binary_truncated_payload(tmp_path):
    p = tmp_path / "s.bin"
    p.write_bytes(b"width=16 count=3\n\x00\x01")
    with pytest.raises(DataFormatError, match="payload"):
        read_binary(p)


def test_sniff_format(tmp_path):
    t = tmp_path / "a.txt"
    t.write_text("1\n2\n")
    b = tmp_path / "a.bin"
    write_binary(b, FixedSequence([1, 2], 8))
    assert sniff_format(t) == "text"
    assert sniff_format(b) == "binary"


def test_read_samples_auto(tmp_path):
    seq = FixedSequence([5, -6, 7], 8)
    t = tmp_path / "a.txt"
    b = tmp_path / "a.bin"
    write_samples(t, seq, "text")
    write_samples(b, seq, "binary")
    assert read_samples(t, 8, "auto") == seq
    assert read_samples(b, 0, "auto") == seq  # width arg unused for binary


def test_read_samples_explicit_text_on_binary_fails(tmp_path):
    # forcing text on a binary file must not silently parse the header
    b = tmp_path / "a.bin"
    write_binary(b, FixedSequence([1], 8))
    with pytest.raises(DataFormatError):
        read_samples(b, 8, "text")


def test_bad_format_names(tmp_path):
    p = tmp_path / "x"
    with pytest.raises(DataFormatError):
        write_samples(p, FixedSequence([0], 4), "csv")
    p.write_text("0\n")
    with pytest.raises(DataFormatError):
        read_samples(p, 4, "csv")


@settings(max_examples=60, deadline=None)
@given(
    width=st.integers(min_value=1, max_value=72),
    data=st.data(),
    fmt=st.sampled_from(["text", "binary"]),
)
def test_round_trip_any_width(tmp_path_factory, width, data, fmt):
    lo, hi = -(1 << (width - 1)), (1 << (width - 1)) - 1
    vals = data.draw(
        st.lists(st.integers(min_value=lo, max_value=hi), min_size=0, max_size=32)
    )
    seq = FixedSequence(vals, width)
    p = tmp_path_factory.mktemp("io") / f"s_{fmt}"
    write_samples(p, seq, fmt)
    back = read_samples(p, width, fmt)
    assert back == seq
    assert back.array.dtype == (np.int64 if width <= 62 else object)


@pytest.mark.parametrize("fmt", ["text", "binary"])
@pytest.mark.parametrize("width", [61, 62, 63, 64, 65])
def test_round_trip_across_the_dtype_switch(tmp_path, width, fmt):
    half = 1 << (width - 1)
    vals = [-half, -half + 1, -1, 0, 1, half - 2, half - 1]
    p = tmp_path / f"s_{fmt}"
    write_samples(p, FixedSequence(vals, width), fmt)
    back = read_samples(p, width, fmt)
    assert back.samples == tuple(vals)
    assert back.width == width



# the bulk text parse against int() ------------------------------------------

_INT64 = (1 << 63) - 1
_EDGES = [0, 10**18 - 1, -(10**18 - 1), 10**18, -(10**18), _INT64, -_INT64 - 1]


def _int64_lists(width):
    """Lists biased toward 0, +-(10**18 - 1) and +-(2**63 - 1), inside `width` bits."""
    half = 1 << (width - 1)
    lo, hi = max(-half, -_INT64 - 1), min(half - 1, _INT64)
    edges = [v for v in _EDGES if lo <= v <= hi] + [lo, hi, lo + 1, hi - 1]
    values = st.one_of(st.sampled_from(edges), st.integers(min_value=lo, max_value=hi))
    return st.lists(values, min_size=1, max_size=40)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), width=st.sampled_from([1, 2, 5, 16, 25, 33, 59, 60, 61, 62, 72]))
def test_text_parse_equals_int_of_each_line(tmp_path_factory, data, width):
    lines = [str(v) for v in data.draw(_int64_lists(width))]
    p = tmp_path_factory.mktemp("bulk") / "s.txt"
    end = data.draw(st.sampled_from(["\n", "\r\n"]))
    p.write_bytes((end.join(lines) + data.draw(st.sampled_from(["", end]))).encode())
    back = read_text(p, width)
    assert back.samples == tuple(int(line) for line in lines)
    assert back.array.dtype == (np.int64 if width <= 62 else object)


# (file body, width, the values read or a pattern of the DataFormatError)
NEAR_MISSES = {
    "plus": ("+5\n3\n", 8, (5, 3)),
    "leading-space": (" 5\n3\n", 8, (5, 3)),
    "trailing-space": ("5 \n3\n", 8, (5, 3)),
    "underscore": ("1_0\n3\n", 8, (10, 3)),
    "carriage-return": ("5\r\n3\r\n", 8, (5, 3)),
    "lone-minus": ("3\n-\n", 8, "line 2: b'-' is not an integer"),
    "double-minus": ("3\n--1\n", 8, "line 2: b'--1' is not an integer"),
    "trailing-minus": ("3\n1-\n", 8, "line 2: b'1-' is not an integer"),
    "minus-zero": ("-0\n3\n", 8, (0, 3)),
    "leading-zeros": ("007\n-007\n", 8, (7, -7)),
    "19-digits": (f"{10**18}\n-{10**18}\n", 62, (10**18, -(10**18))),
    "19-digits-too-wide": (f"3\n{10**18}\n", 60, f"sample 1 = {10**18} does not fit"),
    "-2**63": (f"{-(1 << 63)}\n3\n", 64, (-(1 << 63), 3)),
    "2**63": (f"3\n{1 << 63}\n", 72, (3, 1 << 63)),
    "2**63-too-wide": (f"3\n{1 << 63}\n", 64, f"sample 1 = {1 << 63} does not fit"),
    "2**70": (f"{1 << 70}\n3\n", 72, (1 << 70, 3)),
    "2**70-too-wide": (f"3\n{1 << 70}\n", 62, f"sample 1 = {1 << 70} does not fit"),
    "blank-line": ("3\n\n-4\n", 8, (3, -4)),
    "empty-file": ("", 8, ()),
    "only-newline": ("\n", 8, ()),
}


@pytest.mark.parametrize("body, width, expect", NEAR_MISSES.values(), ids=NEAR_MISSES.keys())
def test_text_near_misses_of_a_plain_decimal_line(tmp_path, body, width, expect):
    p = tmp_path / "s.txt"
    p.write_bytes(body.encode())
    if isinstance(expect, str):
        with pytest.raises(DataFormatError, match=re.escape(expect)):
            read_text(p, width)
    else:
        back = read_text(p, width)
        assert back.samples == expect
        assert back.array.dtype == (np.int64 if width <= 62 else object)


@pytest.mark.parametrize("fmt", ["auto", "text", "binary"])
def test_read_samples_opens_the_file_once(tmp_path, monkeypatch, fmt):
    seq = FixedSequence([5, -6, 7], 8)
    p = tmp_path / "s"
    write_samples(p, seq, "text" if fmt == "text" else "binary")
    opened = []

    def counted(path, *args, **kwargs):
        opened.append(path)
        return open(path, *args, **kwargs)

    monkeypatch.setattr(sampleio, "open", counted, raising=False)
    assert read_samples(p, 8, fmt) == seq
    assert opened == [p]
