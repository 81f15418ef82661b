"""Sample file formats shared by the filters and the CLI.

Text: one signed decimal integer per line, width supplied out of band.
Binary: a single ASCII header line "width=<W> count=<K>\\n" followed by
K samples, two's complement little-endian, ceil(W/8) bytes each.
"""

from __future__ import annotations

import re

import numpy as np

from .fixedpoint import FixedSequence, array_dtype, to_unsigned, wrap, wrap_array


class DataFormatError(ValueError):
    """Raised for sample files that cannot be parsed or hold bad values."""


_HEADER_RE = re.compile(rb"^width=(\d+) count=(\d+)$")


def bytes_per_sample(width: int) -> int:
    return (width + 7) // 8


def write_text(path, seq: FixedSequence):
    with open(path, "w") as fh:
        if len(seq):
            fh.write("\n".join(map(str, seq.array.tolist())) + "\n")


def write_binary(path, seq: FixedSequence):
    width = seq.width
    nb = bytes_per_sample(width)
    if array_dtype(width) is object:
        payload = b"".join(to_unsigned(s, width).to_bytes(nb, "little")
                           for s in seq.array.tolist())
    else:
        u = (seq.array & ((1 << width) - 1)).astype("<u8", copy=False)
        payload = u.view(np.uint8).reshape(-1, 8)[:, :nb].tobytes()
    with open(path, "wb") as fh:
        fh.write(f"width={width} count={len(seq)}\n".encode("ascii"))
        fh.write(payload)


def write_samples(path, seq: FixedSequence, fmt: str = "text"):
    if fmt == "text":
        write_text(path, seq)
    elif fmt == "binary":
        write_binary(path, seq)
    else:
        raise DataFormatError(f"format must be 'text' or 'binary', got {fmt!r}")


def _parse_lines(path, lines):
    """Python ints from decimal lines, skipping blank ones; names a bad line."""
    values = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            values.append(int(line))
        except ValueError:
            raise DataFormatError(
                f"{path}: line {lineno}: {line[:40]!r} is not an integer"
            ) from None
    return values


def read_text(path, width: int) -> FixedSequence:
    """Parse newline-delimited decimals and validate them against width."""
    with open(path, "rb") as fh:
        body = fh.read().rstrip()
    lines = body.split(b"\n") if body else []
    try:
        values = np.array(lines, dtype=np.int64)
    except (ValueError, OverflowError):
        # blank lines, values over int64, or a bad line to report
        values = _parse_lines(path, lines)
    try:
        return FixedSequence(values, width)
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def read_binary(path) -> FixedSequence:
    """Parse a header-framed binary sample file; width comes from the header.

    Bits above the width in each sample's top byte are ignored.
    """
    with open(path, "rb") as fh:
        header = fh.readline().rstrip(b"\n")
        m = _HEADER_RE.match(header)
        if not m:
            raise DataFormatError(f"{path}: bad header {header[:60]!r}")
        width = int(m.group(1))
        count = int(m.group(2))
        if width < 1:
            raise DataFormatError(f"{path}: header width must be >= 1")
        nb = bytes_per_sample(width)
        payload = fh.read()
    if len(payload) != nb * count:
        raise DataFormatError(
            f"{path}: expected {nb * count} payload bytes for count={count}, "
            f"got {len(payload)}"
        )
    if array_dtype(width) is object:
        samples = [
            wrap(int.from_bytes(payload[i * nb : (i + 1) * nb], "little"), width)
            for i in range(count)
        ]
    else:
        words = np.zeros((count, 8), dtype=np.uint8)
        words[:, :nb] = np.frombuffer(payload, dtype=np.uint8).reshape(count, nb)
        samples = wrap_array(words.view("<i8").reshape(count), width)
    return FixedSequence(samples, width)


def sniff_format(path) -> str:
    """Guess text vs binary from the first line."""
    with open(path, "rb") as fh:
        first = fh.readline().rstrip(b"\n")
    return "binary" if _HEADER_RE.match(first) else "text"


def read_samples(path, width: int, fmt: str = "auto") -> FixedSequence:
    """Read either format.  Text trusts `width`; binary carries its own."""
    if fmt == "auto":
        fmt = sniff_format(path)
    if fmt == "text":
        return read_text(path, width)
    if fmt == "binary":
        return read_binary(path)
    raise DataFormatError(f"format must be 'auto', 'text' or 'binary', got {fmt!r}")
