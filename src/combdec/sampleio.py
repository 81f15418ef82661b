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
    """The int() of each line, skipping blank ones; names a bad line.

    An int64 array when NumPy converts every line, else a list of Python ints.
    """
    try:
        return np.array(lines, dtype=np.int64)  # NumPy calls int() on each line
    except (ValueError, OverflowError):
        pass  # a blank line, a value past int64, or a bad line to name
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


_POW10 = 10 ** np.arange(19, dtype=np.uint64)
_INT64_MAX = np.uint64((1 << 63) - 1)


def _parse_plain_lines(body: bytes):
    """int64 values of `body` when every line is `-?[0-9]{1,19}` and fits
    int64, else None.

    One vectorised pass over the bytes: a magnitude of 19 digits never
    overflows uint64, and the temporaries are a few arrays per byte or per
    line.
    """
    b = np.frombuffer(body, np.uint8)
    breaks = np.flatnonzero(b == 10)
    # digits[i + 1] is byte i less '0'; digits[0] is a 0 before the first line
    digits = np.empty(len(b) + 1, np.uint8)
    digits[0] = 0
    np.subtract(b, np.uint8(48), out=digits[1:])
    is_digit = digits < 10
    # each line's first byte in `b`, and in `digits` the byte before it
    first = np.empty(len(breaks) + 1, np.intp)
    first[0] = 0
    first[1:] = breaks + 1
    last = np.append(breaks, len(b))  # each line's last byte in `digits`
    neg = b[first] == 45  # `body` does not end in a newline
    ndigits = last - first - neg
    # every byte that is not a digit is a newline or a line's leading '-'
    if (ndigits.min() < 1 or ndigits.max() > len(_POW10)
            or np.count_nonzero(is_digit) - 1 != len(b) - len(breaks) - np.count_nonzero(neg)):
        return None
    digits *= is_digit  # so the newline or '-' before a line's digits reads 0
    pos = last  # the k-th digit from the right; past a line's first, the 0 before it
    magnitude = digits[pos].astype(np.uint64)
    for k in range(1, int(ndigits.max())):
        pos -= 1
        np.maximum(pos, first, out=pos)
        # uint64 by name: NumPy 1 would type the product by the power's value
        magnitude += np.multiply(digits[pos], _POW10[k], dtype=np.uint64)
    # up to 18 digits always fit; of 19, up to 2**63 - 1, or 2**63 after a '-'
    if ndigits.max() == len(_POW10) and np.any(magnitude > _INT64_MAX + neg):
        return None
    values = magnitude.view(np.int64)  # 2**63 reads -2**63, which negates to itself
    values *= 1 - 2 * neg.view(np.int8)
    return values


def _parse_text(path, body: bytes, width: int) -> FixedSequence:
    body = body.rstrip()
    if b"\r" in body:
        # CRLF line ends; the per-line parse strips any '\r' left in a line
        body = body.replace(b"\r\n", b"\n")
    values = _parse_plain_lines(body) if body else np.zeros(0, np.int64)
    if values is None:
        # a blank line, a '+' or spaces, a value past int64, or a bad line to report
        values = _parse_lines(path, body.split(b"\n"))
    try:
        return FixedSequence(values, width)
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def read_text(path, width: int) -> FixedSequence:
    """Parse newline-delimited decimals and validate them against width."""
    return read_samples(path, width, "text")


def _first_line(data: bytes) -> bytes:
    end = data.find(b"\n")
    return data if end < 0 else data[:end]


def _parse_binary(path, data: bytes) -> FixedSequence:
    header = _first_line(data)
    payload = memoryview(data)[len(header) + 1 :]
    m = _HEADER_RE.match(header)
    if not m:
        raise DataFormatError(f"{path}: bad header {header[:60]!r}")
    width = int(m.group(1))
    count = int(m.group(2))
    if width < 1:
        raise DataFormatError(f"{path}: header width must be >= 1")
    nb = bytes_per_sample(width)
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


def read_binary(path) -> FixedSequence:
    """Parse a header-framed binary sample file; width comes from the header.

    Bits above the width in each sample's top byte are ignored.
    """
    return read_samples(path, 0, "binary")


def _sniff(data: bytes) -> str:
    return "binary" if _HEADER_RE.match(_first_line(data)) else "text"


def sniff_format(path) -> str:
    """Guess text vs binary from the first line."""
    with open(path, "rb") as fh:
        return _sniff(fh.readline())


def read_samples(path, width: int, fmt: str = "auto") -> FixedSequence:
    """Read either format.  Text trusts `width`; binary carries its own.

    The file is opened once, also when `fmt` is "auto".
    """
    if fmt not in ("auto", "text", "binary"):
        raise DataFormatError(f"format must be 'auto', 'text' or 'binary', got {fmt!r}")
    with open(path, "rb") as fh:
        data = fh.read()
    if fmt == "auto":
        fmt = _sniff(data)
    if fmt == "text":
        return _parse_text(path, data, width)
    return _parse_binary(path, data)
