"""File formats shared by the raw-data and image exports.

FSAR (raw echoes) and FIMG (focused images) are one binary container that
differs only in its magic number: a 32-byte header (magic, version u32,
rows u32, cols u32, 16 reserved bytes), then row-major little-endian
complex128, i.e. float64 (Re, Im) pairs. CSV exports write Python floats,
so every value reads back bit for bit. Every file is written through
atomic_write: a reader sees the old file or the whole new one, never a part.
"""

import contextlib
import json
import os
import struct

import numpy as np

VERSION = 1
_HEADER = struct.Struct("<4sIII16s")  # magic, version, rows, cols, reserved


class FormatError(ValueError):
    """A container file that cannot be read; the message names the file."""


@contextlib.contextmanager
def atomic_write(path, mode="w"):
    """Yield a file open for writing at path + ".tmp"; rename it onto path
    when the block succeeds, and remove it when the block or the rename
    fails. Text mode writes line ends as given."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, mode, newline=None if "b" in mode else "") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)


def write_container(path, magic: bytes, data: np.ndarray) -> None:
    """Write a 2-D complex matrix: header, then the samples streamed from data."""
    rows, cols = data.shape
    with atomic_write(path, "wb") as fh:
        fh.write(_HEADER.pack(magic, VERSION, rows, cols, b"\0" * 16))
        fh.write(np.ascontiguousarray(data, dtype="<c16"))


def read_container(path, magic: bytes) -> np.ndarray:
    """Read a matrix written by write_container with the same magic into one array."""
    name = magic.decode()
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) != _HEADER.size:
            raise FormatError(f"{path}: truncated {name} header "
                              f"({len(head)} of {_HEADER.size} bytes)")
        got, version, rows, cols, _ = _HEADER.unpack(head)
        if got != magic:
            raise FormatError(f"{path}: bad magic {got!r}, expected {magic!r}")
        if version != VERSION:
            raise FormatError(f"{path}: {name} version {version} is not supported "
                              f"(expected {VERSION})")
        size = os.fstat(fh.fileno()).st_size - _HEADER.size
        if size != rows * cols * 16:
            raise FormatError(f"{path}: {name} payload has {size} bytes, "
                              f"expected {rows * cols * 16} for {rows} x {cols}")
        data = np.empty((rows, cols), dtype="<c16")
        if fh.readinto(data.reshape(-1).view(np.uint8)) != size:
            raise FormatError(f"{path}: {name} payload changed while it was read")
    return data.astype(complex, copy=False)


def write_csv(path, header: list[str], columns) -> None:
    """Write equal-length columns of numbers as CSV rows under a header line,
    in csv.writer's bytes: each number's repr, CRLF line ends, nothing
    quoted (no header name or number holds a comma, quote or line break)."""
    rows = zip(*(np.asarray(c).tolist() for c in columns))
    with atomic_write(path) as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(",".join(map(repr, row)) + "\r\n" for row in rows)


def write_json(path, doc) -> None:
    """Write a JSON document with sorted keys, two-space indent and a final newline."""
    with atomic_write(path) as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
