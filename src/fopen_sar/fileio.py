"""File formats shared by the raw-data and image exports.

FSAR (raw echoes) and FIMG (focused images) are one binary container that
differs only in its magic number: a 32-byte header (magic, version u32,
rows u32, cols u32, 16 reserved bytes), then row-major little-endian
complex128, i.e. float64 (Re, Im) pairs. CSV exports write Python floats,
so every value reads back bit for bit.
"""

import csv
import os
import struct

import numpy as np

VERSION = 1
_HEADER = struct.Struct("<4sIII16s")  # magic, version, rows, cols, reserved


class FormatError(ValueError):
    """A container file that cannot be read; the message names the file."""


def write_container(path, magic: bytes, data: np.ndarray) -> None:
    """Write a 2-D complex matrix atomically (temporary file, then rename)."""
    rows, cols = data.shape
    tmp = str(path) + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(_HEADER.pack(magic, VERSION, rows, cols, b"\0" * 16))
        fh.write(np.ascontiguousarray(data, dtype="<c16").tobytes())
    os.replace(tmp, path)


def read_container(path, magic: bytes) -> np.ndarray:
    """Read a matrix written by write_container with the same magic."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        body = fh.read()
    name = magic.decode()
    if len(head) != _HEADER.size:
        raise FormatError(f"{path}: truncated {name} header "
                          f"({len(head)} of {_HEADER.size} bytes)")
    got, version, rows, cols, _ = _HEADER.unpack(head)
    if got != magic:
        raise FormatError(f"{path}: bad magic {got!r}, expected {magic!r}")
    if version != VERSION:
        raise FormatError(f"{path}: {name} version {version} is not supported "
                          f"(expected {VERSION})")
    if len(body) != rows * cols * 16:
        raise FormatError(f"{path}: {name} payload has {len(body)} bytes, "
                          f"expected {rows * cols * 16} for {rows} x {cols}")
    return np.frombuffer(body, dtype="<c16").reshape(rows, cols).astype(complex)


def write_csv(path, header: list[str], columns) -> None:
    """Write equal-length columns as CSV rows under a header line."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(zip(*(np.asarray(c).tolist() for c in columns)))
