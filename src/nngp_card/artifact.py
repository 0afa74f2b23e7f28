"""One binary file format for model files and encoded-matrix files.

A file is one JSON header line with sorted keys, then its payload arrays back
to back as C-order little-endian bytes. The header holds a hash of every
payload, so a load verifies every byte it returns. A load checks the payload
size against the file size, then reads each payload straight into its own
array, without a copy.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np


def array_hash(arr: np.ndarray) -> str:
    """Short hash of a payload: its shape, then the exact bytes written."""
    h = hashlib.sha256(str(arr.shape).encode())
    h.update(arr)
    return h.hexdigest()[:16]


def _disk(dtype) -> np.dtype:
    return np.dtype(dtype).newbyteorder("<")


def write(path, header: dict, payloads) -> None:
    """Write `header` with one hash per payload, then the payloads.

    `payloads` holds (hash key, array, dtype) in file order. Each array is
    converted once and hashed in the very buffer that is written.
    """
    buffers = {key: np.ascontiguousarray(arr, dtype=_disk(dtype)) for key, arr, dtype in payloads}
    header = dict(header, **{key: array_hash(buf) for key, buf in buffers.items()})
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        for buf in buffers.values():
            fh.write(buf)


def read(path, error: type[Exception], payloads) -> tuple[dict, dict[str, np.ndarray]]:
    """The header of a file and its verified payload arrays, by hash key.

    `payloads(header)` checks the header's format and returns (hash key, name
    in errors, dtype, shape) for each payload, in file order. Every failure
    raises `error`.
    """
    with open(path, "rb") as fh:
        try:
            header = json.loads(fh.readline())
            specs = payloads(header) if isinstance(header, dict) else None
        except (KeyError, TypeError, ValueError):  # ValueError: not JSON, or not UTF-8
            specs = None
        if specs is None:
            raise error(f"{path}: missing or corrupt header")
        expected = sum(_disk(dtype).itemsize * int(np.prod(shape)) for _, _, dtype, shape in specs)
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        if size != expected:
            raise error(f"{path}: payload has {size} bytes, expected {expected} (truncated?)")
        arrays = {}
        for key, what, dtype, shape in specs:
            arr = np.empty(shape, dtype=_disk(dtype))
            if fh.readinto(arr) != arr.nbytes:
                raise error(f"{path}: {what} payload is truncated")
            if array_hash(arr) != header.get(key):
                raise error(f"{path}: {what} payload does not match its recorded hash")
            arrays[key] = arr
    return header, arrays
