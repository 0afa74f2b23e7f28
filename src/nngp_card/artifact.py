"""The two file formats of the package: one binary, one JSON lines.

A binary file (a model or an encoded matrix) is one JSON header line with
sorted keys, then its payloads back to back as little-endian bytes. A payload
is one array in C order, or an ordered sequence of contiguous chunks (such as
the columns of a triangle) written back to back. The header holds a hash of
every payload and `header_hash`, a hash of every other header key, so a load
verifies every byte it returns and every header value it reads. A load checks
the payload size against the file size, then reads each chunk straight into
the caller's buffer, without a copy.

A JSON-lines file (queries, labeled workloads, predictions) is a
`{"_header": ...}` line, then one key-sorted object per record.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Callable, Iterable

import numpy as np


def payload_hash(shape, chunks) -> str:
    """Short hash of a payload: its shape, then the exact bytes written, chunk by chunk."""
    h = hashlib.sha256(str(shape).encode())
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()[:16]


def _header_hash(header: dict) -> str:
    return hashlib.sha256(json.dumps(header, sort_keys=True).encode()).hexdigest()[:16]


def _disk(dtype) -> np.dtype:
    return np.dtype(dtype).newbyteorder("<")


def _chunks(data) -> tuple[tuple, list]:
    """The hashed shape and the chunks of a payload: an array is one chunk of
    its own shape, a sequence of chunks has the shape of their concatenation."""
    if isinstance(data, np.ndarray):
        return data.shape, [data]
    return (sum(chunk.size for chunk in data),), list(data)


def write(path, header: dict, payloads) -> None:
    """Write `header` with one hash per payload and `header_hash`, then the payloads.

    `payloads` holds (hash key, array or sequence of chunks, dtype) in file
    order. Each chunk is converted only if it is not already contiguous in
    the disk dtype, and is hashed in the very buffer that is written.
    """
    converted = []
    for key, data, dtype in payloads:
        shape, chunks = _chunks(data)
        chunks = [np.ascontiguousarray(chunk, dtype=_disk(dtype)) for chunk in chunks]
        converted.append((key, shape, chunks))
    header = dict(header, **{key: payload_hash(shape, chunks) for key, shape, chunks in converted})
    header["header_hash"] = _header_hash(header)
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        for _, _, chunks in converted:
            for chunk in chunks:
                fh.write(chunk)


def read(path, error: type[Exception], payloads) -> dict:
    """The verified header of a file, after filling the caller's payload buffers.

    `payloads(header)` checks the header's format and returns (hash key, name
    in errors, buffer) for each payload, in file order; a buffer is an array
    in the disk dtype, or a sequence of such contiguous chunks, filled in
    order. Every failure raises `error`.
    """
    with open(path, "rb") as fh:
        try:
            header = json.loads(fh.readline())
            specs = payloads(header) if isinstance(header, dict) else None
        except (KeyError, TypeError, ValueError):  # ValueError: not JSON, or not UTF-8
            specs = None
        if specs is None or "header_hash" not in header:
            raise error(f"{path}: missing or corrupt header")
        if _header_hash({k: v for k, v in header.items() if k != "header_hash"}) != header["header_hash"]:
            raise error(f"{path}: header does not match its recorded hash")
        specs = [(key, what, *_chunks(buffer)) for key, what, buffer in specs]
        expected = sum(chunk.nbytes for *_, chunks in specs for chunk in chunks)
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        if size != expected:
            raise error(f"{path}: payload has {size} bytes, expected {expected} (truncated?)")

        def filled(what, chunks):
            for chunk in chunks:
                if fh.readinto(chunk) != chunk.nbytes:
                    raise error(f"{path}: {what} payload is truncated")
                yield chunk

        for key, what, shape, chunks in specs:
            # each chunk is hashed right after it is read, while it is in cache
            if payload_hash(shape, filled(what, chunks)) != header.get(key):
                raise error(f"{path}: {what} payload does not match its recorded hash")
    return header


def write_jsonl(path, header: dict | None, records: Iterable[dict]) -> None:
    """Write a `{"_header": header}` line unless `header` is None, then one key-sorted object per record."""
    with open(path, "w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(json.dumps({"_header": header}, sort_keys=True, allow_nan=False) + "\n")
        for record in records:
            fh.write(json.dumps(record, sort_keys=True, allow_nan=False) + "\n")


def read_jsonl(path, error: type[Exception], parse: Callable[[dict], object]) -> tuple[list, dict | None]:
    """Each record of a JSON-lines file parsed by `parse`, and the object of its
    last `_header` line (None if none; concatenated files read as one). A line
    that is not an object or that `parse` rejects (`error`, KeyError, TypeError,
    AttributeError, ValueError) raises `error` naming the path and the line."""
    records = []
    header = None
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if line.isspace():
                continue
            try:
                doc = json.loads(line)
                if type(doc) is not dict:
                    raise error("not a JSON object")
                if "_header" not in doc:
                    records.append(parse(doc))
                elif type(doc["_header"]) is dict:
                    header = doc["_header"]
                else:
                    raise error("header is not a JSON object")
            except json.JSONDecodeError as exc:
                raise error(f"{path}: line {line_no}: invalid JSON ({exc})") from None
            except KeyError as exc:
                raise error(f"{path}: line {line_no}: missing key {exc}") from None
            except (error, TypeError, ValueError, AttributeError) as exc:
                raise error(f"{path}: line {line_no}: {exc}") from None
    return records, header
