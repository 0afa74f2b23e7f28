"""The four file formats of the package: binary, JSON lines, JSON documents and
CSV. This is the only module that opens a file, and every file it writes is
whole: it is written to a temporary sibling, which replaces the destination
only after the last byte, so a write that fails leaves the destination as it
was.

A binary file (a model or an encoded matrix) is one JSON header line with
sorted keys, then its payloads back to back as little-endian bytes. A payload
is one array in C order, or an ordered sequence of contiguous chunks (such as
the columns of a triangle) written back to back. The header holds a hash of
every payload and `header_hash`, a hash of every other header key, so a load
verifies every byte it returns and every header value it reads, the header
before any of its values sizes a buffer. A load checks the payload size the
header implies against the file size before any buffer exists, then reads each
chunk straight into its buffer, without a copy.

A JSON-lines file (queries, labeled workloads, predictions) is a
`{"_header": ...}` line, then one key-sorted object per record.

A JSON document (the config, synth spec, catalog and schema the user writes,
and the split, report and active-learning outputs) is one object, written
key-sorted with an indent of 2 and a trailing newline. A read accepts only
UTF-8 JSON whose top level is an object, with no repeated key in any object
and no `NaN` or `Infinity`; `check_fields` checks one object's keys and the
JSON type of each value.

A CSV file (a relation, or the scatter `evaluate` writes) is a header row, then
one row per record, as `csv.writer` writes them. A read accepts only UTF-8 with
every row as wide as the header, and returns the cells column by column.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import math
import os
from typing import Callable, Iterable, Sequence

import numpy as np


def payload_hash(shape, chunks) -> str:
    """Short hash of a payload: its shape, then the exact bytes written, chunk by chunk."""
    h = hashlib.sha256(str(shape).encode())
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()[:16]


def file_hash(path) -> str:
    """Short sha256 of a file's bytes, which output headers record for each input file."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
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


@contextlib.contextmanager
def _replacing(path, mode: str, **kwargs):
    """A file object on a temporary sibling of `path`, moved onto `path` once
    the block has written its last byte, and removed if anything raises."""
    temporary = f"{path}.{os.getpid()}.tmp"
    fh = open(temporary, mode, **kwargs)
    try:
        with fh:
            yield fh
        os.replace(temporary, path)
    except BaseException:
        os.remove(temporary)
        raise


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
    with _replacing(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        for _, _, chunks in converted:
            for chunk in chunks:
                fh.write(chunk)


def read(path, error: type[Exception], check, payloads) -> tuple[dict, dict]:
    """The verified header of a file, and its payload buffers by hash key.

    `check(header)` raises `error` for a file of another format or version;
    it runs first, so an older file, which may record no header hash, is
    named as such. The header hash is verified next, so no value of a
    corrupted header sizes a buffer. Then `payloads(header)` describes each
    payload, in file order, as (hash key, name in errors, shape, dtype, make):
    its hashed shape and disk dtype, from which the file size is checked
    before any buffer exists, and `make`, None for an array of that shape, or
    a function returning the buffer as a sequence of contiguous chunks,
    filled in order. Every failure raises `error`.
    """
    with open(path, "rb") as fh:
        try:
            header = json.loads(fh.readline())
        except ValueError:  # not JSON, or not UTF-8
            header = None
        if not isinstance(header, dict):
            raise error(f"{path}: missing or corrupt header")
        check(header)
        if "header_hash" not in header:
            raise error(f"{path}: missing or corrupt header")
        if _header_hash({k: v for k, v in header.items() if k != "header_hash"}) != header["header_hash"]:
            raise error(f"{path}: header does not match its recorded hash")
        try:
            specs = [(key, what, shape, _disk(dtype), make) for key, what, shape, dtype, make in payloads(header)]
        except (KeyError, TypeError, ValueError):
            raise error(f"{path}: missing or corrupt header") from None
        if any(type(length) is not int or length < 0 for _, _, shape, _, _ in specs for length in shape):
            raise error(f"{path}: missing or corrupt header")
        expected = sum(math.prod(shape) * dtype.itemsize for _, _, shape, dtype, _ in specs)
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        if size != expected:
            raise error(f"{path}: payload has {size} bytes, expected {expected} (truncated?)")

        def filled(what, chunks):
            for chunk in chunks:
                if fh.readinto(chunk) != chunk.nbytes:
                    raise error(f"{path}: {what} payload is truncated")
                yield chunk

        buffers = {}
        for key, what, shape, dtype, make in specs:
            buffers[key] = np.empty(shape, dtype) if make is None else make()
            # each chunk is hashed right after it is read, while it is in cache
            if payload_hash(shape, filled(what, _chunks(buffers[key])[1])) != header.get(key):
                raise error(f"{path}: {what} payload does not match its recorded hash")
    return header, buffers


def write_jsonl(path, header: dict | None, records: Iterable[dict]) -> None:
    """Write a `{"_header": header}` line unless `header` is None, then one key-sorted object per record."""
    with _replacing(path, "w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(json.dumps({"_header": header}, sort_keys=True, allow_nan=False) + "\n")
        for record in records:
            fh.write(json.dumps(record, sort_keys=True, allow_nan=False) + "\n")


def read_jsonl(path, error: type[Exception], parse: Callable[[dict], object]) -> tuple[list, dict | None]:
    """Each record of a JSON-lines file parsed by `parse`, and the object of its
    last `_header` line (None if none; concatenated files read as one). A line
    that is not an object or that `parse` rejects (`error`, KeyError, TypeError,
    AttributeError, ValueError, OverflowError) raises `error` naming the path and
    the line; a file that is not UTF-8 raises `error` naming the path."""
    records = []
    header = None
    with open(path, encoding="utf-8") as fh:
        try:
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
                except (error, TypeError, ValueError, AttributeError, OverflowError) as exc:
                    raise error(f"{path}: line {line_no}: {exc}") from None
        except UnicodeDecodeError:  # raised by the iteration, which decodes the file
            raise error(f"{path}: not UTF-8 text") from None
    return records, header


def _unique_keys(pairs: list) -> dict:
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"repeated key {key!r}")
        doc[key] = value
    return doc


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def read_json(path, error: type[Exception]) -> dict:
    """The top-level object of a JSON document. A file that is not UTF-8, is not
    JSON (`NaN` and `Infinity` included), has a top level other than an object
    or repeats a key inside one object raises `error` naming the path."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        doc = json.loads(data.decode("utf-8"), object_pairs_hook=_unique_keys, parse_constant=_reject_constant)
    except UnicodeDecodeError:
        raise error(f"{path}: not UTF-8 text") from None
    except ValueError as exc:  # JSONDecodeError included
        raise error(f"{path}: invalid JSON ({exc})") from None
    if type(doc) is not dict:
        raise error(f"{path}: the top level is {_json_type(doc)}, not an object")
    return doc


def write_json(path, doc: dict) -> None:
    """Write `doc` as one key-sorted JSON document with an indent of 2 and a
    trailing newline; a value JSON cannot hold (NaN) raises before the file opens."""
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    with _replacing(path, "w", encoding="utf-8") as fh:
        fh.write(text)


_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", int: "an integer",
               float: "a number", bool: "a boolean", type(None): "null"}


def _json_type(value) -> str:
    return _JSON_TYPES.get(type(value), type(value).__name__)


def check_fields(doc, where, error: type[Exception], required: dict, optional: dict | None = None) -> dict:
    """`doc`, if it is an object with every key of `required`, no key outside
    `required` and `optional`, and at each key a value of exactly the type
    mapped to it (so `true` is no integer). Else raises `error` naming `where`."""
    types = {**required, **(optional or {})}
    if type(doc) is not dict:
        raise error(f"{where}: expected an object, got {_json_type(doc)}")
    unknown = sorted(set(doc) - set(types))
    if unknown:
        raise error(f"{where}: unknown keys {unknown}")
    for key in required:
        if key not in doc:
            raise error(f"{where}: missing key {key!r}")
    for key, value in doc.items():
        if type(value) is not types[key]:
            raise error(f"{where}: {key!r} must be {_JSON_TYPES[types[key]]}, got {_json_type(value)}")
    return doc


def write_csv(path, header: Sequence[str], columns: Sequence[Sequence[str]]) -> None:
    """Write the `header` row, then one row per index of the equally long string `columns`."""
    with _replacing(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*columns))


def read_csv(path, error: type[Exception]) -> tuple[list[str], list[tuple[str, ...]]]:
    """The header row of a CSV file and its cells, one tuple per header name. A
    file that is empty or not UTF-8, or a row that `csv` cannot parse (a cell
    over `csv_cell_limit()`) or that is not as wide as the header, raises
    `error` naming the path and the row, counted from 0 at the header."""
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            for row in csv.reader(fh):
                rows.append(row)
        except UnicodeDecodeError:
            raise error(f"{path}: not UTF-8 text") from None
        except csv.Error as exc:
            raise error(f"{path}: row {len(rows)}: {exc}") from None
    if not rows:
        raise error(f"{path}: empty file")
    header = rows[0]
    for r in range(1, len(rows)):
        if len(rows[r]) != len(header):
            raise error(f"{path}: row {r} has {len(rows[r])} cells, expected {len(header)}")
    return header, [column[1:] for column in zip(*rows)]  # each column without its header cell


def csv_cell_limit() -> int:
    """The most characters `read_csv` takes in one cell: the `csv` module's
    process-wide `field_size_limit()`, which this package never changes."""
    return csv.field_size_limit()
