"""File formats: model and encoded-matrix files share one verifying binary
codec; query, workload and prediction files share one JSON-lines codec; the
JSON documents share one reader and one writer; relation and scatter CSVs share
one reader and one writer. No other module opens a file."""

import ast
import json
from pathlib import Path

import numpy as np
import pytest

from nngp_card import artifact, gp
from nngp_card.encoder import EncodingError, load_encoded, save_encoded
from nngp_card.gp import ModelIOError
from nngp_card.kernel import KernelConfig

N, D = 9, 5


def _model(path):
    rng = np.random.default_rng(4)
    est = gp.fit(rng.uniform(0, 1, (N, D)), rng.uniform(0, 8, N), KernelConfig())
    gp.save(est, path)

    def load(p):
        loaded = gp.load(p)
        return [loaded.X_train, loaded.y_log, loaded.chol, loaded.w]

    # the factor is stored as its lower triangle: N (N + 1) / 2 values
    sizes = [N * D * 8, N * 8, N * (N + 1) // 2 * 8, N * 8]
    return load, ModelIOError, [est.X_train, est.y_log, est.chol, est.w], sizes


def _encoded(with_ids, with_targets):
    def make(path):
        rng = np.random.default_rng(5)
        arrays = [rng.uniform(size=(N, D))]
        ids = np.arange(N, dtype=np.int64) * 7 - 20 if with_ids else None
        targets = rng.uniform(0, 9, N) if with_targets else None
        save_encoded(path, arrays[0], "layout", ids=ids, targets_log=targets)
        arrays += [a for a in (ids, targets) if a is not None]

        def load(p):
            matrix, ids, targets, _ = load_encoded(p)
            return [a for a in (matrix, ids, targets) if a is not None]

        return load, EncodingError, arrays, [a.nbytes for a in arrays]

    return make


CASES = {
    "model": _model,
    "encoded": _encoded(True, True),
    "encoded-ids": _encoded(True, False),
    "encoded-bare": _encoded(False, False),
}


@pytest.fixture(params=sorted(CASES))
def saved(request, tmp_path):
    """(path, load -> payload arrays, typed error, payload arrays as saved,
    payload sizes in the file)."""
    path = tmp_path / "artifact.bin"
    return (path, *CASES[request.param](path))


def _payload_start(data):
    return data.index(b"\n") + 1


class TestArtifactFiles:
    def test_round_trip_is_exact(self, saved):
        path, load, _, arrays, _ = saved
        loaded = load(path)
        assert len(loaded) == len(arrays)
        for got, want in zip(loaded, arrays):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_one_hash_per_payload(self, saved):
        path, _, _, arrays, _ = saved
        header = json.loads(path.read_bytes().split(b"\n", 1)[0])
        hashes = {key for key in header if key.endswith("_hash") and key not in ("layout_hash", "header_hash")}
        assert len(hashes) == len(arrays)

    def test_one_bit_flip_in_each_payload_rejected(self, saved):
        path, load, error, _, sizes = saved
        data = path.read_bytes()
        start = _payload_start(data)
        for nbytes in sizes:
            for offset in (0, nbytes // 2, nbytes - 1):
                bad = bytearray(data)
                bad[start + offset] ^= 0x10
                path.write_bytes(bytes(bad))
                with pytest.raises(error, match="does not match its recorded hash"):
                    load(path)
            start += nbytes
        assert start == len(data)

    def test_any_header_change_rejected(self, saved):
        """The header hash covers every other key: a changed value, an added
        or removed key, or a removed hash fails the load."""
        path, load, error, _, _ = saved
        head, payload = path.read_bytes().split(b"\n", 1)
        header = json.loads(head)
        variants = [{k: v for k, v in header.items() if k != "header_hash"}, dict(header, extra=1)]
        for key, value in header.items():
            if key not in ("format", "version", "header_hash"):
                variants.append(dict(header, **{key: _changed(value)}))
                variants.append({k: v for k, v in header.items() if k != key})
        for bad in variants:
            path.write_bytes(json.dumps(bad, sort_keys=True).encode() + b"\n" + payload)
            with pytest.raises(error):
                load(path)
        path.write_bytes(head + b"\n" + payload)
        load(path)

    def test_one_bit_flip_in_header_rejected(self, saved):
        path, load, error, _, _ = saved
        data = path.read_bytes()
        head = data[: _payload_start(data) - 1]
        # a flip inside the header hash, a payload hash and the row count (9 -> 8)
        for key, offset in ((b'"header_hash": "', 3), (b'_hash": "', 3), (b'"n": ', 0)):
            bad = bytearray(data)
            bad[head.index(key) + len(key) + offset] ^= 0x01
            path.write_bytes(bytes(bad))
            with pytest.raises(error, match="header does not match its recorded hash"):
                load(path)

    def test_header_is_verified_before_it_sizes_a_buffer(self, saved):
        """A row count raised to 5,000,000 fails as a corrupt header, not as an
        allocation of the buffers it would size (182 TiB for a model's factor),
        whether the header hash is left stale or removed."""
        path, load, error, _, _ = saved
        head, payload = path.read_bytes().split(b"\n", 1)
        stale = dict(json.loads(head), n=5_000_000)
        removed = {k: v for k, v in stale.items() if k != "header_hash"}
        for bad, message in ((stale, "header does not match its recorded hash"), (removed, "missing or corrupt header")):
            path.write_bytes(json.dumps(bad, sort_keys=True).encode() + b"\n" + payload)
            with pytest.raises(error, match=message):
                load(path)

    def test_oversized_header_fails_on_the_file_size(self, saved):
        """A row count raised and re-hashed, as a writer would record it, fails on
        the file size before any buffer exists, where the buffers it sizes could
        not be allocated: a model's 5,000,000^2 factor, or 5 * 10^12 encoded rows,
        182 TiB each."""
        path, load, error, _, _ = saved
        head, payload = path.read_bytes().split(b"\n", 1)
        header = json.loads(head)
        header["n"] = 5_000_000 if error is ModelIOError else 5 * 10**12
        del header["header_hash"]
        header["header_hash"] = artifact._header_hash(header)
        path.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + payload)
        with pytest.raises(error, match=rf"payload has {len(payload)} bytes, expected \d+ "):
            load(path)

    def test_truncated_or_trailing_bytes_rejected(self, saved):
        path, load, error, _, _ = saved
        data = path.read_bytes()
        for bad in (data[:-1], data[:-8], data[: _payload_start(data)], data + b"\0", data + bytes(8)):
            path.write_bytes(bad)
            with pytest.raises(error, match="truncated"):
                load(path)

    def test_corrupt_header_rejected(self, saved):
        path, load, error, _, _ = saved
        head, payload = path.read_bytes().split(b"\n", 1)
        sizeless = json.loads(head)
        del sizeless["n"]
        rehashed = {k: v for k, v in sizeless.items() if k != "header_hash"}
        rehashed["header_hash"] = artifact._header_hash(rehashed)  # as a writer would record it
        cases = [
            (b"not json", "missing or corrupt"),
            (b"[1, 2]", "missing or corrupt"),
            (b"\xff\xfe{}", "missing or corrupt"),
            (json.dumps(sizeless).encode(), "header does not match its recorded hash"),
            (json.dumps(rehashed).encode(), "missing or corrupt"),
        ]
        for bad, match in cases:
            path.write_bytes(bad + b"\n" + payload)
            with pytest.raises(error, match=match):
                load(path)


def _changed(value):
    """A different JSON value of the same kind."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "0"
    return dict(value, noise_sq=value["noise_sq"] * 3)  # the model's kernel config


def test_chunked_payload_hashes_as_its_concatenation(tmp_path):
    """A payload given as chunks is written back to back and hashed as the
    1-d array they concatenate to; reading fills the chunks in order."""
    L = np.asfortranarray(np.tril(np.arange(1.0, 17.0).reshape(4, 4)))
    columns = [L[j:, j] for j in range(4)]
    path = tmp_path / "chunks.bin"
    artifact.write(path, {"kind": "test"}, [("tri_hash", columns, np.float64)])
    packed = np.concatenate(columns)
    head, payload = path.read_bytes().split(b"\n", 1)
    assert payload == packed.astype("<f8").tobytes()
    assert json.loads(head)["tri_hash"] == artifact.payload_hash(packed.shape, [packed])
    out = np.zeros((4, 4), order="F")
    header, buffers = artifact.read(
        path, ValueError, lambda h: None,
        lambda h: [("tri_hash", "triangle", (10,), "<f8", lambda: [out[j:, j] for j in range(4)])],
    )
    assert header["kind"] == "test" and np.array_equal(out, L)
    assert all(np.shares_memory(chunk, out) for chunk in buffers["tri_hash"])


def test_hash_covers_shape_and_bytes():
    def digest(arr):
        return artifact.payload_hash(arr.shape, [arr])

    a = np.arange(6, dtype=np.float64)
    assert digest(a) != digest(a.reshape(2, 3))
    assert digest(a) != digest(a.astype(np.int64))
    assert digest(a) == digest(a.copy())
    # chunk boundaries are not hashed, only the bytes in order
    assert digest(a) == artifact.payload_hash(a.shape, [a[:1], a[1:4], a[4:]])


class JsonlError(Exception):
    pass


def _pair(doc):
    return doc["a"], int(doc["b"])


class TestJsonl:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "x.jsonl"
        records = [{"b": 2, "a": "x"}, {"a": "y", "b": 3, "c": [1.5, None]}]
        artifact.write_jsonl(path, {"n": 2, "tool": "t"}, records)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == '{"_header": {"n": 2, "tool": "t"}}'
        assert lines[1] == '{"a": "x", "b": 2}'  # keys sorted
        assert artifact.read_jsonl(path, JsonlError, _pair) == ([("x", 2), ("y", 3)], {"n": 2, "tool": "t"})

    def test_no_header_blank_lines_and_concatenation(self, tmp_path):
        path = tmp_path / "x.jsonl"
        artifact.write_jsonl(path, None, [{"a": "x", "b": 1}])
        assert artifact.read_jsonl(path, JsonlError, _pair) == ([("x", 1)], None)
        path.write_text('{"_header": {"n": 1}}\n\n{"a": "x", "b": 1}\n  \n{"_header": {"n": 2}}\n', encoding="utf-8")
        # the last header wins, so concatenated files read as one
        assert artifact.read_jsonl(path, JsonlError, _pair) == ([("x", 1)], {"n": 2})

    def test_non_finite_float_is_not_written(self, tmp_path):
        with pytest.raises(ValueError):
            artifact.write_jsonl(tmp_path / "x.jsonl", None, [{"a": float("nan")}])

    @pytest.mark.parametrize(
        "line, message",
        [
            ("not json", "invalid JSON"),
            ("[1, 2]", "not a JSON object"),
            ("7", "not a JSON object"),
            ('{"_header": [1]}', "header is not a JSON object"),
            ('{"a": "x"}', "missing key 'b'"),
            ('{"a": "x", "b": "seven"}', "invalid literal"),
            ('{"a": "x", "b": null}', "int()"),
        ],
    )
    def test_bad_line_names_path_and_line(self, tmp_path, line, message):
        path = tmp_path / "x.jsonl"
        path.write_text('{"_header": {}}\n{"a": "x", "b": 1}\n\n' + line + "\n", encoding="utf-8")
        with pytest.raises(JsonlError, match="line 4") as info:
            artifact.read_jsonl(path, JsonlError, _pair)
        assert str(info.value).startswith(f"{path}: line 4: ") and message in str(info.value)

    def test_callers_own_error_gets_the_location(self, tmp_path):
        def parse(doc):
            raise JsonlError("bad record")

        path = tmp_path / "x.jsonl"
        path.write_text('{"a": 1}\n', encoding="utf-8")
        with pytest.raises(JsonlError, match=r"x\.jsonl: line 1: bad record"):
            artifact.read_jsonl(path, JsonlError, parse)


class TestJsonDocument:
    def test_writer_bytes(self, tmp_path):
        path = tmp_path / "x.json"
        artifact.write_json(path, {"b": [1, 2.5], "a": {"d": None, "c": "é"}})
        assert path.read_bytes() == (
            b'{\n  "a": {\n    "c": "\\u00e9",\n    "d": null\n  },\n  "b": [\n    1,\n    2.5\n  ]\n}\n'
        )
        assert artifact.read_json(path, JsonlError) == {"a": {"c": "é", "d": None}, "b": [1, 2.5]}

    def test_non_finite_float_is_not_written(self, tmp_path):
        with pytest.raises(ValueError):
            artifact.write_json(tmp_path / "x.json", {"a": float("inf")})
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize(
        "data, message",
        [
            (b'{"a": \xff}', "not UTF-8"),
            (b'{"a": 1,}', "invalid JSON"),
            (b"", "invalid JSON"),
            (b'{"a": NaN}', "NaN is not a JSON number"),
            (b'{"a": [-Infinity]}', "-Infinity is not a JSON number"),
            (b'{"a": {"b": 1, "b": 2}}', "repeated key 'b'"),
            (b"[1, 2]", "top level is an array"),
            (b'"text"', "top level is a string"),
        ],
    )
    def test_bad_document_names_path(self, tmp_path, data, message):
        path = tmp_path / "x.json"
        path.write_bytes(data)
        with pytest.raises(JsonlError) as info:
            artifact.read_json(path, JsonlError)
        assert str(info.value).startswith(f"{path}: ") and message in str(info.value)

    @pytest.mark.parametrize(
        "doc, message",
        [
            ([1], "expected an object, got an array"),
            ({"n": 1, "extra": 2, "more": 3}, "unknown keys ['extra', 'more']"),
            ({"name": "r"}, "missing key 'n'"),
            ({"n": True}, "'n' must be an integer, got a boolean"),
            ({"n": 1, "name": None}, "'name' must be a string, got null"),
        ],
    )
    def test_check_fields(self, doc, message):
        with pytest.raises(JsonlError, match="^where: ") as info:
            artifact.check_fields(doc, "where", JsonlError, {"n": int}, {"name": str})
        assert message in str(info.value)
        assert artifact.check_fields({"n": 2}, "where", JsonlError, {"n": int}, {"name": str}) == {"n": 2}


class TestCsv:
    def test_round_trip_bytes(self, tmp_path):
        path = tmp_path / "x.csv"
        artifact.write_csv(path, ["a", "b"], [["1.5", "2"], ["x", "y z"]])
        assert path.read_bytes() == b"a,b\r\n1.5,x\r\n2,y z\r\n"
        assert artifact.read_csv(path, JsonlError) == (["a", "b"], [("1.5", "2"), ("x", "y z")])

    def test_header_only(self, tmp_path):
        path = tmp_path / "x.csv"
        artifact.write_csv(path, ["a", "b"], [[], []])
        assert path.read_bytes() == b"a,b\r\n"
        assert artifact.read_csv(path, JsonlError) == (["a", "b"], [(), ()])

    def test_quoted_cells(self, tmp_path):
        path = tmp_path / "x.csv"
        cells = ["x,y\nz", 'say "hi"', "plain"]
        artifact.write_csv(path, ["a"], [cells])
        assert path.read_bytes() == b'a\r\n"x,y\nz"\r\n"say ""hi"""\r\nplain\r\n'
        assert artifact.read_csv(path, JsonlError) == (["a"], [tuple(cells)])

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"", "empty file"),
            (b"a,b\r\n1,2\r\n3\r\n", "row 2 has 1 cells, expected 2"),
            (b"a,b\r\n1,2,3\r\n", "row 1 has 3 cells, expected 2"),
            (b"a\r\n\xff\r\n", "not UTF-8 text"),
            (b"a\r\n" + b"x" * 131_073 + b"\r\n", "row 1: field larger than field limit (131072)"),
            (b"a" * 131_073 + b"\r\n", "row 0: field larger than field limit (131072)"),
        ],
    )
    def test_bad_file_names_path(self, tmp_path, data, message):
        path = tmp_path / "x.csv"
        path.write_bytes(data)
        with pytest.raises(JsonlError) as info:
            artifact.read_csv(path, JsonlError)
        assert str(info.value) == f"{path}: {message}"


def _cut_after(items):
    yield from items
    raise RuntimeError("cut mid-stream")


@pytest.mark.parametrize(
    "write",
    [
        pytest.param(lambda p: artifact.write_jsonl(p, {"n": 3}, _cut_after([{"a": 1}] * 2)), id="jsonl"),
        pytest.param(lambda p: artifact.write_csv(p, ["a"], [_cut_after(["1"] * 2)]), id="csv"),
    ],
)
def test_a_write_cut_mid_stream_leaves_the_previous_file(tmp_path, write):
    """The previous file stays as it was, and no temporary sibling is left behind;
    a whole write then replaces it, again with no sibling left."""
    path = tmp_path / "out"
    artifact.write_json(path, {"previous": True})
    before = path.read_bytes()
    with pytest.raises(RuntimeError, match="cut mid-stream"):
        write(path)
    assert path.read_bytes() == before and list(tmp_path.iterdir()) == [path]
    artifact.write_jsonl(path, None, [{"a": 1}])
    assert path.read_bytes() == b'{"a": 1}\n' and list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize(
    "write",
    [
        pytest.param(lambda p: artifact.write(p, {"kind": "test"}, [("x_hash", np.zeros(3), "<f8")]), id="binary"),
        pytest.param(lambda p: artifact.write_jsonl(p, None, [{"a": 1}]), id="jsonl"),
        pytest.param(lambda p: artifact.write_json(p, {"a": 1}), id="json"),
        pytest.param(lambda p: artifact.write_csv(p, ["a"], [["1"]]), id="csv"),
    ],
)
def test_a_failed_replace_leaves_no_sibling(tmp_path, write):
    """A destination that is a directory fails only at the final replace, after
    the last byte is written; the temporary sibling is removed all the same."""
    path = tmp_path / "out"
    path.mkdir()
    with pytest.raises(IsADirectoryError):
        write(path)
    assert list(tmp_path.iterdir()) == [path] and list(path.iterdir()) == []


# the calls that open a file, as a bare name or as a method (`Path.open`, `os.open`, ...)
_OPENERS = {"open", "read_text", "write_text", "read_bytes", "write_bytes"}


def test_only_artifact_opens_files():
    """Every module but `artifact` leaves files to it: none calls a file opener or imports `csv`."""
    found = []
    for path in sorted(Path(artifact.__file__).parent.glob("*.py")):
        if path.name == "artifact.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in _OPENERS:
                    found.append(f"{path.name}:{node.lineno} calls {name}")
            elif isinstance(node, ast.Import) and any(alias.name == "csv" for alias in node.names):
                found.append(f"{path.name}:{node.lineno} imports csv")
            elif isinstance(node, ast.ImportFrom) and node.module == "csv":
                found.append(f"{path.name}:{node.lineno} imports from csv")
    assert found == []
