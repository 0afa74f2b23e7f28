"""Binary artifacts: model and encoded-matrix files share one verifying codec."""

import json

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
        return [loaded.X_train, loaded.y_log, loaded.chol, loaded.alpha]

    return load, ModelIOError, [est.X_train, est.y_log, est.chol, est.alpha]


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

        return load, EncodingError, arrays

    return make


CASES = {
    "model": _model,
    "encoded": _encoded(True, True),
    "encoded-ids": _encoded(True, False),
    "encoded-bare": _encoded(False, False),
}


@pytest.fixture(params=sorted(CASES))
def saved(request, tmp_path):
    """(path, load -> payload arrays, typed error, payload arrays as saved)."""
    path = tmp_path / "artifact.bin"
    load, error, arrays = CASES[request.param](path)
    return path, load, error, arrays


def _payload_start(data):
    return data.index(b"\n") + 1


class TestArtifactFiles:
    def test_round_trip_is_exact(self, saved):
        path, load, _, arrays = saved
        loaded = load(path)
        assert len(loaded) == len(arrays)
        for got, want in zip(loaded, arrays):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_one_hash_per_payload(self, saved):
        path, _, _, arrays = saved
        header = json.loads(path.read_bytes().split(b"\n", 1)[0])
        hashes = {key for key in header if key.endswith("_hash") and key != "layout_hash"}
        assert len(hashes) == len(arrays)

    def test_one_bit_flip_in_each_payload_rejected(self, saved):
        path, load, error, arrays = saved
        data = path.read_bytes()
        start = _payload_start(data)
        for arr in arrays:
            for offset in (0, arr.nbytes // 2, arr.nbytes - 1):
                bad = bytearray(data)
                bad[start + offset] ^= 0x10
                path.write_bytes(bytes(bad))
                with pytest.raises(error, match="does not match its recorded hash"):
                    load(path)
            start += arr.nbytes
        assert start == len(data)

    def test_truncated_or_trailing_bytes_rejected(self, saved):
        path, load, error, _ = saved
        data = path.read_bytes()
        for bad in (data[:-1], data[:-8], data[: _payload_start(data)], data + b"\0", data + bytes(8)):
            path.write_bytes(bad)
            with pytest.raises(error, match="truncated"):
                load(path)

    def test_corrupt_header_rejected(self, saved):
        path, load, error, _ = saved
        head, payload = path.read_bytes().split(b"\n", 1)
        sizeless = json.loads(head)
        del sizeless["n"]
        cases = [
            (b"not json", "missing or corrupt"),
            (b"[1, 2]", "missing or corrupt"),
            (b"\xff\xfe{}", "missing or corrupt"),
            (json.dumps(sizeless).encode(), "missing or corrupt"),
        ]
        for bad, match in cases:
            path.write_bytes(bad + b"\n" + payload)
            with pytest.raises(error, match=match):
                load(path)


def test_hash_covers_shape_and_bytes():
    a = np.arange(6, dtype=np.float64)
    assert artifact.array_hash(a) != artifact.array_hash(a.reshape(2, 3))
    assert artifact.array_hash(a) != artifact.array_hash(a.astype(np.int64))
    assert artifact.array_hash(a) == artifact.array_hash(a.copy())
