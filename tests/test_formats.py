"""The three binary formats: pinned writer bytes and a byte-level fuzz of the readers.

Every damaged file must end in a CornError subclass (never a MemoryError,
ValueError or UnicodeDecodeError), and a truncated or over-long file must be
refused, not read as a shorter one.
"""

import hashlib
import struct
import tracemalloc

import numpy as np
import pytest

from corn.contactgen import ContactRecord, read_dataset, write_dataset
from corn.encoder import load_checkpoint, save_checkpoint
from corn.errors import CornError, DatasetIoError, TruncatedRecord
from corn.percept import read_pcseq, write_pcseq


def dataset_records():
    return [
        ContactRecord(object_id=3, seed=2**63 + 5,
                      pose7=[0.1, -0.2, 0.3, 0.0, 0.0, 0.6, 0.8],
                      points=np.arange(12).reshape(4, 3) * 0.25, labels=[1, 0, 1, 1]),
        ContactRecord(object_id=0, seed=7, pose7=[0, 0, 0, 0, 0, 0, 1],
                      points=[[-1.5, 2.0, 1e-3]], labels=[0]),
    ]


def checkpoint_arrays():
    return {"w": np.arange(6.0).reshape(2, 3) * 0.5, "a.scalar": np.array(1.5),
            "b": np.array([-1.0, 2.0**-30])}


def pcseq_frames():
    return [np.arange(9.0).reshape(3, 3) / 8, np.zeros((0, 3)), [[1.0, 2.0, 3.0]]]


# name -> (writer(inputs, path), reader, inputs)
FORMATS = {
    "dataset": (write_dataset, read_dataset, dataset_records),
    "checkpoint": (lambda arrays, path: save_checkpoint(path, arrays), load_checkpoint,
                   checkpoint_arrays),
    "pcseq": (write_pcseq, read_pcseq, pcseq_frames),
}

WRITER_SHA256 = {
    "dataset": "cedbb0b1b6c9069639914dccf7b70010e4051f43f57ad1560890679b19448f7a",
    "checkpoint": "944426b9d16f6a7db69f990e00157d01b82c4bc2f6d794f0edbe7ae5e1e62dbb",
    "pcseq": "276f7921f47e12b4a9765ee137c472e9764610de9786c12b4e47af69ddd03dd5",
}


def valid_bytes(kind, tmp_path) -> bytes:
    write, _, inputs = FORMATS[kind]
    path = tmp_path / f"valid.{kind}"
    write(inputs(), path)
    return path.read_bytes()


@pytest.mark.parametrize("kind", FORMATS)
def test_writer_bytes_pinned(kind, tmp_path):
    assert hashlib.sha256(valid_bytes(kind, tmp_path)).hexdigest() == WRITER_SHA256[kind]


def damaged(raw: bytes):
    """(label, bytes) for every truncation, byte set and bit flip, plus 3 appended bytes."""
    for cut in range(len(raw)):
        yield f"truncated at {cut}", raw[:cut]
    for i in range(len(raw)):
        for label, value in (("0x00", 0x00), ("0xFF", 0xFF), ("bit 0", raw[i] ^ 0x01),
                             ("bit 7", raw[i] ^ 0x80)):
            yield f"byte {i} {label}", raw[:i] + bytes([value]) + raw[i + 1:]
    yield "3 bytes appended", raw + b"\x00\x01\x02"


def tensor_ends(raw: bytes):
    """Offsets where a checkpoint tensor record ends."""
    ends, pos = [], 8
    while pos < len(raw):
        (size,) = struct.unpack_from("<H", raw, pos)
        rank = raw[pos + 2 + size]
        dims = struct.unpack_from(f"<{rank}I", raw, pos + 3 + size)
        pos += 3 + size + 4 * rank + 8 * int(np.prod(dims))
        ends.append(pos)
    return ends


@pytest.mark.parametrize("kind", FORMATS)
def test_damaged_file_ends_in_corn_error(kind, tmp_path):
    _, read, _ = FORMATS[kind]
    raw = valid_bytes(kind, tmp_path)
    # A checkpoint has no tensor count: cut at a tensor boundary it is a
    # shorter valid checkpoint, which params_from_arrays rejects by name.
    boundaries = {8, *tensor_ends(raw)} if kind == "checkpoint" else set()
    path = tmp_path / f"damaged.{kind}"
    for label, data in damaged(raw):
        path.write_bytes(data)
        must_fail = label == "3 bytes appended" or (
            label.startswith("truncated") and len(data) not in boundaries)
        try:
            read(path)
        except DatasetIoError:
            continue
        except CornError:
            assert not must_fail, label
            continue
        except Exception as exc:  # noqa: BLE001 - the point of the test
            pytest.fail(f"{kind} {label}: {type(exc).__name__}: {exc}")
        assert not must_fail, f"{kind} {label} was read without an error"


def test_checkpoint_cut_at_tensor_boundary_is_a_prefix(tmp_path):
    raw = valid_bytes("checkpoint", tmp_path)
    names = sorted(checkpoint_arrays())
    path = tmp_path / "cut.ckpt"
    for k, end in enumerate(tensor_ends(raw)):
        path.write_bytes(raw[:end])
        assert sorted(load_checkpoint(path)) == names[:k + 1]


def test_valid_files_read_back_exactly(tmp_path):
    for kind in FORMATS:
        valid_bytes(kind, tmp_path)
    for a, b in zip(dataset_records(), read_dataset(tmp_path / "valid.dataset"), strict=True):
        assert (a.object_id, a.seed) == (b.object_id, b.seed)
        assert a.pose7.tobytes() == b.pose7.tobytes() and a.points.tobytes() == b.points.tobytes()
        assert np.array_equal(a.labels, b.labels)
    arrays = load_checkpoint(tmp_path / "valid.checkpoint")
    assert set(arrays) == set(checkpoint_arrays())
    for name, value in checkpoint_arrays().items():
        assert arrays[name].shape == value.shape and np.array_equal(arrays[name], value)
    frames = read_pcseq(tmp_path / "valid.pcseq")
    assert [f.points.tolist() for f in frames] == [np.asarray(f).tolist() for f in pcseq_frames()]


def test_pcseq_huge_point_count_allocates_nothing(tmp_path):
    path = tmp_path / "huge.pcseq"
    path.write_bytes(struct.pack("<4sIII", b"PCSQ", 1, 1, 2**32 - 1) + bytes(64))
    tracemalloc.start()
    try:
        with pytest.raises(TruncatedRecord):
            read_pcseq(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
