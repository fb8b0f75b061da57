"""The three binary file formats and the one bounded reader they share.

All three are little-endian and open with a 4-byte magic and a u32 version.

Dataset (.corn): magic "CORN", u32 version, u64 record count; per record
u32 object_id, u64 seed, 7 x f32 pose (tx,ty,tz,qx,qy,qz,qw), u16 n_points,
n_points x 3 f32 points, n_points x u8 labels.

Checkpoint (.ckpt): magic "CKPT", u32 version; then, repeated to the end of
the file, u16 name length, UTF-8 name, u8 rank, rank x u32 dims,
prod(dims) x f64 values.

Cloud sequence (.pcseq): magic "PCSQ", u32 version, u32 frame count; per
frame u32 n, then n x 3 f32 points.

A Reader reads the whole file once and checks every size against the bytes
left before it allocates anything, so a damaged file ends in a
DatasetIoError (BadMagic, UnsupportedVersion, TruncatedRecord or trailing
bytes), never in a MemoryError or a silently shorter result.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import BadMagic, DatasetIoError, TruncatedRecord, UnsupportedVersion

DATASET_MAGIC, DATASET_FORMAT_VERSION = b"CORN", 1
CHECKPOINT_MAGIC, CHECKPOINT_FORMAT_VERSION = b"CKPT", 1
PCSEQ_MAGIC, PCSEQ_FORMAT_VERSION = b"PCSQ", 1


class Reader:
    """Cursor over the bytes of one file of the named kind."""

    def __init__(self, path, kind: str):
        with open(path, "rb") as fh:
            self.buf = fh.read()
        self.pos = 0
        self.kind = kind

    def left(self) -> int:
        return len(self.buf) - self.pos

    def _take(self, size: int, what: str) -> int:
        """Claim the next `size` bytes and return their offset."""
        if size > self.left():
            raise TruncatedRecord(f"{self.kind} file ends inside {what}")
        start = self.pos
        self.pos += size
        return start

    def header(self, magic: bytes, version: int, fmt: str = "") -> list:
        """Check magic and version; return the header fields `fmt` describes."""
        found, found_version, *rest = self.unpack("<4sI" + fmt, "header")
        if found != magic:
            raise BadMagic(f"expected {magic!r}, found {found!r}")
        if found_version != version:
            raise UnsupportedVersion(f"{self.kind} version {found_version} not supported")
        return rest

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack_from(fmt, self.buf, self._take(struct.calcsize(fmt), what))

    def array(self, dtype, count: int, what: str) -> np.ndarray:
        """The next `count` items of `dtype`, copied out of the file buffer."""
        dtype = np.dtype(dtype)
        return np.frombuffer(self.buf, dtype, count, self._take(dtype.itemsize * count, what)).copy()

    def name(self, what: str) -> str:
        """A u16 length and that many bytes of UTF-8."""
        (size,) = self.unpack("<H", what + " length")
        start = self._take(size, what)
        try:
            return self.buf[start:start + size].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DatasetIoError(f"{self.kind} {what} is not UTF-8: {exc}") from None

    def end(self) -> None:
        if self.left():
            raise DatasetIoError(f"{self.kind} file has {self.left()} bytes after its last record")
