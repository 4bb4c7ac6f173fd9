"""Single-file partitioned image format.

An image is one file holding a fixed header, a payload area, and a
descriptor table at the end. All integers are little-endian.

Header, 60 bytes:

    offset  size  field
    0       4     magic "BOXI"
    4       4     format version (u32, currently 1)
    8       16    image uuid (RFC 4122 bytes)
    24      8     created-at, integer epoch seconds (u64)
    32      8     modified-at, integer epoch seconds (u64)
    40      4     descriptor count (u32)
    44      8     descriptor table offset (u64)
    52      8     payload area offset (u64, always 60)

Descriptor, 160 bytes each, one per partition:

    offset  size  field
    0       4     partition id (u32, unique, assigned from 1)
    4       4     datatype code (u32)
    8       4     filesystem code (u32)
    12      4     partition-type code (u32)
    16      4     architecture code (u32)
    20      64    name, UTF-8, zero padded
    84      8     payload offset (u64)
    92      8     payload size (u64)
    100     32    SHA-256 of the payload bytes
    132     28    reserved, zero

Opening an image reads only the header and the descriptor table, which it
finds at the table offset; the extents are checked against the file size.
A FIFO is rejected before anything is read from it.
A payload is read, and its checksum verified, only when it is dumped whole,
streamed, or carried forward by a change. One reader does all three: it
reads exactly a payload's extent, in chunks of at most CHUNK_BYTES into
one reused buffer, hashes each, and raises CorruptPartition after the last
chunk if the digest differs, so no streamed payload is held whole and only
one read to its end has been checked; a dump joins the chunks. raw_payload
hands out a payload's unverified bytes for a header-only pass that its
stream verifies afterwards.

An image file is written whole or not at all, by one writer. It takes
one source per partition: new bytes, consecutive byte pieces (such as an
archive encoded on the fly, which may itself read another payload's
stream), or a payload kept from the image's current file, which is copied
through the chunk reader. Each new payload is hashed as it is written; the
descriptor table follows the payloads, and the header, which points at the
table, is written last. Creating an image writes the new file this way; a
path that is not a regular file, such as a FIFO, is refused first, and a
failed write removes the file. Every later change (add, delete, update,
storing metadata) writes the whole image to a temp file beside it, fsyncs
that file and renames it over the old one, so a crash, or an error raised
by a source partway through, leaves either the old image or the new one.
The rewritten file keeps the permission bits of the one it replaces. A
payload that a change replaces or drops is never read.
"""

from __future__ import annotations

import hashlib
import io
import os
import stat
import struct
import tempfile
import time
import uuid as uuidlib
from contextlib import contextmanager
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Mapping, Sequence, Union

from .errors import (
    CorruptPartition,
    DuplicatePrimary,
    InvalidName,
    IoError,
    NoFreePartitionId,
    NoSuchPartition,
    NotABoxImage,
    TruncatedImage,
    UnknownCode,
)

MAGIC = b"BOXI"
FORMAT_VERSION = 1

_HEADER = struct.Struct("<4sI16sQQIQQ")
_DESCRIPTOR = struct.Struct("<IIIII64sQQ32s28x")

HEADER_SIZE = _HEADER.size  # 60
DESCRIPTOR_SIZE = _DESCRIPTOR.size  # 160
MAX_PARTITION_ID = 0xFFFFFFFF  # a u32 field

# datatype codes
DATA_RECIPE = 1
DATA_ENVIRONMENT = 2
DATA_JSON = 3
DATA_PARTITION = 4

# filesystem codes
FS_ARCHIVE_RO = 1
FS_ARCHIVE_RW = 2

# partition-type codes
PART_SYSTEM = 1
PART_SYSTEM_PRIMARY = 2
PART_DATA = 3
PART_METADATA = 4

# architecture codes (there is deliberately no code 1)
ARCH_ANY = 0
ARCH_X86_64 = 2

DATATYPE_NAMES = {
    DATA_RECIPE: "recipe",
    DATA_ENVIRONMENT: "environment",
    DATA_JSON: "json-generic",
    DATA_PARTITION: "partition",
}
FSTYPE_NAMES = {
    FS_ARCHIVE_RO: "archive-ro",
    FS_ARCHIVE_RW: "archive-rw",
}
PARTTYPE_NAMES = {
    PART_SYSTEM: "system",
    PART_SYSTEM_PRIMARY: "system-primary",
    PART_DATA: "data",
    PART_METADATA: "metadata",
}
ARCH_NAMES = {
    ARCH_ANY: "any",
    ARCH_X86_64: "x86-64",
}

NAME_FIELD_BYTES = 64

METADATA_PARTITION_NAME = "metadata"

# A payload is streamed, and a kept one copied forward, in reads of at most
# this many bytes.
CHUNK_BYTES = 1 << 20

# What a changed partition's payload comes from: bytes, consecutive byte
# pieces, or a function of the commit's modified-at time returning bytes.
Source = Union[bytes, Iterable[bytes], Callable[[int], bytes]]


def iso_utc(epoch_seconds: int) -> str:
    """Render integer epoch seconds as an ISO-8601 UTC timestamp."""
    moment = datetime.fromtimestamp(epoch_seconds, tz=timezone.utc)
    return moment.strftime("%Y-%m-%dT%H:%M:%SZ")


def _checked_name(name: str, what: str) -> bytes:
    if not name:
        raise InvalidName(f"{what} name is empty")
    if "\x00" in name:
        raise InvalidName(f"{what} name contains NUL")
    try:
        raw = name.encode("utf-8")
    except UnicodeEncodeError:
        raise InvalidName(f"{what} name is not UTF-8: {name!r}") from None
    if len(raw) > NAME_FIELD_BYTES:
        raise InvalidName(f"{what} name exceeds {NAME_FIELD_BYTES} bytes: {name!r}")
    return raw


def _checked_codes(datatype: int, fstype: int, parttype: int, arch: int) -> None:
    if datatype not in DATATYPE_NAMES:
        raise UnknownCode(f"datatype {datatype} not in {sorted(DATATYPE_NAMES)}")
    if fstype not in FSTYPE_NAMES:
        raise UnknownCode(f"fstype {fstype} not in {sorted(FSTYPE_NAMES)}")
    if parttype not in PARTTYPE_NAMES:
        raise UnknownCode(f"parttype {parttype} not in {sorted(PARTTYPE_NAMES)}")
    if arch not in ARCH_NAMES:
        raise UnknownCode(f"arch {arch} not in {sorted(ARCH_NAMES)}")


@dataclass(frozen=True)
class PartitionDescriptor:
    """Decoded form of one 160-byte descriptor record."""

    partition_id: int
    datatype: int
    fstype: int
    parttype: int
    arch: int
    name: str
    payload_offset: int
    payload_size: int
    checksum: bytes

    def pack(self) -> bytes:
        return _DESCRIPTOR.pack(
            self.partition_id,
            self.datatype,
            self.fstype,
            self.parttype,
            self.arch,
            self.name.encode("utf-8"),
            self.payload_offset,
            self.payload_size,
            self.checksum,
        )


@dataclass(frozen=True)
class NewPartition:
    """A partition to be written: its payload, as bytes or consecutive byte
    pieces, its codes and its name."""

    payload: bytes | Iterable[bytes]
    datatype: int
    fstype: int
    parttype: int
    arch: int
    name: str


_METADATA = NewPartition(b"", datatype=DATA_JSON, fstype=FS_ARCHIVE_RO,
                         parttype=PART_METADATA, arch=ARCH_ANY,
                         name=METADATA_PARTITION_NAME)


def _new_descriptor(existing: list[PartitionDescriptor], image_name: str,
                    new: NewPartition) -> PartitionDescriptor:
    """Validate a new partition's codes and name and give it the next free id.

    Its payload is not looked at: the writer fills in offset, size and
    checksum as it writes the payload.
    """
    _checked_codes(new.datatype, new.fstype, new.parttype, new.arch)
    _checked_name(new.name, "partition")
    if new.parttype == PART_SYSTEM_PRIMARY and any(
            p.parttype == PART_SYSTEM_PRIMARY for p in existing):
        raise DuplicatePrimary(f"{image_name} already holds a primary partition")
    pid = max((p.partition_id for p in existing), default=0) + 1
    if pid > MAX_PARTITION_ID:
        raise NoFreePartitionId(f"{image_name}: partition id {pid - 1} is the largest allowed")
    return PartitionDescriptor(
        pid, new.datatype, new.fstype, new.parttype, new.arch, new.name, 0, 0, b"")


def _open_nonblocking(path: str, flags: int) -> int:
    """Open without waiting for a FIFO's other end, so that it can be rejected."""
    return os.open(path, flags | os.O_NONBLOCK)


class BoxImage:
    """Handle to one image file.

    No file descriptor is kept between operations; every read and write
    opens the backing file afresh, so dumps always reflect on-disk bytes.
    """

    def __init__(self, path: Path, image_uuid: uuidlib.UUID, created_at: int,
                 modified_at: int, partitions: list[PartitionDescriptor]):
        self.path = path
        self.uuid = image_uuid
        self.created_at = created_at
        self.modified_at = modified_at
        self._partitions = partitions
        self._closed = False

    # --- construction ---------------------------------------------------

    @classmethod
    def create(cls, name: str, path: Path | str | None = None,
               partitions: Sequence[NewPartition] = ()) -> "BoxImage":
        """Create a new image file holding the given partitions.

        Ids are assigned from 1 in the order given, and the whole file is
        written in one pass. A path that is not a regular file, such as a
        FIFO, is refused before anything is written; a write that fails,
        including a payload source that raises, removes the file. When path
        is omitted the file is written as <name>.boxi in the current
        directory.
        """
        _checked_name(name, "image")
        if "/" in name:
            raise InvalidName(f"image name contains '/': {name!r}")
        target = Path(path) if path is not None else Path(f"{name}.boxi")
        descriptors: list[PartitionDescriptor] = []
        for new in partitions:
            descriptors.append(_new_descriptor(descriptors, name, new))
        now = int(time.time())
        image = cls(target, uuidlib.uuid4(), now, now, [])
        try:
            with open(target, "wb", opener=_open_nonblocking) as fh:
                if not stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                    raise IoError(f"cannot create image at {target}: not a regular file")
                try:
                    image._partitions = image._write(fh, now, descriptors, {
                        part.partition_id: new.payload
                        for part, new in zip(descriptors, partitions)})
                    fh.flush()
                except BaseException:
                    os.unlink(target)
                    raise
        except OSError as exc:
            raise IoError(f"cannot create image at {target}: {exc}") from exc
        return image

    @classmethod
    def open(cls, path: Path | str) -> "BoxImage":
        """Open an existing image, validating header and table structure.

        Only the header and the descriptor table are read; payloads are
        read, and their checksums verified, by dump_partition,
        stream_partition or a change that keeps them.
        """
        path = Path(path)
        try:
            with open(path, "rb", opener=_open_nonblocking) as fh:
                info = os.fstat(fh.fileno())
                if stat.S_ISFIFO(info.st_mode):
                    raise NotABoxImage(f"{path}: a FIFO, not an image file")
                file_size = info.st_size
                header = fh.read(HEADER_SIZE)
                if len(header) < len(MAGIC):
                    raise TruncatedImage(f"{path}: shorter than the magic")
                if header[: len(MAGIC)] != MAGIC:
                    raise NotABoxImage(f"{path}: bad magic {header[:4]!r}")
                if len(header) < HEADER_SIZE:
                    raise TruncatedImage(f"{path}: header cut short")
                (_, version, raw_uuid, created, modified, count, table_offset,
                 payload_offset) = _HEADER.unpack(header)
                if version != FORMAT_VERSION:
                    raise NotABoxImage(f"{path}: unsupported format version {version}")
                if payload_offset != HEADER_SIZE or table_offset < HEADER_SIZE:
                    raise NotABoxImage(f"{path}: implausible area offsets")
                if table_offset + count * DESCRIPTOR_SIZE > file_size:
                    raise TruncatedImage(f"{path}: descriptor table runs past the end")
                fh.seek(table_offset)
                table = fh.read(count * DESCRIPTOR_SIZE)
        except OSError as exc:
            raise IoError(f"cannot read image at {path}: {exc}") from exc
        if len(table) != count * DESCRIPTOR_SIZE:
            raise TruncatedImage(f"{path}: descriptor table cut short")

        partitions: list[PartitionDescriptor] = []
        for index in range(count):
            record = _DESCRIPTOR.unpack_from(table, index * DESCRIPTOR_SIZE)
            pid, datatype, fstype, parttype, arch, raw_name, offset, size, digest = record
            try:
                name = raw_name.rstrip(b"\x00").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise NotABoxImage(f"{path}: descriptor {index} name is not UTF-8") from exc
            try:
                _checked_codes(datatype, fstype, parttype, arch)
            except UnknownCode as exc:
                raise NotABoxImage(f"{path}: descriptor {index}: {exc}") from exc
            if offset < HEADER_SIZE or offset + size > table_offset:
                if offset + size > file_size:
                    raise TruncatedImage(f"{path}: partition {pid} extends past the end")
                raise NotABoxImage(f"{path}: partition {pid} extent outside payload area")
            partitions.append(PartitionDescriptor(
                pid, datatype, fstype, parttype, arch, name, offset, size, digest))

        ids = [p.partition_id for p in partitions]
        if len(set(ids)) != len(ids):
            raise NotABoxImage(f"{path}: duplicate partition ids")
        if sum(1 for p in partitions if p.parttype == PART_SYSTEM_PRIMARY) > 1:
            raise NotABoxImage(f"{path}: more than one primary system partition")
        spans = sorted((p.payload_offset, p.payload_offset + p.payload_size)
                       for p in partitions if p.payload_size)
        for (_, end_a), (start_b, _) in zip(spans, spans[1:]):
            if start_b < end_a:
                raise NotABoxImage(f"{path}: overlapping partition extents")

        return cls(path, uuidlib.UUID(bytes=raw_uuid), created, modified, partitions)

    # --- queries ----------------------------------------------------------

    @property
    def name(self) -> str:
        return self.path.stem

    @property
    def partitions(self) -> tuple[PartitionDescriptor, ...]:
        return tuple(self._partitions)

    def descriptor(self, partition_id: int) -> PartitionDescriptor:
        for part in self._partitions:
            if part.partition_id == partition_id:
                return part
        raise NoSuchPartition(f"{self.name}: no partition {partition_id}")

    def find(self, *, parttype: int) -> list[PartitionDescriptor]:
        return [part for part in self._partitions if part.parttype == parttype]

    # --- partition operations ----------------------------------------------

    def add_partition(self, payload: bytes, *, datatype: int, fstype: int,
                      parttype: int, arch: int, name: str) -> int:
        """Append a partition and return its id. The image is rewritten; see _commit."""
        self._ensure_open()
        part = _new_descriptor(self._partitions, self.name, NewPartition(
            payload, datatype, fstype, parttype, arch, name))
        self._commit([*self._partitions, part], {part.partition_id: payload})
        return part.partition_id

    def dump_partition(self, partition_id: int) -> bytes:
        """Read a payload back from disk whole, through the chunk reader, so
        exactly its extent is read and its checksum verified."""
        self._ensure_open()
        payload = io.BytesIO()
        payload.writelines(self._stream(self.descriptor(partition_id)))
        return payload.getvalue()

    def stream_partition(self, partition_id: int) -> Iterator[memoryview]:
        """Read a payload back from disk in chunks of at most CHUNK_BYTES.

        Each chunk is a view into one reused buffer, valid only until the
        next is read. The file is opened at the first read. After the last
        chunk the checksum is verified, and a mismatch raises
        CorruptPartition, so the payload is checked only once the stream
        has been read to its end.
        """
        self._ensure_open()
        return self._stream(self.descriptor(partition_id))

    @contextmanager
    def raw_payload(self, partition_id: int) -> Iterator[tuple[BinaryIO, int]]:
        """The image file, unbuffered, at the first byte of a payload, and
        the payload's size. Nothing read through it is verified; the
        payload's stream_partition is."""
        self._ensure_open()
        part = self.descriptor(partition_id)
        try:
            with open(self.path, "rb", buffering=0) as fh:
                fh.seek(part.payload_offset)
                yield fh, part.payload_size
        except OSError as exc:
            raise IoError(f"cannot read {self.path}: {exc}") from exc

    def delete_partition(self, partition_id: int) -> None:
        """Drop a partition.

        The image is rewritten without it, so no hole is left; the dropped
        payload itself is never read. See _commit.
        """
        self._ensure_open()
        part = self.descriptor(partition_id)
        self._commit([p for p in self._partitions if p is not part], {})

    def update_partition(self, partition_id: int,
                         payload: bytes | Iterable[bytes]) -> None:
        """Replace a payload, keeping id, codes, and name.

        payload is bytes or consecutive byte pieces; the old payload is
        never read. The whole image is rewritten and swapped in atomically;
        see _commit.
        """
        self._ensure_open()
        self.descriptor(partition_id)
        self._commit(list(self._partitions), {partition_id: payload})

    def store_metadata(self, payload: bytes | Callable[[int], bytes],
                       changed: Mapping[int, Source] | None = None) -> int:
        """Make payload the image's single metadata partition and return its id.

        An image holding exactly one metadata partition keeps its id, and
        the old payload is never read. Otherwise any stray metadata
        partitions are dropped and the payload is added with the next free
        id. The payloads in changed, keyed by partition id, are replaced in
        the same commit. payload may be a function of that commit's
        modified-at time, so that it can name the header it is stored under.
        """
        partitions, pid = self._with_metadata()
        self._commit(partitions, {**(changed or {}), pid: payload})
        return pid

    def metadata_partition_id(self) -> int:
        """The id store_metadata would store under now; raises
        NoFreePartitionId, before anything is written, when there is none."""
        return self._with_metadata()[1]

    def close(self) -> None:
        """Invalidate the handle. Every change is already on disk."""
        self._closed = True

    def __enter__(self) -> "BoxImage":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # --- internals -----------------------------------------------------------

    def _ensure_open(self) -> None:
        if self._closed:
            raise IoError(f"{self.name}: image handle is closed")

    def _with_metadata(self) -> tuple[list[PartitionDescriptor], int]:
        """The partitions of a commit that stores a single metadata partition,
        and that partition's id: the one metadata partition's own, or else
        the next free id, after any strays are dropped."""
        self._ensure_open()
        existing = self.find(parttype=PART_METADATA)
        if len(existing) == 1:
            return list(self._partitions), existing[0].partition_id
        kept = [part for part in self._partitions if part not in existing]
        added = _new_descriptor(kept, self.name, _METADATA)
        return [*kept, added], added.partition_id

    def _write(self, fh: BinaryIO, modified_at: int,
               partitions: list[PartitionDescriptor],
               changed: Mapping[int, bytes | Iterable[bytes]]) -> list[PartitionDescriptor]:
        """Write a whole image to fh; return its partitions as placed.

        A partition whose id is in changed gets that payload, as bytes or as
        consecutive byte pieces, hashed as it is written. Any other keeps
        its payload from this image's current file, copied through the
        chunk reader, _stream, which verifies it. Payloads go back to back after the
        header; the descriptor table follows, and the header is written last.
        """
        fh.seek(HEADER_SIZE)
        placed: list[PartitionDescriptor] = []
        offset = HEADER_SIZE
        for part in partitions:
            if part.partition_id in changed:
                source = changed[part.partition_id]
                pieces = [source] if isinstance(source, (bytes, bytearray)) else source
                digest = hashlib.sha256()
            else:
                pieces, digest = self._stream(part), None  # verified as it is read
            size = 0
            for piece in pieces:
                fh.write(piece)
                size += len(piece)
                if digest is not None:
                    digest.update(piece)
            checksum = part.checksum if digest is None else digest.digest()
            placed.append(replace(part, payload_offset=offset, payload_size=size,
                                  checksum=checksum))
            offset += size
        fh.write(b"".join(part.pack() for part in placed))
        fh.seek(0)
        fh.write(_HEADER.pack(
            MAGIC, FORMAT_VERSION, self.uuid.bytes, self.created_at, modified_at,
            len(placed), offset, HEADER_SIZE))
        return placed

    def _stream(self, part: PartitionDescriptor) -> Iterator[memoryview]:
        """The one chunk reader: a payload in this image's file, in reads of
        at most CHUNK_BYTES into one reused buffer, each chunk hashed; after
        the last, a digest that differs raises CorruptPartition."""
        buffer = memoryview(bytearray(min(part.payload_size, CHUNK_BYTES)))
        digest = hashlib.sha256()
        left = part.payload_size
        try:
            with open(self.path, "rb", buffering=0) as fh:
                fh.seek(part.payload_offset)
                while left:
                    got = fh.readinto(buffer[:left])
                    if not got:
                        raise TruncatedImage(
                            f"{self.name}: partition {part.partition_id} cut short")
                    digest.update(buffer[:got])
                    left -= got
                    yield buffer[:got]
        except OSError as exc:
            raise IoError(f"cannot read {self.path}: {exc}") from exc
        if digest.digest() != part.checksum:
            raise CorruptPartition(
                f"{self.name}: partition {part.partition_id} fails its checksum")

    def _commit(self, partitions: list[PartitionDescriptor],
                changed: Mapping[int, Source]) -> None:
        """Make partitions the image's whole content, atomically.

        changed maps ids to their new sources; a source that is a function
        is called with the commit's modified-at time, before anything is
        written. Every other payload is streamed from the old file and
        verified as it is copied, so a corrupt partition is never carried
        forward and no kept payload is held whole. A source that raises
        partway, such as a stream that fails its checksum after its last
        chunk, fails the commit. The image is written to
        a temp file beside it, fsynced, and renamed over it with the old
        file's permission bits; a failure removes the temp file. A
        symlinked path is followed, so the link stays a link. The handle
        takes the new state only once the rename is done.
        """
        modified_at = max(int(time.time()), self.modified_at)
        payloads = {pid: source(modified_at) if callable(source) else source
                    for pid, source in changed.items()}
        target = self.path.resolve()
        try:
            mode = stat.S_IMODE(os.stat(target).st_mode)
            fd, temp_name = tempfile.mkstemp(dir=target.parent,
                                             prefix=f".{target.name}.")
            try:
                with open(fd, "wb") as fh:
                    os.fchmod(fh.fileno(), mode)
                    placed = self._write(fh, modified_at, partitions, payloads)
                    fh.flush()
                    os.fsync(fh.fileno())
                os.replace(temp_name, target)
            except BaseException:
                try:
                    os.unlink(temp_name)
                except OSError:
                    pass
                raise
        except OSError as exc:
            raise IoError(f"cannot rewrite {self.path}: {exc}") from exc
        self._partitions = placed
        self.modified_at = modified_at
