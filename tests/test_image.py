"""Tests for the single-file partitioned image container."""

from __future__ import annotations

import ctypes
import errno
import hashlib
import os
import pathlib
import shutil
import stat
import struct
import tempfile
import threading
import time
import uuid as uuidlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import boxi.image as image_mod
from boxi.errors import (
    CorruptPartition,
    DuplicatePrimary,
    InvalidName,
    IoError,
    NoSuchPartition,
    NotABoxImage,
    TruncatedImage,
    UnknownCode,
)
from boxi.image import (
    ARCH_ANY,
    ARCH_X86_64,
    DATA_JSON,
    DATA_PARTITION,
    DESCRIPTOR_SIZE,
    FS_ARCHIVE_RO,
    FS_ARCHIVE_RW,
    HEADER_SIZE,
    PART_DATA,
    PART_METADATA,
    PART_SYSTEM_PRIMARY,
    BoxImage,
    NewPartition,
    iso_utc,
)

from boxi.provenance import SCHEMA_VERSION, ComponentRecord, RecordTrail, attach_metadata

from .oracles import HEADER_STRUCT, read_descriptors, read_header

DATA_CODES = dict(datatype=DATA_PARTITION, fstype=FS_ARCHIVE_RW,
                  parttype=PART_DATA, arch=ARCH_X86_64)


def make_image(tmp_path, name="img"):
    return BoxImage.create(name, tmp_path / f"{name}.boxi")


def test_header_sizes_match_documented_layout():
    assert HEADER_SIZE == 60
    assert DESCRIPTOR_SIZE == 160


def test_new_image_is_exactly_one_header(tmp_path):
    img = make_image(tmp_path)
    header = read_header(img.path)
    assert header["file_size"] == 60
    assert header["magic"] == b"BOXI"
    assert header["version"] == 1
    assert header["count"] == 0
    assert header["table_offset"] == 60
    assert header["payload_offset"] == 60
    assert header["uuid_bytes"] == img.uuid.bytes
    assert header["created"] == header["modified"] == img.created_at


def test_created_at_is_wall_clock(tmp_path):
    before = int(time.time())
    img = make_image(tmp_path)
    after = int(time.time())
    assert before <= img.created_at <= after


def test_default_path_is_name_dot_boxi(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    img = BoxImage.create("standalone")
    assert img.path.name == "standalone.boxi"
    assert (tmp_path / "standalone.boxi").exists()


def test_image_name_rejects_slash(tmp_path):
    with pytest.raises(InvalidName):
        BoxImage.create("a/b", tmp_path / "x.boxi")


def test_add_partition_writes_documented_bytes(tmp_path):
    img = make_image(tmp_path)
    payload = b"payload bytes"
    pid = img.add_partition(payload, name="first", **DATA_CODES)
    assert pid == 1

    header = read_header(img.path)
    assert header["count"] == 1
    assert header["table_offset"] == 60 + len(payload)
    assert header["file_size"] == 60 + len(payload) + 160

    (record,) = read_descriptors(img.path)
    assert record["id"] == 1
    assert record["datatype"] == DATA_PARTITION
    assert record["fstype"] == FS_ARCHIVE_RW
    assert record["parttype"] == PART_DATA
    assert record["arch"] == ARCH_X86_64
    assert record["name"] == "first"
    assert record["offset"] == 60
    assert record["size"] == len(payload)
    assert record["payload"] == payload
    assert record["sha256"] == hashlib.sha256(payload).digest()


def test_partition_ids_are_sequential_from_one(tmp_path):
    img = make_image(tmp_path)
    pids = [img.add_partition(bytes([i]), name=f"p{i}", **DATA_CODES)
            for i in range(4)]
    assert pids == [1, 2, 3, 4]


def test_payloads_are_contiguous_in_payload_area(tmp_path):
    img = make_image(tmp_path)
    img.add_partition(b"aaa", name="a", **DATA_CODES)
    img.add_partition(b"bbbbb", name="b", **DATA_CODES)
    a, b = read_descriptors(img.path)
    assert (a["offset"], a["size"]) == (60, 3)
    assert (b["offset"], b["size"]) == (63, 5)
    assert read_header(img.path)["table_offset"] == 68


def test_dump_returns_exact_payload(tmp_path):
    img = make_image(tmp_path)
    payload = bytes(range(256)) * 3
    pid = img.add_partition(payload, name="blob", **DATA_CODES)
    assert img.dump_partition(pid) == payload


def _rchar() -> tuple[int, int]:
    """This process's rchar, and the bytes that reading it added."""
    with open("/proc/self/io", "rb") as fh:
        text = fh.read()
    fields = dict(line.split(b": ") for line in text.splitlines())
    return int(fields[b"rchar"]), len(text)


def test_dump_reads_exactly_its_payload(tmp_path):
    # A small payload at an offset: a buffered read would fill its buffer
    # on to the next 8 KiB boundary.
    img = BoxImage.create("img", tmp_path / "img.boxi", [
        NewPartition(b"x" * 5000, name="first", **DATA_CODES),
        NewPartition(bytes(range(250)) * 4, name="second", **DATA_CODES),
        NewPartition(b"y" * 100_000, name="third", **DATA_CODES)])
    img.dump_partition(2)  # anything a first call loads is loaded now
    before, own = _rchar()
    payload = img.dump_partition(2)
    after, _ = _rchar()
    assert payload == bytes(range(250)) * 4
    assert after - before - own == len(payload)


def test_reopen_sees_identical_state(tmp_path):
    img = make_image(tmp_path)
    img.add_partition(b"one", name="one", **DATA_CODES)
    img.add_partition(b"{}", datatype=DATA_JSON, fstype=FS_ARCHIVE_RO,
                      parttype=PART_METADATA, arch=ARCH_ANY, name="meta")
    reopened = BoxImage.open(img.path)
    assert reopened.uuid == img.uuid
    assert reopened.created_at == img.created_at
    assert reopened.modified_at == img.modified_at
    assert reopened.partitions == img.partitions
    assert reopened.dump_partition(1) == b"one"
    assert reopened.dump_partition(2) == b"{}"


def test_name_is_path_stem(tmp_path):
    img = BoxImage.create("logical", tmp_path / "ondisk.boxi")
    assert img.name == "ondisk"


def test_sixty_four_byte_name_fits_and_longer_fails(tmp_path):
    img = make_image(tmp_path)
    img.add_partition(b"", name="n" * 64, **DATA_CODES)
    assert BoxImage.open(img.path).descriptor(1).name == "n" * 64
    with pytest.raises(InvalidName):
        img.add_partition(b"", name="n" * 65, **DATA_CODES)


def test_name_limit_counts_utf8_bytes(tmp_path):
    img = make_image(tmp_path)
    # 33 two-byte characters exceed the 64-byte field.
    with pytest.raises(InvalidName):
        img.add_partition(b"", name="é" * 33, **DATA_CODES)
    img.add_partition(b"", name="é" * 32, **DATA_CODES)
    assert BoxImage.open(img.path).descriptor(1).name == "é" * 32


@pytest.mark.parametrize("name", ["", "bad\x00name"])
def test_invalid_partition_names(tmp_path, name):
    img = make_image(tmp_path)
    with pytest.raises(InvalidName):
        img.add_partition(b"", name=name, **DATA_CODES)


@pytest.mark.parametrize("override", [
    {"datatype": 0}, {"datatype": 5}, {"fstype": 0}, {"fstype": 3},
    {"parttype": 0}, {"parttype": 5}, {"arch": 1}, {"arch": 3},
])
def test_unknown_codes_rejected(tmp_path, override):
    img = make_image(tmp_path)
    codes = {**DATA_CODES, **override}
    with pytest.raises(UnknownCode):
        img.add_partition(b"", name="x", **codes)


def test_second_primary_partition_rejected(tmp_path):
    img = make_image(tmp_path)
    img.add_partition(b"sys", datatype=DATA_PARTITION, fstype=FS_ARCHIVE_RO,
                      parttype=PART_SYSTEM_PRIMARY, arch=ARCH_X86_64, name="system")
    with pytest.raises(DuplicatePrimary):
        img.add_partition(b"sys2", datatype=DATA_PARTITION, fstype=FS_ARCHIVE_RO,
                          parttype=PART_SYSTEM_PRIMARY, arch=ARCH_X86_64, name="again")


def test_descriptor_lookup_by_id(tmp_path):
    img = make_image(tmp_path)
    img.add_partition(b"x", name="x", **DATA_CODES)
    assert img.descriptor(1).name == "x"
    with pytest.raises(NoSuchPartition):
        img.descriptor(2)


def test_find_filters_by_type(tmp_path):
    img = make_image(tmp_path)
    img.add_partition(b"d", name="d", **DATA_CODES)
    img.add_partition(b"{}", datatype=DATA_JSON, fstype=FS_ARCHIVE_RO,
                      parttype=PART_METADATA, arch=ARCH_ANY, name="m")
    assert [p.name for p in img.find(parttype=PART_DATA)] == ["d"]
    assert [p.name for p in img.find(parttype=PART_METADATA)] == ["m"]
    assert img.find(parttype=PART_SYSTEM_PRIMARY) == []


def test_delete_then_close_reclaims_the_hole(tmp_path):
    img = make_image(tmp_path)
    img.add_partition(b"A" * 1000, name="gone", **DATA_CODES)
    keep = img.add_partition(b"keep", name="keep", **DATA_CODES)
    img.delete_partition(1)
    assert img.path.stat().st_size == 60 + 4 + 160
    img.close()
    reopened = BoxImage.open(img.path)
    assert [p.partition_id for p in reopened.partitions] == [keep]
    assert reopened.dump_partition(keep) == b"keep"
    assert img.path.stat().st_size == 60 + 4 + 160


def test_delete_unknown_partition(tmp_path):
    img = make_image(tmp_path)
    with pytest.raises(NoSuchPartition):
        img.delete_partition(9)


def test_ids_continue_past_surviving_partitions(tmp_path):
    img = make_image(tmp_path)
    img.add_partition(b"a", name="a", **DATA_CODES)
    img.add_partition(b"b", name="b", **DATA_CODES)
    img.delete_partition(1)
    assert img.add_partition(b"c", name="c", **DATA_CODES) == 3


def test_update_keeps_identity_and_replaces_bytes(tmp_path):
    img = make_image(tmp_path)
    pid = img.add_partition(b"before", name="slot", **DATA_CODES)
    other = img.add_partition(b"other", name="other", **DATA_CODES)
    img.update_partition(pid, b"after, and longer")
    part = img.descriptor(pid)
    assert part.partition_id == pid
    assert part.name == "slot"
    assert part.datatype == DATA_PARTITION
    assert img.dump_partition(pid) == b"after, and longer"
    assert img.dump_partition(other) == b"other"
    reopened = BoxImage.open(img.path)
    assert reopened.dump_partition(pid) == b"after, and longer"
    assert img.path.stat().st_size == 60 + 17 + 5 + 2 * 160


def test_create_writes_its_partitions_in_one_file(tmp_path):
    img = BoxImage.create("packed", tmp_path / "packed.boxi", [
        NewPartition(b"aaa", name="a", **DATA_CODES),
        NewPartition(b"{}", datatype=DATA_JSON, fstype=FS_ARCHIVE_RO,
                     parttype=PART_METADATA, arch=ARCH_ANY, name="m"),
    ])
    a, m = read_descriptors(img.path)
    assert (a["id"], a["offset"], a["payload"]) == (1, 60, b"aaa")
    assert (m["id"], m["offset"], m["payload"]) == (2, 63, b"{}")
    assert read_header(img.path)["table_offset"] == 65
    assert img.path.stat().st_size == 65 + 2 * 160
    assert BoxImage.open(img.path).partitions == img.partitions


def test_create_refuses_a_fifo_that_has_a_reader(tmp_path):
    fifo = tmp_path / "p.boxi"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        with pytest.raises(IoError, match="not a regular file"):
            BoxImage.create("p", fifo, [NewPartition(b"x", name="x", **DATA_CODES)])
        assert os.read(reader, 1) == b""
    finally:
        os.close(reader)


def test_create_with_a_bad_partition_writes_nothing(tmp_path):
    target = tmp_path / "bad.boxi"
    with pytest.raises(InvalidName):
        BoxImage.create("bad", target, [NewPartition(b"x", name="", **DATA_CODES)])
    primary = dict(DATA_CODES, parttype=PART_SYSTEM_PRIMARY)
    with pytest.raises(DuplicatePrimary):
        BoxImage.create("bad", target, [NewPartition(b"x", name="a", **primary),
                                        NewPartition(b"y", name="b", **primary)])
    assert not target.exists()


class _WriteFaults:
    """Counts writes to the files the image module opens for writing.

    The write numbered fail_at raises ENOSPC; 0 lets every write through.
    """

    def __init__(self, monkeypatch, fail_at):
        self.fail_at = fail_at
        self.writes = 0
        monkeypatch.setattr(image_mod, "open", self._open, raising=False)

    def _open(self, file, mode="r", *args, **kwargs):
        fh = open(file, mode, *args, **kwargs)
        return _FaultyFile(fh, self) if "w" in mode or "+" in mode else fh

    def count(self):
        self.writes += 1
        if self.writes == self.fail_at:
            raise OSError(errno.ENOSPC, "injected write failure")


class _WrappedFile:
    """A file object that forwards everything to the file it wraps."""

    def __init__(self, fh):
        self._fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._fh.close()

    def __getattr__(self, name):
        return getattr(self._fh, name)


class _FaultyFile(_WrappedFile):
    def __init__(self, fh, faults):
        super().__init__(fh)
        self._faults = faults

    def write(self, data):
        self._faults.count()
        return self._fh.write(data)


def _raise_oserror(*args, **kwargs):
    raise OSError(errno.EIO, "injected failure")


_RECORD = ComponentRecord("output", "img", str(uuidlib.UUID(int=1)),
                          "2020-01-01T00:00:00Z", "2020-01-01T00:00:00Z")
_TRAIL = RecordTrail(SCHEMA_VERSION, "wf", _RECORD, (_RECORD,), "run.py",
                     "2020-01-01T00:00:00Z", 0)

MUTATIONS = {
    "add": lambda img: img.add_partition(b"new payload", name="new", **DATA_CODES),
    "attach": lambda img: attach_metadata(img, _TRAIL),
    "attach-over-strays": lambda img: attach_metadata(img, _TRAIL),
    "create-over": lambda img: BoxImage.create(img.name, img.path, [
        NewPartition([b"new ", b"payload"], name="new", **DATA_CODES)]),
    "delete": lambda img: img.delete_partition(1),
    "update": lambda img: img.update_partition(2, b"replacement"),
}


def _mutated(mutation, img) -> BoxImage:
    """Apply a mutation to img; return the handle that holds the new state,
    which for a create over the image is the one create returns."""
    result = MUTATIONS[mutation](img)
    return result if isinstance(result, BoxImage) else img


def _add_two_partitions(img, mutation) -> dict[int, bytes]:
    """The partitions every mutation starts from: two data partitions, or
    two stray metadata partitions for an attach over strays."""
    codes = DATA_CODES
    if mutation == "attach-over-strays":
        codes = dict(datatype=DATA_JSON, fstype=FS_ARCHIVE_RO,
                     parttype=PART_METADATA, arch=ARCH_ANY)
    return {img.add_partition(b"A" * 1000, name="a", **codes): b"A" * 1000,
            img.add_partition(b"{}", name="b", **codes): b"{}"}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_a_failed_change_leaves_the_image_as_it_was(tmp_path, monkeypatch, mutation):
    change = MUTATIONS[mutation]
    img = make_image(tmp_path)
    payloads = _add_two_partitions(img, mutation)
    before = img.path.read_bytes()
    # A window this small starts writeback within every change below.
    monkeypatch.setattr(image_mod, "WRITEBACK_BYTES", 64)
    hints = _Hints(monkeypatch)

    twin = tmp_path / "twin.boxi"
    shutil.copyfile(img.path, twin)
    with monkeypatch.context() as patch:
        counter = _WriteFaults(patch, fail_at=0)
        change(BoxImage.open(twin))
    assert counter.writes >= 3  # at least header, payloads and table

    faults = [("write", n) for n in range(1, counter.writes + 1)]
    faults += [("fsync", None), ("replace", None)]
    for fault, n in faults:
        with monkeypatch.context() as patch:
            if fault == "write":
                _WriteFaults(patch, fail_at=n)
            else:
                patch.setattr(image_mod.os, fault, _raise_oserror)
            with pytest.raises(IoError):
                change(img)
        where = f"{fault} {n or ''}"
        assert img.path.read_bytes() == before, where
        reopened = BoxImage.open(img.path)
        assert {pid: reopened.dump_partition(pid) for pid in payloads} == payloads, where
        assert list(tmp_path.glob(f".{img.path.name}.*")) == [], where
        assert {pid: img.dump_partition(pid) for pid in payloads} == payloads, where

    after = _mutated(mutation, img)
    assert BoxImage.open(img.path).partitions == after.partitions
    assert hints.ranges


class _Hints:
    """Stands in for the writeback hint, recording each range it is given
    and the size the file had reached then, in order with the commit's
    fsync and rename calls."""

    def __init__(self, monkeypatch, result=0):
        self.events: list[tuple] = []
        self._result = result
        monkeypatch.setattr(image_mod, "_sync_file_range", self._hint)
        for name in ("fsync", "replace"):
            monkeypatch.setattr(image_mod.os, name, self._recorded(name, getattr(os, name)))

    def _hint(self, fd, offset, nbytes, flags):
        assert flags == image_mod.SYNC_FILE_RANGE_WRITE
        self.events.append(("hint", offset, nbytes, os.fstat(fd).st_size))
        return self._result

    def _recorded(self, name, call):
        def recorded(*args):
            self.events.append((name,))
            return call(*args)
        return recorded

    @property
    def ranges(self):
        return [event[1:] for event in self.events if event[0] == "hint"]


WINDOW = 256
PIECES = [bytes([n]) * 100 for n in range(40)]  # 4,000 bytes, 15 windows of 256


def test_a_commit_starts_writeback_window_by_window(tmp_path, monkeypatch):
    img = BoxImage.create("img", tmp_path / "img.boxi",
                          [NewPartition(b"old", name="data", **DATA_CODES)])
    monkeypatch.setattr(image_mod, "WRITEBACK_BYTES", WINDOW)
    hints = _Hints(monkeypatch)
    img.update_partition(1, PIECES)
    ranges = hints.ranges
    assert len(ranges) >= 3
    start = HEADER_SIZE
    for offset, nbytes, flushed in ranges:  # consecutive, and already in the file
        assert offset == start and nbytes >= WINDOW
        assert offset + nbytes <= flushed
        start = offset + nbytes
    assert img.path.stat().st_size - start < WINDOW  # only the tail is left to fsync
    assert [event[0] for event in hints.events] == (
        ["hint"] * len(ranges) + ["fsync", "replace"])
    assert BoxImage.open(img.path).dump_partition(1) == b"".join(PIECES)


def test_creating_an_image_starts_no_writeback(tmp_path, monkeypatch):
    monkeypatch.setattr(image_mod, "WRITEBACK_BYTES", WINDOW)
    hints = _Hints(monkeypatch)
    img = BoxImage.create("img", tmp_path / "img.boxi",
                          [NewPartition(PIECES, name="data", **DATA_CODES)])
    assert hints.events == []
    assert img.dump_partition(1) == b"".join(PIECES)


def test_creating_at_an_empty_path_writes_it_in_place(tmp_path, monkeypatch):
    called = []
    for owner, name in [(os, "stat"), (os, "lstat"), (os.path, "realpath"),
                        (pathlib.Path, "resolve"), (tempfile, "mkstemp")]:
        def recorded(*args, _call=getattr(owner, name), _name=name, **kwargs):
            called.append(_name)
            return _call(*args, **kwargs)
        monkeypatch.setattr(owner, name, recorded)
    img = BoxImage.create("img", tmp_path / "img.boxi",
                          [NewPartition(PIECES, name="data", **DATA_CODES)])
    monkeypatch.undo()
    assert called == []  # hints, fsync and rename: the test above
    assert BoxImage.open(img.path).dump_partition(1) == b"".join(PIECES)


class _LibcWithout:
    """A libc that lacks sync_file_range."""

    def __init__(self, *args, **kwargs):
        pass


def _without_the_symbol(patch):
    patch.setattr(ctypes, "CDLL", _LibcWithout)
    found = image_mod._libc_sync_file_range()
    assert found is None
    patch.setattr(image_mod, "_sync_file_range", found)


HINTS = {
    "none": lambda patch: patch.setattr(image_mod, "_sync_file_range", None),
    "libc": lambda patch: None,
    "failing": lambda patch: _Hints(patch, result=-1),
    "missing": _without_the_symbol,
}


@pytest.mark.parametrize("kept", [False, True], ids=["new-payload", "beside-a-kept-one"])
def test_the_hint_leaves_the_bytes_of_a_hint_free_commit(tmp_path, monkeypatch, kept):
    original = BoxImage.create("img", tmp_path / "img.boxi", [
        NewPartition(b"".join(PIECES) if kept else b"old", name="kept", **DATA_CODES),
        NewPartition(b"old", name="data", **DATA_CODES)])
    monkeypatch.setattr(image_mod, "WRITEBACK_BYTES", WINDOW)
    monkeypatch.setattr(image_mod, "CHUNK_BYTES", 64)
    monkeypatch.setattr(image_mod.time, "time", lambda: original.modified_at + 1)
    written = {}
    for name, install in HINTS.items():
        path = tmp_path / f"{name}.boxi"
        shutil.copyfile(original.path, path)
        with monkeypatch.context() as patch:
            install(patch)
            BoxImage.open(path).update_partition(2, PIECES)
        written[name] = path.read_bytes()
    assert [name for name, data in written.items() if data != written["none"]] == []
    assert BoxImage.open(tmp_path / "failing.boxi").dump_partition(2) == b"".join(PIECES)


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_a_change_through_a_symlink_rewrites_its_target(tmp_path, mutation):
    real = make_image(tmp_path)
    _add_two_partitions(real, mutation)
    (tmp_path / "links").mkdir()
    link = tmp_path / "links" / "img.boxi"
    link.symlink_to(real.path)
    via_link = _mutated(mutation, BoxImage.open(link))
    assert link.is_symlink()
    assert BoxImage.open(real.path).partitions == via_link.partitions
    assert list((tmp_path / "links").iterdir()) == [link]


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_a_change_keeps_the_permission_bits(tmp_path, mutation):
    img = make_image(tmp_path)
    _add_two_partitions(img, mutation)
    img.path.chmod(0o640)
    MUTATIONS[mutation](img)
    assert stat.S_IMODE(img.path.stat().st_mode) == 0o640


@pytest.mark.parametrize("mutation", sorted(set(MUTATIONS) - {"create-over"}))
def test_a_change_whose_file_is_gone_fails_and_creates_nothing(tmp_path, mutation):
    img = make_image(tmp_path)
    _add_two_partitions(img, mutation)
    img.path.unlink()
    with pytest.raises(IoError, match="cannot rewrite"):
        MUTATIONS[mutation](img)
    assert list(tmp_path.iterdir()) == []


def test_a_failed_create_over_an_image_leaves_it_as_it_was(tmp_path):
    img = BoxImage.create("img", tmp_path / "img.boxi",
                          [NewPartition(b"old", name="data", **DATA_CODES)])
    before = img.path.read_bytes()

    def source_failing_after_its_first_piece():
        yield b"new"
        raise RuntimeError("the source failed")

    with pytest.raises(RuntimeError, match="the source failed"):
        BoxImage.create("img", img.path, [NewPartition(
            source_failing_after_its_first_piece(), name="data", **DATA_CODES)])
    assert img.path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [img.path]


def test_a_create_at_a_dangling_link_creates_its_destination(tmp_path):
    link = tmp_path / "img.boxi"
    link.symlink_to("real.boxi")
    img = BoxImage.create("img", link, [NewPartition(b"x", name="data", **DATA_CODES)])
    assert link.is_symlink()
    assert BoxImage.open(tmp_path / "real.boxi").partitions == img.partitions
    assert sorted(p.name for p in tmp_path.iterdir()) == ["img.boxi", "real.boxi"]


def test_closed_handle_refuses_operations(tmp_path):
    img = make_image(tmp_path)
    img.close()
    img.close()  # idempotent
    with pytest.raises(IoError):
        img.add_partition(b"", name="x", **DATA_CODES)


def test_context_manager_closes(tmp_path):
    with make_image(tmp_path, "ctx") as img:
        img.add_partition(b"x", name="x", **DATA_CODES)
    with pytest.raises(IoError):
        img.dump_partition(1)


def _is_open(fd: int) -> bool:
    try:
        os.fstat(fd)
    except OSError as exc:
        assert exc.errno == errno.EBADF
        return False
    return True


def test_a_handle_reads_the_file_it_opened_after_its_path_is_replaced(tmp_path, monkeypatch):
    a = BoxImage.create("a", tmp_path / "a.boxi", [NewPartition(b"alpha", name="d", **DATA_CODES)])
    b = BoxImage.create("b", tmp_path / "b.boxi", [NewPartition(b"bravo", name="d", **DATA_CODES)])
    handle = BoxImage.open(a.path)
    os.replace(b.path, a.path)  # the same extents, other bytes
    with monkeypatch.context() as patch:  # and no read opens the path again
        patch.setattr(image_mod.os, "open", _raise_oserror)
        patch.setattr(image_mod, "open", _raise_oserror, raising=False)
        assert b"".join(handle.stream_partition(1)) == b"alpha"
        assert handle.dump_partition(1) == b"alpha"
        with handle.raw_payload(1) as (fd, offset, size):
            assert os.pread(fd, size, offset) == b"alpha"
    assert BoxImage.open(a.path).dump_partition(1) == b"bravo"


def test_a_handle_reads_the_file_its_last_change_wrote(tmp_path):
    img = BoxImage.create("img", tmp_path / "img.boxi", [NewPartition(b"one", name="d", **DATA_CODES)])
    created = img.fileno()
    assert os.fstat(created).st_ino == img.path.stat().st_ino
    img.update_partition(1, b"two")
    image_mod._join_release()
    assert not _is_open(created)
    assert os.fstat(img.fileno()).st_ino == img.path.stat().st_ino
    os.replace(BoxImage.create("other", tmp_path / "other.boxi").path, img.path)
    assert img.dump_partition(1) == b"two"


def test_a_change_returns_while_the_file_it_replaced_is_released(tmp_path, monkeypatch):
    img = BoxImage.create("img", tmp_path / "img.boxi", [NewPartition(b"0", name="d", **DATA_CODES)])
    let_go = threading.Event()
    real_close = image_mod._close_released

    def held_close(fd):
        let_go.wait(timeout=60)
        real_close(fd)

    monkeypatch.setattr(image_mod, "_close_released", held_close)
    first = img.fileno()
    second = threading.Thread(target=img.update_partition, args=(1, b"2"))
    try:
        img.update_partition(1, b"1")  # returns with its release held
        releasing = image_mod._releasing
        assert releasing.is_alive() and not releasing.daemon
        assert _is_open(first) and img.fileno() != first
        assert img.dump_partition(1) == b"1"
        second.start()
        second.join(timeout=0.5)
        assert second.is_alive()  # its release waits for the one before it
    finally:
        let_go.set()
    second.join(timeout=60)
    assert not second.is_alive()
    image_mod._join_release()
    assert not _is_open(first)
    assert BoxImage.open(img.path).dump_partition(1) == b"2"


def test_closing_or_dropping_a_handle_closes_its_file(tmp_path):
    path = make_image(tmp_path).path
    img = BoxImage.open(path)
    fd = img.fileno()
    img.close()
    assert not _is_open(fd)
    img = BoxImage.open(path)
    fd = img.fileno()
    del img
    assert not _is_open(fd)


def test_flipped_payload_byte_fails_checksum(tmp_path):
    img = make_image(tmp_path)
    pid = img.add_partition(b"sensitive", name="s", **DATA_CODES)
    offset = img.descriptor(pid).payload_offset
    with open(img.path, "r+b") as fh:
        fh.seek(offset)
        byte = fh.read(1)
        fh.seek(offset)
        fh.write(bytes([byte[0] ^ 0x01]))
    with pytest.raises(CorruptPartition):
        img.dump_partition(pid)


def _count_reads(monkeypatch, counts: list[int]) -> None:
    """Append to counts the bytes of each read by position, the only way
    the image module reads a file."""
    for name in ("pread", "preadv"):
        def counted(fd, *args, _read=getattr(os, name)):
            got = _read(fd, *args)
            counts.append(got if isinstance(got, int) else len(got))
            return got
        monkeypatch.setattr(image_mod.os, name, counted)


KEPT_BYTES = 4 * image_mod.CHUNK_BYTES + 1
META_CODES = dict(datatype=DATA_JSON, fstype=FS_ARCHIVE_RO,
                  parttype=PART_METADATA, arch=ARCH_ANY)
BESIDE_A_KEPT_PARTITION = {
    "add": lambda img: img.add_partition(b"new payload", name="new", **DATA_CODES),
    "delete": lambda img: img.delete_partition(2),
    "update": lambda img: img.update_partition(2, b"replacement"),
    "replace-metadata": lambda img: img.store_metadata(b"new trail"),
}


@pytest.mark.parametrize("change", sorted(BESIDE_A_KEPT_PARTITION))
def test_a_change_copies_a_kept_payload_in_bounded_reads(tmp_path, monkeypatch, change):
    kept = bytes(range(256)) * (KEPT_BYTES // 256) + b"!" * (KEPT_BYTES % 256)
    codes = META_CODES if change == "replace-metadata" else DATA_CODES
    img = BoxImage.create("img", tmp_path / "img.boxi", [
        NewPartition(kept, name="kept", **DATA_CODES),
        NewPartition(b"old payload", name="other", **codes)])
    counts: list[int] = []
    _count_reads(monkeypatch, counts)
    BESIDE_A_KEPT_PARTITION[change](img)
    monkeypatch.undo()
    # Kept payloads are read in chunks, and nothing else is read: not the
    # payload a change drops or replaces.
    assert max(counts) <= image_mod.CHUNK_BYTES
    assert sum(counts) == KEPT_BYTES + (len(b"old payload") if change == "add" else 0)
    assert BoxImage.open(img.path).dump_partition(1) == kept


def test_store_metadata_renders_its_payload_at_the_commit_time(tmp_path, monkeypatch):
    img = make_image(tmp_path)
    img.add_partition(b"data", name="data", **DATA_CODES)
    monkeypatch.setattr(image_mod.time, "time", lambda: img.modified_at + 5)
    pid = img.store_metadata(lambda modified_at: str(modified_at).encode(),
                             {1: [b"new ", b"data"]})
    reopened = BoxImage.open(img.path)
    assert reopened.modified_at == img.modified_at
    assert reopened.dump_partition(pid) == str(reopened.modified_at).encode()
    assert reopened.dump_partition(1) == b"new data"
    assert reopened.partitions == img.partitions


@pytest.mark.parametrize("count", [0, 1, 3])
def test_open_reads_only_the_header_and_the_table(tmp_path, monkeypatch, count):
    payloads = [bytes([n]) * 50_000 for n in range(count)]
    img = BoxImage.create("img", tmp_path / "img.boxi", [
        NewPartition(payload, name=f"p{n}", **DATA_CODES)
        for n, payload in enumerate(payloads)])
    if count:
        # Payload corruption is found by dump_partition, not by open.
        with open(img.path, "r+b") as fh:
            fh.seek(img.partitions[-1].payload_offset)
            fh.write(b"\xff")
    counts: list[int] = []
    _count_reads(monkeypatch, counts)
    reopened = BoxImage.open(img.path)
    monkeypatch.undo()
    assert sum(counts) == HEADER_SIZE + count * DESCRIPTOR_SIZE
    assert reopened.partitions == img.partitions
    for part, payload in zip(reopened.partitions[:-1], payloads):
        assert reopened.dump_partition(part.partition_id) == payload
    if count:
        with pytest.raises(CorruptPartition):
            reopened.dump_partition(reopened.partitions[-1].partition_id)


def test_open_missing_file(tmp_path):
    with pytest.raises(IoError):
        BoxImage.open(tmp_path / "absent.boxi")


def test_open_rejects_tiny_file(tmp_path):
    target = tmp_path / "tiny.boxi"
    target.write_bytes(b"BO")
    with pytest.raises(TruncatedImage):
        BoxImage.open(target)


def test_open_rejects_foreign_magic(tmp_path):
    target = tmp_path / "foreign.boxi"
    target.write_bytes(b"ELF\x7f" + b"\x00" * 100)
    with pytest.raises(NotABoxImage):
        BoxImage.open(target)


def test_open_rejects_cut_header(tmp_path):
    target = tmp_path / "cut.boxi"
    target.write_bytes(b"BOXI" + b"\x00" * 20)
    with pytest.raises(TruncatedImage):
        BoxImage.open(target)


def test_open_rejects_future_version(tmp_path):
    img = make_image(tmp_path)
    data = bytearray(img.path.read_bytes())
    struct.pack_into("<I", data, 4, 2)
    img.path.write_bytes(bytes(data))
    with pytest.raises(NotABoxImage):
        BoxImage.open(img.path)


def test_open_rejects_truncated_table(tmp_path):
    img = make_image(tmp_path)
    img.add_partition(b"abcdef", name="p", **DATA_CODES)
    data = img.path.read_bytes()
    (tmp_path / "cut.boxi").write_bytes(data[:-40])
    with pytest.raises(TruncatedImage):
        BoxImage.open(tmp_path / "cut.boxi")


def craft(tmp_path, records, payload=b""):
    """Write an image with arbitrary descriptor records, oracle structs only."""
    table_offset = 60 + len(payload)
    body = b"".join(
        struct.pack("<IIIII64sQQ32s28x", *rec) for rec in records)
    header = HEADER_STRUCT.pack(b"BOXI", 1, uuidlib.uuid4().bytes,
                                10, 20, len(records), table_offset, 60)
    target = tmp_path / "crafted.boxi"
    target.write_bytes(header + payload + body)
    return target


def _rec(pid, *, datatype=DATA_PARTITION, fstype=FS_ARCHIVE_RW,
         parttype=PART_DATA, arch=ARCH_X86_64, name=b"p", offset=60,
         size=0, digest=b"\x00" * 32):
    return (pid, datatype, fstype, parttype, arch, name, offset, size, digest)


def test_crafted_duplicate_ids_rejected(tmp_path):
    path = craft(tmp_path, [_rec(1), _rec(1, name=b"q")])
    with pytest.raises(NotABoxImage):
        BoxImage.open(path)


def test_crafted_two_primaries_rejected(tmp_path):
    path = craft(tmp_path, [
        _rec(1, parttype=PART_SYSTEM_PRIMARY),
        _rec(2, parttype=PART_SYSTEM_PRIMARY, name=b"q"),
    ])
    with pytest.raises(NotABoxImage):
        BoxImage.open(path)


def test_crafted_overlapping_extents_rejected(tmp_path):
    path = craft(tmp_path, [
        _rec(1, offset=60, size=6),
        _rec(2, offset=63, size=5, name=b"q"),
    ], payload=b"12345678")
    with pytest.raises(NotABoxImage):
        BoxImage.open(path)


def test_crafted_extent_in_table_region_rejected(tmp_path):
    # Points past the payload area but still inside the file.
    path = craft(tmp_path, [_rec(1, offset=70, size=8)], payload=b"1234")
    with pytest.raises(NotABoxImage):
        BoxImage.open(path)


def test_crafted_extent_past_eof_rejected(tmp_path):
    path = craft(tmp_path, [_rec(1, offset=60, size=10_000)], payload=b"1234")
    with pytest.raises((NotABoxImage, TruncatedImage)):
        BoxImage.open(path)


def test_crafted_unknown_code_rejected(tmp_path):
    path = craft(tmp_path, [_rec(1, arch=1)])
    with pytest.raises(NotABoxImage):
        BoxImage.open(path)


def test_crafted_non_utf8_name_rejected(tmp_path):
    path = craft(tmp_path, [_rec(1, name=b"\xff\xfe")])
    with pytest.raises(NotABoxImage):
        BoxImage.open(path)


def test_crafted_valid_record_accepted(tmp_path):
    # The crafting helper itself must produce an openable image.
    payload = b"1234"
    path = craft(tmp_path, [
        _rec(1, offset=60, size=4, digest=hashlib.sha256(payload).digest()),
    ], payload=payload)
    img = BoxImage.open(path)
    assert img.dump_partition(1) == payload
    assert img.created_at == 10
    assert img.modified_at == 20


def test_timestamps_come_from_the_clock(tmp_path, monkeypatch):
    monkeypatch.setattr(image_mod.time, "time", lambda: 1_700_000_000.9)
    img = make_image(tmp_path)
    assert img.created_at == 1_700_000_000
    assert img.modified_at == 1_700_000_000


def test_modified_at_never_moves_backwards(tmp_path, monkeypatch):
    monkeypatch.setattr(image_mod.time, "time", lambda: 2_000_000_000)
    img = make_image(tmp_path)
    monkeypatch.setattr(image_mod.time, "time", lambda: 1_900_000_000)
    img.add_partition(b"x", name="x", **DATA_CODES)
    assert img.modified_at == 2_000_000_000
    monkeypatch.setattr(image_mod.time, "time", lambda: 2_000_000_001)
    img.add_partition(b"y", name="y", **DATA_CODES)
    assert img.modified_at == 2_000_000_001
    assert img.created_at == 2_000_000_000


def test_iso_rendering_of_known_instants():
    assert iso_utc(0) == "1970-01-01T00:00:00Z"
    assert iso_utc(1_700_000_000) == "2023-11-14T22:13:20Z"


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture],
          deadline=None, max_examples=30)
@given(payloads=st.lists(st.binary(max_size=512), min_size=1, max_size=5))
def test_any_payloads_round_trip(payloads, tmp_path):
    img = BoxImage.create("rt", tmp_path / f"{uuidlib.uuid4().hex}.boxi")
    pids = [img.add_partition(body, name=f"p{i}", **DATA_CODES)
            for i, body in enumerate(payloads)]
    reopened = BoxImage.open(img.path)
    for pid, body in zip(pids, payloads):
        assert reopened.dump_partition(pid) == body
    # Disk framing overhead is exact: header plus one descriptor each.
    expected = 60 + sum(len(b) for b in payloads) + 160 * len(payloads)
    assert img.path.stat().st_size == expected
