"""Independent readers for boxi images and BDA1 archives, used to check outputs.

They follow the formats documented in boxi's image and archive modules but
share no code with boxi, so a defect in boxi's own reader or encoder cannot
hide a wrong output. Payloads are streamed in bounded chunks, so checking a
large output adds little to the memory of the process that checks it.
"""

from __future__ import annotations

import hashlib
import json
import os
import stat
import struct
from dataclasses import dataclass
from pathlib import Path

_HEADER = struct.Struct("<4sI16sQQIQQ")
_DESCRIPTOR = struct.Struct("<IIIII64sQQ32s28x")
_PREAMBLE = struct.Struct("<4sI")
_PATH_LEN = struct.Struct("<H")
_ENTRY_HEAD = struct.Struct("<IQ")

PART_DATA = 3
PART_METADATA = 4

_CHUNK = 1 << 20


class CheckFailed(Exception):
    """An output does not match what the workload expects."""


@dataclass(frozen=True)
class Partition:
    partition_id: int
    parttype: int
    offset: int
    size: int
    checksum: bytes


@dataclass(frozen=True)
class Entry:
    """One archive entry: digest is the content's SHA-256, None for a directory."""

    path: str
    mode: int
    size: int
    digest: str | None


def partitions(image_path: Path) -> list[Partition]:
    """Descriptor table of an image, read from its header."""
    with open(image_path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise CheckFailed(f"{image_path.name}: header cut short")
        magic, _, _, _, _, count, table_offset, _ = _HEADER.unpack(header)
        if magic != b"BOXI":
            raise CheckFailed(f"{image_path.name}: bad magic {magic!r}")
        fh.seek(table_offset)
        table = fh.read(count * _DESCRIPTOR.size)
    if len(table) != count * _DESCRIPTOR.size:
        raise CheckFailed(f"{image_path.name}: descriptor table cut short")
    found = []
    for index in range(count):
        pid, _, _, parttype, _, _, offset, size, digest = _DESCRIPTOR.unpack_from(
            table, index * _DESCRIPTOR.size)
        found.append(Partition(pid, parttype, offset, size, digest))
    return found


def single(image_path: Path, parttype: int) -> Partition:
    found = [p for p in partitions(image_path) if p.parttype == parttype]
    if len(found) != 1:
        raise CheckFailed(
            f"{image_path.name}: {len(found)} partitions of type {parttype}, want 1")
    return found[0]


def archive_entries(image_path: Path, part: Partition) -> list[Entry]:
    """Entries of the BDA1 archive held by a partition, streamed and checksummed."""
    whole = hashlib.sha256()
    entries: list[Entry] = []
    with open(image_path, "rb") as fh:
        fh.seek(part.offset)
        left = part.size

        def take(count: int) -> bytes:
            nonlocal left
            if count > left:
                raise CheckFailed(f"{image_path.name}: archive runs past its partition")
            data = fh.read(count)
            if len(data) != count:
                raise CheckFailed(f"{image_path.name}: image cut short")
            whole.update(data)
            left -= count
            return data

        magic, count = _PREAMBLE.unpack(take(_PREAMBLE.size))
        if magic != b"BDA1":
            raise CheckFailed(f"{image_path.name}: bad archive magic {magic!r}")
        for _ in range(count):
            (path_len,) = _PATH_LEN.unpack(take(_PATH_LEN.size))
            path = take(path_len).decode("utf-8")
            mode, size = _ENTRY_HEAD.unpack(take(_ENTRY_HEAD.size))
            if stat.S_ISDIR(mode):
                entries.append(Entry(path, mode, size, None))
                continue
            content = hashlib.sha256()
            remaining = size
            while remaining:
                chunk = take(min(remaining, _CHUNK))
                content.update(chunk)
                remaining -= len(chunk)
            entries.append(Entry(path, mode, size, content.hexdigest()))
        if left:
            raise CheckFailed(f"{image_path.name}: {left} bytes after the last entry")
    if whole.digest() != part.checksum:
        raise CheckFailed(f"{image_path.name}: partition fails its checksum")
    return entries


def trail(image_path: Path) -> dict:
    """The record trail stored in an image's metadata partition."""
    part = single(image_path, PART_METADATA)
    with open(image_path, "rb") as fh:
        fh.seek(part.offset)
        payload = fh.read(part.size)
    if hashlib.sha256(payload).digest() != part.checksum:
        raise CheckFailed(f"{image_path.name}: metadata partition fails its checksum")
    return json.loads(payload.decode("utf-8"))


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(_CHUNK):
            digest.update(chunk)
    return digest.hexdigest()


def tree_entries(root: Path, prefix: str = "") -> list[Entry]:
    """Entries for a directory on disk, in archive order (UTF-8 path bytes)."""
    found = []
    for dirpath, dirnames, filenames in os.walk(root):
        rel_dir = os.path.relpath(dirpath, root)
        for name in dirnames + filenames:
            full = Path(dirpath, name)
            rel = name if rel_dir == "." else f"{rel_dir}/{name}"
            mode = full.lstat().st_mode
            if stat.S_ISDIR(mode):
                found.append(Entry(prefix + rel, mode, 0, None))
            else:
                found.append(Entry(prefix + rel, mode, full.stat().st_size,
                                   _sha256_file(full)))
    found.sort(key=lambda e: e.path.encode("utf-8"))
    return found


def canonical_sha256(root: Path, head: list[Entry]) -> str:
    """SHA-256 of the canonical BDA1 encoding of head plus the tree under root.

    Entries of the tree are named relative to root with the path of head's
    last entry as their prefix; content is read back from root.
    """
    prefix = head[-1].path + "/" if head else ""
    entries = sorted(head + tree_entries(root, prefix),
                     key=lambda e: e.path.encode("utf-8"))
    digest = hashlib.sha256(_PREAMBLE.pack(b"BDA1", len(entries)))
    for entry in entries:
        raw = entry.path.encode("utf-8")
        digest.update(_PATH_LEN.pack(len(raw)) + raw + _ENTRY_HEAD.pack(entry.mode, entry.size))
        if entry.digest is not None:
            with open(root / entry.path[len(prefix):], "rb") as fh:
                while chunk := fh.read(_CHUNK):
                    digest.update(chunk)
    return digest.hexdigest()
