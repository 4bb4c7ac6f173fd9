"""Deterministic single-blob encoding of a directory tree.

Partition payloads are directory trees serialized into one byte string so
they can live inside an image file. The encoding is canonical: the same
tree content always produces the same bytes, regardless of filesystem
iteration order or timestamps.

Blob layout (all integers little-endian):

    offset  size  field
    0       4     magic "BDA1"
    4       4     entry count (u32)
    8       ...   entries, strictly ordered by UTF-8 path bytes, none below a file

Each entry:

    2             path length in bytes (u16)
    path length   relative path, UTF-8, "/" separators
    4             mode (u32, full st_mode bits)
    8             content size (u64)
    content size  file bytes (directories always store size 0)

The root directory itself is not an entry; only its contents are.

encode_pieces checks and sorts the entries, then yields the blob in pieces,
each file's content as it is, so an image writer can stream a tree into a
file without joining it first; encode_entries joins the pieces.

decode, entry_views, graft, extract_dir and content_bytes share one
validating walk over a memoryview of the blob, which checks every rule above
before any of them returns anything or writes a file. decode copies each
file's content into bytes. entry_views keeps each as a view into the blob,
so an entry's content is bytes or such a view: extract_dir writes the views
straight to disk, and a zero-copy transfer splices them, through graft and
encode_pieces, straight into the destination image.

graft is the one tree edit: a repack grafts a new tree under one inner
path and keeps the rest. with_parents is the one rule for implied directories.
"""

from __future__ import annotations

import re
import stat
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from .errors import MalformedArchive, UnsupportedEntry

MAGIC = b"BDA1"

# NUL ends a string at the operating system, and a lone surrogate has no
# UTF-8 encoding; neither can reach a file name, argument or environment.
_UNSAFE = re.compile("[\x00\ud800-\udfff]")

_PREAMBLE = struct.Struct("<4sI")
_PATH_LEN = struct.Struct("<H")
_ENTRY_HEAD = struct.Struct("<IQ")  # mode, content size


@dataclass(frozen=True)
class ArchiveEntry:
    """One file or directory inside an archived tree.

    content is None exactly when the entry is a directory. It may be a view
    into a blob that has already been verified (entry_views), which is kept
    as it is, not copied, until it is encoded or written.
    """

    path: str
    mode: int
    content: bytes | memoryview | None

    @property
    def is_dir(self) -> bool:
        return stat.S_ISDIR(self.mode)


def _check_path(path: str) -> bytes:
    if not path:
        raise MalformedArchive("empty entry path")
    if _UNSAFE.search(path):
        raise MalformedArchive(f"entry path holds NUL or a surrogate: {path!r}")
    if path.startswith("/"):
        raise MalformedArchive(f"absolute entry path: {path!r}")
    parts = path.split("/")
    if "" in parts:
        raise MalformedArchive(f"empty path segment: {path!r}")
    if ".." in parts or "." in parts:
        raise MalformedArchive(f"path escapes the tree: {path!r}")
    raw = path.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise MalformedArchive("entry path longer than 65535 bytes")
    return raw


def _check_tree(paths: list[tuple[str, bool]]) -> None:
    """Refuse (path, is_file) pairs unless the paths strictly ascend in code
    point order, which is UTF-8 byte order, and none lies below a file."""
    files: set[str] = set()
    dirs: set[str] = set()  # directory entries and the parents they imply
    for index, (path, is_file) in enumerate(paths):
        if index and path <= paths[index - 1][0]:
            raise MalformedArchive(f"entry {index}: path repeated or out of order: {path!r}")
        parent = path.rpartition("/")[0]
        while parent and parent not in dirs:
            if parent in files:
                raise MalformedArchive(f"entry {index}: {path!r} lies below a file")
            dirs.add(parent)
            parent = parent.rpartition("/")[0]
        (files if is_file else dirs).add(path)


def _canonical(entries: list[ArchiveEntry]) -> list[tuple[bytes, ArchiveEntry]]:
    """Check every entry and sort by UTF-8 path bytes; see _check_tree."""
    keyed = []
    for entry in entries:
        raw = _check_path(entry.path)
        if entry.is_dir:
            if entry.content is not None:
                raise MalformedArchive(f"directory with content: {entry.path!r}")
        elif not stat.S_ISREG(entry.mode):
            raise UnsupportedEntry(f"not a regular file or directory: {entry.path!r}")
        elif entry.content is None:
            raise MalformedArchive(f"file without content: {entry.path!r}")
        keyed.append((raw, entry))
    keyed.sort(key=lambda pair: pair[0])
    _check_tree([(entry.path, not entry.is_dir) for _, entry in keyed])
    return keyed


def _pieces(keyed: list[tuple[bytes, ArchiveEntry]]) -> Iterator[bytes]:
    yield _PREAMBLE.pack(MAGIC, len(keyed))
    for raw, entry in keyed:
        content = b"" if entry.content is None else entry.content
        yield _PATH_LEN.pack(len(raw)) + raw + _ENTRY_HEAD.pack(entry.mode, len(content))
        if content:
            yield content


def encode_pieces(entries: list[ArchiveEntry]) -> Iterator[bytes]:
    """The canonical blob of entries, as consecutive pieces.

    Every entry is checked and sorted before this returns, so a bad entry
    raises here rather than partway through the stream. File contents are
    yielded as they are, without a copy.
    """
    return _pieces(_canonical(entries))


def encode_entries(entries: list[ArchiveEntry]) -> bytes:
    """Serialize entries into a canonical blob.

    Entries may arrive in any order; they are sorted by UTF-8 path bytes
    here. Duplicate paths are rejected.
    """
    return b"".join(encode_pieces(entries))


def _scan_tree(root: Path, prefix: str) -> list[ArchiveEntry]:
    named = []
    for child in root.iterdir():
        try:
            named.append((child.name.encode("utf-8"), child))
        except UnicodeEncodeError:
            raise UnsupportedEntry(
                f"cannot archive {prefix + child.name!r}: name is not UTF-8") from None
    entries: list[ArchiveEntry] = []
    for _, child in sorted(named, key=lambda pair: pair[0]):
        rel = f"{prefix}{child.name}"
        st = child.lstat()
        if stat.S_ISDIR(st.st_mode):
            entries.append(ArchiveEntry(rel, st.st_mode, None))
            entries.extend(_scan_tree(child, rel + "/"))
        elif stat.S_ISREG(st.st_mode):
            entries.append(ArchiveEntry(rel, st.st_mode, child.read_bytes()))
        else:
            raise UnsupportedEntry(f"cannot archive {rel!r}: not a file or directory")
    return entries


def scan_dir(root: Path | str) -> list[ArchiveEntry]:
    """Collect entries, with paths relative to root, for everything under it.

    Symlinks, sockets, devices, and names that are not UTF-8 raise
    UnsupportedEntry.
    """
    root = Path(root)
    if not root.is_dir():
        raise UnsupportedEntry(f"not a directory: {root}")
    return _scan_tree(root, "")


def _walk(blob: bytes) -> list[tuple[str, int, memoryview | None]]:
    """Path, mode and content of every entry, checking every encoding rule.

    The content is a view into blob, or None for a directory. Nothing is
    returned unless the whole blob is well formed.
    """
    data = memoryview(blob)
    if len(data) < _PREAMBLE.size:
        raise MalformedArchive("blob shorter than the preamble")
    magic, count = _PREAMBLE.unpack_from(data, 0)
    if magic != MAGIC:
        raise MalformedArchive("bad archive magic")
    pos = _PREAMBLE.size
    entries: list[tuple[str, int, memoryview | None]] = []
    for index in range(count):
        if pos + _PATH_LEN.size > len(data):
            raise MalformedArchive(f"entry {index}: truncated path length")
        (path_len,) = _PATH_LEN.unpack_from(data, pos)
        pos += _PATH_LEN.size
        if pos + path_len > len(data):
            raise MalformedArchive(f"entry {index}: truncated path")
        try:
            path = str(data[pos:pos + path_len], "utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedArchive(f"entry {index}: path is not UTF-8") from exc
        pos += path_len
        _check_path(path)
        if pos + _ENTRY_HEAD.size > len(data):
            raise MalformedArchive(f"entry {index}: truncated header")
        mode, size = _ENTRY_HEAD.unpack_from(data, pos)
        pos += _ENTRY_HEAD.size
        if stat.S_ISDIR(mode):
            if size != 0:
                raise MalformedArchive(f"entry {index}: directory with nonzero size")
            entries.append((path, mode, None))
            continue
        if not stat.S_ISREG(mode):
            raise MalformedArchive(f"entry {index}: unsupported mode {mode:#o}")
        if pos + size > len(data):
            raise MalformedArchive(f"entry {index}: truncated content")
        entries.append((path, mode, data[pos:pos + size]))
        pos += size
    if pos != len(data):
        raise MalformedArchive(f"{len(data) - pos} trailing bytes after last entry")
    _check_tree([(path, content is not None) for path, _, content in entries])
    return entries


def decode(blob: bytes) -> list[ArchiveEntry]:
    """Parse a blob back into entries, verifying every encoding rule."""
    return [ArchiveEntry(path, mode, None if content is None else bytes(content))
            for path, mode, content in _walk(blob)]


def entry_views(blob: bytes) -> list[ArchiveEntry]:
    """The entries of a blob, every one verified, each file's content a view
    into blob instead of a copy. A mode keeps only its file type and
    permission bits, as extract_dir and then scan_dir would leave it."""
    return [ArchiveEntry(path, stat.S_IFMT(mode) | stat.S_IMODE(mode), content)
            for path, mode, content in _walk(blob)]


def with_parents(entries: list[ArchiveEntry],
                 dirs: Iterable[str] = ()) -> list[ArchiveEntry]:
    """entries plus a 0o755 directory for each path in dirs and each parent
    of a path that entries do not already hold; "" is the root, never one."""
    present = {entry.path for entry in entries}
    added: list[ArchiveEntry] = []
    for path in [*dirs, *(entry.path.rpartition("/")[0] for entry in entries)]:
        while path and path not in present:
            present.add(path)
            added.append(ArchiveEntry(path, stat.S_IFDIR | 0o755, None))
            path = path.rpartition("/")[0]
    return [*entries, *added]


def graft(base: bytes | list[ArchiveEntry], inner: str,
          subtree: list[ArchiveEntry]) -> list[ArchiveEntry]:
    """The entries of base, a blob or a list of entries, with everything
    below inner ("" is the root) replaced by subtree, re-rooted there.

    Every entry of a blob is verified, but nothing below inner is copied,
    so a caller can drop the blob before it builds subtree:
    graft(graft(blob, inner, []), inner, subtree). An inner directory keeps
    its mode; a missing inner path or parent, or a file in its place,
    becomes a with_parents directory.
    """
    prefix = f"{inner}/" if inner else ""
    spots = {entry.path for entry in with_parents([], [inner])}
    walked = (_walk(base) if not isinstance(base, list) else
              [(entry.path, entry.mode, entry.content) for entry in base])
    entries = [ArchiveEntry(path, mode, None if content is None else bytes(content))
               for path, mode, content in walked
               if not path.startswith(prefix) and (content is None or path not in spots)]
    entries.extend(ArchiveEntry(prefix + entry.path, entry.mode, entry.content)
                   for entry in subtree)
    return with_parents(entries, [inner])


def extract_dir(blob: bytes, dest: Path | str) -> None:
    """Materialize a blob under dest, creating dest if needed.

    The whole blob is checked before anything is written, and each file is
    written straight from the blob, without a copy. Parent directories
    implied by a path are created even if the archive carries no entry for
    them, with with_parents' mode 0o755 whatever the umask. Directory modes
    are applied last, children before parents, so a read-only directory can
    still receive its children.
    """
    tree = with_parents(entry_views(blob))
    directories = sorted((entry for entry in tree if entry.is_dir),
                         key=lambda entry: entry.path)
    dest = Path(dest)
    dest.mkdir(parents=True, exist_ok=True)
    for entry in directories:  # a parent's path sorts before its children's
        (dest / entry.path).mkdir(exist_ok=True)
    for entry in tree:
        if not entry.is_dir:
            target = dest / entry.path
            target.write_bytes(entry.content)
            target.chmod(stat.S_IMODE(entry.mode))
    for entry in reversed(directories):
        (dest / entry.path).chmod(stat.S_IMODE(entry.mode))


def content_bytes(blob: bytes) -> int:
    """Total file content in a blob, excluding all framing; nothing is copied."""
    return sum(len(content) for _, _, content in _walk(blob) if content is not None)
