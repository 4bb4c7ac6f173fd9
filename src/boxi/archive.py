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
file without joining it first; encode_entries joins the pieces. A file's
content is bytes, a view into a verified blob, or a LazyContent: a size,
and pieces read only when encode_pieces yields them. scan_dir records each
file by its lstat and reads it then; splice streams a source blob's
contents from its verified chunks.

One validating walk checks every rule above, entry by entry, over three
byte sources: a whole blob, whose contents stay views into it;
consecutive chunks, each valid only until the next is read, such as a
partition read through its checksum; and a header-only pass over a file,
read by position, which passes contents over unread (splice). decode,
graft, content_bytes and extract_dir take a blob whole or as chunks, and
splice's contents are chunks. Over chunks, a broken rule is raised only after they are read to
their end, so a checksum failure comes first. extract_dir writes each file
as the walk reaches it, and removes what it wrote if the walk then fails.

graft is the one tree edit: a repack grafts a new tree under one inner
path and keeps the rest. with_parents is the one rule for implied directories.
"""

from __future__ import annotations

import contextlib
import errno
import io
import os
import re
import stat
import struct
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Iterator, Union

from .errors import FileChanged, MalformedArchive, UnsupportedEntry

MAGIC = b"BDA1"

# NUL ends a string at the operating system, and a lone surrogate has no
# UTF-8 encoding; neither can reach a file name, argument or environment.
_UNSAFE = re.compile("[\x00\ud800-\udfff]")

_PREAMBLE = struct.Struct("<4sI")
_PATH_LEN = struct.Struct("<H")
_ENTRY_HEAD = struct.Struct("<IQ")  # mode, content size

# A scanned file is read in pieces of at most this many bytes.
_READ_BYTES = 1 << 20

Chunk = Union[bytes, bytearray, memoryview]


@dataclass(frozen=True)
class LazyContent:
    """File content of a known size, whose pieces are read only when
    encode_pieces yields them, each valid only until the next is asked for.
    A source that no longer matches what was recorded raises instead."""

    size: int
    pieces: Callable[[], Iterator[Chunk]]

    def __len__(self) -> int:
        return self.size


@dataclass(frozen=True)
class ArchiveEntry:
    """One file or directory inside an archived tree.

    content is None exactly when the entry is a directory. It may be a view
    into a blob that has already been verified, which is kept as it is, not
    copied, until it is encoded or written, or a LazyContent.
    """

    path: str
    mode: int
    content: bytes | memoryview | LazyContent | None

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


class _Tree:
    """Checks paths one at a time: they must strictly ascend in code point
    order, which is UTF-8 byte order, and none may lie below a file."""

    def __init__(self) -> None:
        self._last = ""  # no checked path is empty
        self._files: set[str] = set()
        self._dirs: set[str] = set()  # directory entries and the parents they imply

    def add(self, index: int, path: str, is_file: bool) -> None:
        if path <= self._last:
            raise MalformedArchive(f"entry {index}: path repeated or out of order: {path!r}")
        self._last = path
        parent = path.rpartition("/")[0]
        while parent and parent not in self._dirs:
            if parent in self._files:
                raise MalformedArchive(f"entry {index}: {path!r} lies below a file")
            self._dirs.add(parent)
            parent = parent.rpartition("/")[0]
        (self._files if is_file else self._dirs).add(path)


def _canonical(entries: list[ArchiveEntry]) -> list[tuple[bytes, ArchiveEntry]]:
    """Check every entry and sort by UTF-8 path bytes; see _Tree."""
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
    tree = _Tree()
    for index, (_, entry) in enumerate(keyed):
        tree.add(index, entry.path, not entry.is_dir)
    return keyed


def _pieces(keyed: list[tuple[bytes, ArchiveEntry]]) -> Iterator[Chunk]:
    yield _PREAMBLE.pack(MAGIC, len(keyed))
    for raw, entry in keyed:
        content = b"" if entry.content is None else entry.content
        yield _PATH_LEN.pack(len(raw)) + raw + _ENTRY_HEAD.pack(entry.mode, len(content))
        if isinstance(content, LazyContent):
            yield from content.pieces()  # even when empty: the last spliced one drains
        elif content:
            yield content


def encode_pieces(entries: list[ArchiveEntry]) -> Iterator[Chunk]:
    """The canonical blob of entries, as consecutive pieces.

    Every entry is checked and sorted before this returns, so a bad entry
    raises here rather than partway through the stream. File contents are
    yielded as they are, without a copy; a LazyContent is read as its
    pieces are yielded, so a piece may be valid only until the next.
    """
    return _pieces(_canonical(entries))


def encode_entries(entries: list[ArchiveEntry]) -> bytes:
    """Serialize entries into a canonical blob.

    Entries may arrive in any order; they are sorted by UTF-8 path bytes
    here. Duplicate paths are rejected.
    """
    blob = io.BytesIO()
    blob.writelines(encode_pieces(entries))  # each piece is copied before the next is read
    return blob.getvalue()


def _read_scanned(path: Path, scanned: os.stat_result) -> Iterator[bytes]:
    """The file scan_dir's lstat found at path, or boxi add's stat, opened
    without following a symlink; FileChanged unless it is still that
    regular file, of that size, ending exactly there."""
    try:
        fd = os.open(path, os.O_RDONLY | os.O_NOFOLLOW | os.O_NONBLOCK)
    except OSError as exc:
        if exc.errno in (errno.ENOENT, errno.ENOTDIR, errno.ELOOP, errno.ENXIO):
            raise FileChanged(f"{path} is gone or no longer a file: {exc}") from None
        raise
    try:
        info = os.fstat(fd)
        if (not stat.S_ISREG(info.st_mode) or info.st_size != scanned.st_size
                or (info.st_dev, info.st_ino) != (scanned.st_dev, scanned.st_ino)):
            raise FileChanged(f"{path} changed after it was scanned")
        left = scanned.st_size
        while True:
            asked = min(left + 1, _READ_BYTES)  # a byte past the recorded end finds it
            piece = os.read(fd, asked)
            left -= len(piece)
            if left < 0 or (left and len(piece) < asked):
                raise FileChanged(f"{path} changed while it was read")
            if piece:
                yield piece
            if len(piece) < asked:
                return
    finally:
        os.close(fd)


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
            entries.append(ArchiveEntry(rel, st.st_mode,
                                        LazyContent(st.st_size, partial(_read_scanned, child, st))))
        else:
            raise UnsupportedEntry(f"cannot archive {rel!r}: not a file or directory")
    return entries


def scan_dir(root: Path | str) -> list[ArchiveEntry]:
    """Collect entries, with paths relative to root, for everything under it.

    No file is read here: each file's content is a LazyContent of the size
    lstat found, read when it is encoded. Symlinks, sockets, devices, and
    names that are not UTF-8 raise UnsupportedEntry.
    """
    root = Path(root)
    if not root.is_dir():
        raise UnsupportedEntry(f"not a directory: {root}")
    return _scan_tree(root, "")


class _Stream:
    """A blob read front to back from consecutive chunks, each valid only
    until the next is read; a whole blob is one chunk."""

    def __init__(self, chunks: Iterable[Chunk]):
        self._chunks = iter(chunks)
        self._chunk = memoryview(b"")
        self._at = 0  # read position in _chunk
        self.pos = 0  # bytes read or skipped

    def _advance(self) -> bool:
        """Move to the next chunk that is not empty; False at the end."""
        for chunk in self._chunks:
            if len(chunk):
                self._chunk, self._at = memoryview(chunk), 0
                return True
        return False

    def pieces(self, n: int) -> Iterator[memoryview]:
        """The next n bytes, or fewer at the end, as views into the chunks."""
        while n and (self._at < len(self._chunk) or self._advance()):
            piece = self._chunk[self._at:self._at + n]
            self._at += len(piece)
            self.pos += len(piece)
            n -= len(piece)
            yield piece

    def read(self, n: int) -> memoryview | bytes:
        """The next n bytes, or fewer at the end: a view, valid until the
        next read, when they lie in one chunk, else a copy."""
        if self._at + n <= len(self._chunk):
            self._at += n
            self.pos += n
            return self._chunk[self._at - n:self._at]
        return b"".join([bytes(piece) for piece in self.pieces(n)])  # copied as read

    def skip(self, n: int) -> None:
        for _ in self.pieces(n):
            pass

    def rest(self) -> int:
        """Read to the end, so the chunks run their own final checks; the
        number of bytes that were left."""
        left = len(self._chunk) - self._at
        self._chunk, self._at = memoryview(b""), 0
        for chunk in self._chunks:
            left += len(chunk)
        return left

    drain = rest


class _Headers:
    """A blob's size bytes at offset in the file fd, read for the headers
    alone, by position: contents are passed over unread. Draining it reads
    chunks, the verified stream of the same blob, to their end."""

    def __init__(self, fd: int, offset: int, size: int, chunks: Iterable[Chunk]):
        self._fd, self._offset, self._size, self._chunks = fd, offset, size, chunks
        self.pos = 0

    def read(self, n: int) -> bytes:
        data = os.pread(self._fd, min(n, self._size - self.pos), self._offset + self.pos)
        self.pos += len(data)
        return data

    def skip(self, n: int) -> None:
        self.pos += min(n, self._size - self.pos)

    def rest(self) -> int:
        return self._size - self.pos

    def drain(self) -> None:
        for _ in self._chunks:
            pass


def _walk(src: _Stream | _Headers) -> Iterator[tuple[str, int, int]]:
    preamble = src.read(_PREAMBLE.size)
    if len(preamble) < _PREAMBLE.size:
        raise MalformedArchive("blob shorter than the preamble")
    magic, count = _PREAMBLE.unpack(preamble)
    if magic != MAGIC:
        raise MalformedArchive("bad archive magic")
    tree = _Tree()
    for index in range(count):
        raw = src.read(_PATH_LEN.size)
        if len(raw) < _PATH_LEN.size:
            raise MalformedArchive(f"entry {index}: truncated path length")
        (path_len,) = _PATH_LEN.unpack(raw)
        raw = src.read(path_len + _ENTRY_HEAD.size)
        if len(raw) < path_len:
            raise MalformedArchive(f"entry {index}: truncated path")
        try:
            path = str(raw[:path_len], "utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedArchive(f"entry {index}: path is not UTF-8") from exc
        _check_path(path)
        if len(raw) < path_len + _ENTRY_HEAD.size:
            raise MalformedArchive(f"entry {index}: truncated header")
        mode, size = _ENTRY_HEAD.unpack_from(raw, path_len)
        if stat.S_ISDIR(mode):
            if size != 0:
                raise MalformedArchive(f"entry {index}: directory with nonzero size")
        elif not stat.S_ISREG(mode):
            raise MalformedArchive(f"entry {index}: unsupported mode {mode:#o}")
        tree.add(index, path, not stat.S_ISDIR(mode))
        end = src.pos + size
        yield path, mode, size
        if src.pos < end:
            src.skip(end - src.pos)
            if src.pos < end:
                raise MalformedArchive(f"entry {index}: truncated content")
    left = src.rest()
    if left:
        raise MalformedArchive(f"{left} trailing bytes after last entry")


def _entries(src: _Stream | _Headers) -> Iterator[tuple[str, int, int]]:
    """Path, mode and content size of each entry of the blob src reads,
    checking every encoding rule on the way.

    A file's content is the next size bytes of src, which the caller may
    read before it asks for the next entry; what it leaves is skipped. The
    walk ends by reading src to its end. A broken rule raises
    MalformedArchive once src is drained, so that a checksum failure of the
    chunks beneath it is raised instead.
    """
    try:
        yield from _walk(src)
    except MalformedArchive:
        src.drain()
        raise


def _stream(blob: Chunk | Iterable[Chunk]) -> _Stream:
    return _Stream([blob] if isinstance(blob, (bytes, bytearray, memoryview)) else blob)


def decode(blob: Chunk | Iterable[Chunk]) -> list[ArchiveEntry]:
    """Parse a blob, whole or as consecutive chunks, back into entries,
    verifying every encoding rule."""
    src = _stream(blob)
    return [ArchiveEntry(path, mode, None if stat.S_ISDIR(mode) else bytes(src.read(size)))
            for path, mode, size in _entries(src)]


class _SplicedBlob:
    """The verified chunks of a spliced blob, walked in step with the
    headers read ahead of them as encode_pieces asks for each content."""

    def __init__(self, chunks: Iterable[Chunk], headers: list[tuple[str, int, int]]):
        self._src = _Stream(chunks)
        self._walk = _entries(self._src)
        self._headers = headers
        self._passed = 0  # entries walked
        files = [index for index, (_, mode, _) in enumerate(headers) if not stat.S_ISDIR(mode)]
        self._last = files[-1] if files else None
        if self._last is None:  # no content will be asked for
            self._finish()

    def _expect(self, header: tuple[str, int, int] | None) -> None:
        """Walk one entry, or the end when header is None, as read ahead."""
        if next(self._walk, None) != header:
            self._src.drain()
            raise MalformedArchive("a spliced blob changed after its headers were read")

    def _finish(self) -> None:
        """The trailing headers, the trailing-bytes check and the chunks' own final check."""
        for header in self._headers[self._passed:]:
            self._expect(header)
        self._expect(None)

    def pieces(self, index: int) -> Iterator[memoryview]:
        while self._passed <= index:
            self._expect(self._headers[self._passed])
            self._passed += 1
        yield from self._src.pieces(self._headers[index][2])
        if index == self._last:
            self._finish()


def splice(fd: int, offset: int, size: int, chunks: Iterable[Chunk]) -> list[ArchiveEntry]:
    """The entries of a blob, read ahead from its headers, whose file
    contents stream from its verified chunks as encode_pieces yields them.

    The blob is the size bytes at offset in the file fd, which are not yet
    verified, and chunks are the same bytes read through their checksum.
    Only the headers are read from fd; a broken rule found there is raised
    after chunks are drained, so a checksum failure comes first. Each
    file's content is a LazyContent that reads the next stretch of chunks,
    so they must be encoded in this order, as encode_pieces does; the last
    one reads chunks to their end, and every header met on the way must
    match the one read ahead. A mode keeps only its file type and
    permission bits, as extract_dir and then scan_dir would leave it.
    """
    headers = list(_entries(_Headers(fd, offset, size, chunks)))
    read = _SplicedBlob(chunks, headers).pieces
    return [ArchiveEntry(path, stat.S_IFMT(mode) | stat.S_IMODE(mode),
                         None if stat.S_ISDIR(mode) else LazyContent(size, partial(read, index)))
            for index, (path, mode, size) in enumerate(headers)]


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


def graft(base: Chunk | Iterable[Chunk], inner: str,
          subtree: list[ArchiveEntry]) -> list[ArchiveEntry]:
    """The entries of base, a blob, whole or as an iterator of its chunks,
    with everything below inner ("" is the root) replaced by subtree,
    re-rooted there.

    Every entry of the blob is verified, but nothing below inner is copied
    and only the kept contents are held, so a streamed blob is never held
    whole. An inner directory keeps its mode; a missing inner path or
    parent, or a file in its place, becomes a with_parents directory.
    """
    prefix = f"{inner}/" if inner else ""
    spots = {entry.path for entry in with_parents([], [inner])}
    src = _stream(base)
    entries = [ArchiveEntry(path, mode, None if stat.S_ISDIR(mode) else bytes(src.read(size)))
               for path, mode, size in _entries(src)
               if not path.startswith(prefix) and (stat.S_ISDIR(mode) or path not in spots)]
    entries.extend(ArchiveEntry(prefix + entry.path, entry.mode, entry.content)
                   for entry in subtree)
    return with_parents(entries, [inner])


def _undo(made: list[str]) -> None:
    """Remove what an extract made, the last first, as far as it can."""
    for path in reversed(made):
        with contextlib.suppress(OSError):
            (os.rmdir if os.path.isdir(path) else os.unlink)(path)


def _extract(src: _Stream, root: str, made: list[str]) -> None:
    modes: dict[str, int] = {}  # each directory of the tree, parents first
    for path, mode, size in _entries(src):
        implied = []
        parent = path.rpartition("/")[0]
        while parent and parent not in modes:
            implied.append(parent)
            parent = parent.rpartition("/")[0]
        for missing in reversed(implied):
            os.mkdir(os.path.join(root, missing))
            made.append(os.path.join(root, missing))
            modes[missing] = 0o755
        target = os.path.join(root, path)
        if stat.S_ISDIR(mode):
            os.mkdir(target)
            made.append(target)
            modes[path] = stat.S_IMODE(mode)
            continue
        fd = os.open(target, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
        made.append(target)
        try:
            for piece in src.pieces(size):
                while piece:
                    piece = piece[os.write(fd, piece):]
            os.fchmod(fd, stat.S_IMODE(mode))
        finally:
            os.close(fd)
    for path, mode in reversed(modes.items()):
        os.chmod(os.path.join(root, path), mode)


def extract_dir(blob: Chunk | Iterable[Chunk], dest: Path | str) -> None:
    """Materialize a blob, whole or as consecutive chunks, under dest,
    creating dest if needed; nothing the blob holds may exist there yet.

    Each file is written as the validating walk reaches it, straight from
    the blob or its chunks, so no payload is held. If the walk fails, at an
    entry or at its end (trailing bytes, or the chunks' own checksum), what
    this call made, dest included, is removed before the error is raised.
    Parent directories implied by a path are created even if the archive
    carries no entry for them, with with_parents' mode 0o755 whatever the
    umask. Directory modes are applied once the walk is done, children
    before parents, so a read-only directory can still receive its children.
    """
    dest = Path(dest)
    made = [str(path) for path in (*reversed(dest.parents), dest) if not path.exists()]
    dest.mkdir(parents=True, exist_ok=True)
    try:
        _extract(_stream(blob), str(dest), made)
    except BaseException:
        _undo(made)
        raise


def content_bytes(blob: Chunk | Iterable[Chunk]) -> int:
    """Total file content in a blob, whole or as consecutive chunks,
    excluding all framing; every entry is verified, no content is held."""
    return sum(size for _, _, size in _entries(_stream(blob)))
