"""Tests for the canonical directory-tree blob codec."""

from __future__ import annotations

import io
import os
import stat
import struct
import tracemalloc
import uuid
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from boxi.archive import (
    MAGIC,
    ArchiveEntry,
    content_bytes,
    decode,
    encode_entries,
    encode_pieces,
    extract_dir,
    graft,
    scan_dir,
    splice,
    with_parents,
)
from boxi.errors import MalformedArchive, UnsupportedEntry

from .oracles import assert_same_tree, walk_tree

FILE = 0o100644
EXEC = 0o100755
DIR = 0o40755


def blob_for(*items: tuple[str, int, bytes]) -> bytes:
    """Hand-built blob, independent of the codec under test."""
    out = [MAGIC, struct.pack("<I", len(items))]
    for path, mode, content in items:
        raw = path.encode("utf-8")
        out.append(struct.pack("<H", len(raw)))
        out.append(raw)
        out.append(struct.pack("<IQ", mode, len(content)))
        out.append(content)
    return b"".join(out)


def chunked(blob: bytes, size: int):
    """blob in chunks of size bytes, each a view into one reused buffer,
    valid only until the next, as a partition's stream yields them."""
    buffer = bytearray(size)
    for start in range(0, len(blob), size):
        piece = blob[start:start + size]
        buffer[:len(piece)] = piece
        yield memoryview(buffer)[:len(piece)]


def test_single_file_encodes_to_known_bytes():
    blob = encode_entries([ArchiveEntry("a.txt", FILE, b"hi")])
    assert blob == blob_for(("a.txt", FILE, b"hi"))


def test_known_bytes_decode_to_entries():
    blob = blob_for(("a.txt", FILE, b"hi"), ("b", DIR, b""))
    assert decode(blob) == [
        ArchiveEntry("a.txt", FILE, b"hi"),
        ArchiveEntry("b", DIR, None),
    ]


def test_empty_tree_is_just_the_preamble():
    assert encode_entries([]) == MAGIC + struct.pack("<I", 0)
    assert decode(MAGIC + struct.pack("<I", 0)) == []


def test_input_order_does_not_matter():
    entries = [
        ArchiveEntry("z.txt", FILE, b"z"),
        ArchiveEntry("a", DIR, None),
        ArchiveEntry("a/inner.txt", FILE, b"i"),
    ]
    assert encode_entries(entries) == encode_entries(list(reversed(entries)))


def test_sorting_uses_utf8_bytes_not_code_points():
    # "é" (2 UTF-8 bytes, 0xC3...) sorts after "~" (0x7E) bytewise.
    blob = encode_entries([
        ArchiveEntry("é.txt", FILE, b"1"),
        ArchiveEntry("~.txt", FILE, b"2"),
    ])
    assert decode(blob)[0].path == "~.txt"


def test_directory_round_trip_preserves_modes(tmp_path):
    src = tmp_path / "src"
    (src / "sub").mkdir(parents=True)
    (src / "sub" / "data.bin").write_bytes(bytes(range(256)))
    (src / "run.sh").write_bytes(b"#!/bin/sh\n")
    (src / "run.sh").chmod(0o755)
    (src / "quiet.txt").write_bytes(b"q")
    (src / "quiet.txt").chmod(0o600)
    (src / "sub").chmod(0o750)

    dest = tmp_path / "dest"
    extract_dir(encode_entries(scan_dir(src)), dest)
    assert_same_tree(src, dest)


def test_encode_dir_is_deterministic(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    for name in ("b.txt", "a.txt", "c.txt"):
        (src / name).write_text(name)
    assert encode_entries(scan_dir(src)) == encode_entries(scan_dir(src))


def test_scan_dir_rejects_symlinks(tmp_path):
    (tmp_path / "real.txt").write_text("x")
    (tmp_path / "link").symlink_to(tmp_path / "real.txt")
    with pytest.raises(UnsupportedEntry):
        scan_dir(tmp_path)


def test_scan_dir_rejects_a_name_that_is_not_utf8(tmp_path):
    (tmp_path / "sub").mkdir()
    with open(os.path.join(os.fsencode(tmp_path / "sub"), b"\xff.txt"), "wb") as fh:
        fh.write(b"x")
    with pytest.raises(UnsupportedEntry, match="not UTF-8"):
        scan_dir(tmp_path)


def test_scan_dir_rejects_non_directory(tmp_path):
    target = tmp_path / "file"
    target.write_text("x")
    with pytest.raises(UnsupportedEntry):
        scan_dir(target)


def test_extract_creates_implied_parents(tmp_path):
    extract_dir(encode_entries([ArchiveEntry("a/b/c.txt", FILE, b"x")]), tmp_path / "out")
    assert (tmp_path / "out" / "a" / "b" / "c.txt").read_bytes() == b"x"


def test_extract_fills_a_read_only_directory(tmp_path, monkeypatch):
    # Root may create entries anywhere, so stand in for the kernel's check
    # that refuses a new entry inside a directory without owner write.
    def refusing(real):
        def guarded(path, *args, **kwargs):
            path = Path(path)
            if not path.exists() and not path.parent.stat().st_mode & stat.S_IWUSR:
                raise PermissionError(13, "Permission denied", str(path))
            return real(path, *args, **kwargs)
        return guarded

    monkeypatch.setattr(os, "mkdir", refusing(os.mkdir))
    monkeypatch.setattr(os, "open", refusing(os.open))
    entries = [ArchiveEntry("ro", 0o40555, None),
               ArchiveEntry("ro/inner", 0o40555, None),
               ArchiveEntry("ro/inner/f.txt", 0o100444, b"x"),
               ArchiveEntry("ro/z.txt", FILE, b"z")]
    extract_dir(encode_entries(entries), tmp_path / "out")
    monkeypatch.undo()
    tree = walk_tree(tmp_path / "out")
    assert tree == {"ro": ("dir", 0o555, None),
                    "ro/inner": ("dir", 0o555, None),
                    "ro/inner/f.txt": ("file", 0o444, b"x"),
                    "ro/z.txt": ("file", 0o644, b"z")}


@pytest.mark.parametrize("path", ["", "/abs", "a//b", "a/../b", ".", "a/./b", "a\x00b",
                                  "a\ud800b"])
def test_encode_rejects_bad_paths(path):
    with pytest.raises(MalformedArchive):
        encode_entries([ArchiveEntry(path, FILE, b"")])


def test_encode_pieces_checks_every_entry_before_the_first_piece():
    pieces = encode_pieces([ArchiveEntry("a", FILE, b"x"), ArchiveEntry("b", DIR, None)])
    assert next(pieces) == MAGIC + struct.pack("<I", 2)
    with pytest.raises(MalformedArchive):
        encode_pieces([ArchiveEntry("a", FILE, b"x"), ArchiveEntry("../b", FILE, b"")])


def test_encode_rejects_duplicate_paths():
    with pytest.raises(MalformedArchive):
        encode_entries([
            ArchiveEntry("a", FILE, b"1"),
            ArchiveEntry("a", FILE, b"2"),
        ])


def test_encode_rejects_directory_with_content():
    with pytest.raises(MalformedArchive):
        encode_entries([ArchiveEntry("d", DIR, b"oops")])


def test_encode_rejects_file_without_content():
    with pytest.raises(MalformedArchive):
        encode_entries([ArchiveEntry("f", FILE, None)])


def test_encode_rejects_special_modes():
    with pytest.raises(UnsupportedEntry):
        encode_entries([ArchiveEntry("s", stat.S_IFLNK | 0o777, b"")])


def test_decode_rejects_bad_magic():
    with pytest.raises(MalformedArchive):
        decode(b"XXXX" + struct.pack("<I", 0))


def test_decode_rejects_short_blob():
    with pytest.raises(MalformedArchive):
        decode(b"BDA")


@pytest.mark.parametrize("cut", [9, 11, 14, 19])
def test_decode_rejects_truncation_at_any_point(cut):
    blob = blob_for(("a.txt", FILE, b"hi"))
    assert cut < len(blob)
    with pytest.raises(MalformedArchive):
        decode(blob[:cut])


def test_decode_rejects_out_of_order_entries():
    blob = blob_for(("b", FILE, b""), ("a", FILE, b""))
    with pytest.raises(MalformedArchive):
        decode(blob)


def test_decode_rejects_duplicate_entries():
    blob = blob_for(("a", FILE, b""), ("a", FILE, b""))
    with pytest.raises(MalformedArchive):
        decode(blob)


def test_decode_rejects_directory_with_size():
    blob = blob_for(("d", DIR, b"x"))
    with pytest.raises(MalformedArchive):
        decode(blob)


def test_decode_rejects_unsupported_mode():
    blob = blob_for(("s", stat.S_IFLNK | 0o777, b""))
    with pytest.raises(MalformedArchive):
        decode(blob)


def test_decode_rejects_trailing_bytes():
    blob = blob_for(("a", FILE, b"x")) + b"junk"
    with pytest.raises(MalformedArchive):
        decode(blob)


def test_decode_rejects_non_utf8_path():
    raw = b"\xff\xfe"
    blob = (MAGIC + struct.pack("<I", 1) + struct.pack("<H", len(raw)) + raw
            + struct.pack("<IQ", FILE, 0))
    with pytest.raises(MalformedArchive):
        decode(blob)


def test_decode_and_extract_reject_a_path_with_nul(tmp_path):
    blob = blob_for(("a\x00b.txt", FILE, b"x"))
    with pytest.raises(MalformedArchive, match="NUL"):
        decode(blob)
    with pytest.raises(MalformedArchive, match="NUL"):
        extract_dir(blob, tmp_path / "out")
    assert not (tmp_path / "out").exists()


_SOUND_FIRST = [("a.txt", FILE, b"one"), ("b", DIR, b""), ("b/c.txt", FILE, b"two")]
_BAD_LAST = {
    "truncated-content": blob_for(*_SOUND_FIRST, ("d.txt", FILE, b"three"))[:-1],
    "trailing-bytes": blob_for(*_SOUND_FIRST, ("d.txt", FILE, b"three")) + b"\x00",
    "last-path-out-of-order": blob_for(*_SOUND_FIRST, ("aa.txt", FILE, b"three")),
}


@pytest.mark.parametrize("fault", sorted(_BAD_LAST))
def test_extract_checks_the_whole_blob_before_writing(tmp_path, fault):
    # The sound entries are written before the walk reaches the fault, and
    # removed again when it does.
    dest = tmp_path / "out"
    with pytest.raises(MalformedArchive):
        extract_dir(_BAD_LAST[fault], dest)
    assert list(dest.rglob("*")) == []


def test_a_failed_extract_into_a_directory_removes_only_what_it_made(tmp_path):
    dest = tmp_path / "out"
    (dest / "b").mkdir(parents=True)
    (dest / "keep.txt").write_bytes(b"keep")
    with pytest.raises(MalformedArchive, match="trailing bytes"):
        extract_dir(chunked(_BAD_LAST["trailing-bytes"], 5), tmp_path / "out" / "new")
    with pytest.raises(FileExistsError):  # "a.txt" is written, then "b" collides
        extract_dir(chunked(blob_for(*_SOUND_FIRST), 5), dest)
    assert sorted(str(path.relative_to(dest)) for path in dest.rglob("*")) == ["b", "keep.txt"]
    assert (dest / "keep.txt").read_bytes() == b"keep"


def test_graft_copies_nothing_below_an_inner_path():
    big = b"x" * (4 << 20)
    blob = blob_for(("a", DIR, b""), ("a/big", FILE, big), ("ab.txt", FILE, b"ab"),
                    ("c", DIR, b""), ("c/d", DIR, b""), ("c/d/y.txt", FILE, b"y"))
    tracemalloc.start()
    try:
        grafted = graft(blob, "a", [])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sorted(e.path for e in grafted) == ["a", "ab.txt", "c", "c/d", "c/d/y.txt"]
    assert peak < len(big) // 4


def test_graft_at_the_root_replaces_everything():
    blob = blob_for(("a", DIR, b""), ("a/x.txt", FILE, b"x"), ("b.txt", FILE, b"b"))
    new = [ArchiveEntry("n", DIR, None), ArchiveEntry("n/z.txt", FILE, b"z")]
    assert graft(blob, "", new) == new
    assert graft(blob, "", []) == []


def test_graft_checks_the_entries_it_replaces():
    blob = blob_for(("a", DIR, b""), ("a/x", 0o020644, b""), ("b.txt", FILE, b"b"))
    with pytest.raises(MalformedArchive):
        graft(blob, "a", [])


def test_graft_re_roots_entries_under_their_inner_path():
    blob = blob_for(("a", 0o40700, b""), ("a/old.txt", FILE, b"old"), ("f", FILE, b"f"))
    grafted = graft(blob, "a", [ArchiveEntry("new.txt", FILE, b"new")])
    assert sorted(grafted, key=lambda e: e.path) == [
        ArchiveEntry("a", 0o40700, None),           # an inner directory keeps its mode
        ArchiveEntry("a/new.txt", FILE, b"new"),
        ArchiveEntry("f", FILE, b"f"),
    ]
    grafted = graft(blob, "f/g/h", [ArchiveEntry("deep.txt", EXEC, b"deep")])
    assert sorted(grafted, key=lambda e: e.path) == [
        ArchiveEntry("a", 0o40700, None),
        ArchiveEntry("a/old.txt", FILE, b"old"),
        ArchiveEntry("f", DIR, None),               # a file in the way becomes a directory
        ArchiveEntry("f/g", DIR, None),             # missing parents are implied
        ArchiveEntry("f/g/h", DIR, None),
        ArchiveEntry("f/g/h/deep.txt", EXEC, b"deep"),
    ]


def test_with_parents_adds_only_the_directories_that_are_missing():
    entries = [ArchiveEntry("a", 0o40700, None), ArchiveEntry("a/b/c.txt", FILE, b"c")]
    added = with_parents(entries, ["x/y", ""])
    assert added[:2] == entries
    assert sorted(added[2:], key=lambda e: e.path) == [
        ArchiveEntry("a/b", DIR, None), ArchiveEntry("x", DIR, None),
        ArchiveEntry("x/y", DIR, None)]
    assert with_parents([], [""]) == []


def test_content_bytes_counts_files_only():
    blob = blob_for(("d", DIR, b""), ("d/a", FILE, b"12345"), ("d/b", FILE, b"678"))
    assert content_bytes(blob) == 8
    with pytest.raises(MalformedArchive):
        content_bytes(blob[:-1])


# "f.txt" sorts between "f" and "f/...", so a file's descendants need not
# follow it directly; "f/a/b" lies below the file "f" with no "f/a" entry.
_BELOW_A_FILE = {
    "child": [("f", FILE, b"f"), ("f/child", FILE, b"c")],
    "grandchild": [("f", FILE, b"f"), ("f/a/b", DIR, b"")],
    "not-adjacent": [("f", FILE, b"f"), ("f.txt", FILE, b""), ("f/c", FILE, b"c")],
}


@pytest.mark.parametrize("case", sorted(_BELOW_A_FILE))
def test_an_entry_below_a_file_is_malformed(tmp_path, case):
    items = _BELOW_A_FILE[case]
    with pytest.raises(MalformedArchive, match="below a file"):
        encode_entries([ArchiveEntry(p, m, c if m == FILE else None) for p, m, c in items])
    with pytest.raises(MalformedArchive, match="below a file"):
        decode(blob_for(*items))
    with pytest.raises(MalformedArchive, match="below a file"):
        extract_dir(blob_for(*items), tmp_path / "out")
    assert not (tmp_path / "out").exists()


# File names always carry a ".f" suffix and directory segments never do,
# so no generated file path can collide with an implied directory.
_segment = st.text(alphabet="abcd", min_size=1, max_size=6)
_file_path = st.builds(
    lambda dirs, name: "/".join([*dirs, name + ".f"]),
    st.lists(_segment, max_size=2),
    _segment,
)
_trees = st.dictionaries(_file_path, st.binary(max_size=64), max_size=8)


def _tree_entries(tree: dict[str, bytes], dir_mode: int = DIR) -> list[ArchiveEntry]:
    dirs = set()
    for path in tree:
        parts = path.split("/")
        for depth in range(1, len(parts)):
            dirs.add("/".join(parts[:depth]))
    return [ArchiveEntry(d, dir_mode, None) for d in sorted(dirs)] + [
        ArchiveEntry(p, FILE, c) for p, c in tree.items()
    ]


@given(_trees)
def test_round_trip_returns_canonical_entries(tree):
    entries = _tree_entries(tree)
    decoded = decode(encode_entries(entries))
    assert decoded == sorted(entries, key=lambda e: e.path.encode("utf-8"))


@given(_trees)
def test_pieces_join_to_the_blob_and_keep_file_contents_whole(tree):
    entries = _tree_entries(tree)
    pieces = list(encode_pieces(entries))
    assert b"".join(pieces) == encode_entries(entries)
    contents = [e.content for e in entries if e.content]
    assert sorted(p for p in pieces if any(p is c for c in contents)) == sorted(contents)


@given(_trees)
def test_reencoding_decoded_entries_is_identity(tree):
    blob = encode_entries(_tree_entries(tree))
    assert encode_entries(decode(blob)) == blob


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(tree=_trees)
def test_disk_round_trip_preserves_any_tree(tree, tmp_path):
    entries = _tree_entries(tree)
    # tmp_path is shared across examples; isolate each one.
    base = tmp_path / uuid.uuid4().hex
    extract_dir(encode_entries(entries), base / "first")
    extract_dir(encode_entries(scan_dir(base / "first")), base / "second")
    assert_same_tree(base / "first", base / "second")
    by_path = {e.path: e for e in scan_dir(base / "second")}
    for path, content in tree.items():  # scan_dir reads a file only as it is encoded
        assert b"".join(by_path[path].content.pieces()) == content


# An inner path is the root, a directory-like path, or a file path, so that
# grafting over a file and through a file's place are both drawn.
_inner_paths = st.one_of(st.lists(_segment, max_size=3).map("/".join), _file_path)


@given(tree=_trees, inner=_inner_paths, subtree=_trees)
def test_graft_keeps_the_outside_and_re_roots_the_subtree(tree, inner, subtree):
    blob = encode_entries(_tree_entries(tree, dir_mode=0o40750))
    sub = _tree_entries(subtree)
    grafted = graft(blob, inner, sub)
    encode_entries(grafted)  # a well-formed tree: no duplicates, nothing malformed
    # grafting onto the entries kept from the blob gives the same tree
    assert set(graft(graft(blob, inner, []), inner, sub)) == set(grafted)

    prefix = f"{inner}/" if inner else ""
    parts = inner.split("/") if inner else []
    spots = {"/".join(parts[:depth]) for depth in range(1, len(parts) + 1)}

    def outside(entries):
        return {e for e in entries if not e.path.startswith(prefix) and e.path not in spots}

    assert outside(grafted) == outside(decode(blob))
    assert {ArchiveEntry(e.path[len(prefix):], e.mode, e.content) for e in grafted
            if e.path.startswith(prefix)} == set(sub)
    by_path = {e.path: e for e in grafted}
    old = {e.path: e for e in decode(blob)}
    for spot in spots:
        kept = old.get(spot)
        assert by_path[spot].mode == (kept.mode if kept and kept.is_dir else DIR)
    for entry in grafted:
        parent = entry.path.rpartition("/")[0]
        assert not parent or by_path[parent].is_dir


# Every malformed blob above, by the test that builds it.
_MALFORMED = {
    "bad-magic": b"XXXX" + struct.pack("<I", 0),
    "short-blob": b"BDA",
    **{f"truncated-at-{cut}": blob_for(("a.txt", FILE, b"hi"))[:cut] for cut in (9, 11, 14, 19)},
    "out-of-order": blob_for(("b", FILE, b""), ("a", FILE, b"")),
    "duplicate": blob_for(("a", FILE, b""), ("a", FILE, b"")),
    "directory-with-size": blob_for(("d", DIR, b"x")),
    "unsupported-mode": blob_for(("s", stat.S_IFLNK | 0o777, b"")),
    "trailing-bytes": blob_for(("a", FILE, b"x")) + b"junk",
    "non-utf8-path": (MAGIC + struct.pack("<I", 1) + struct.pack("<H", 2) + b"\xff\xfe"
                      + struct.pack("<IQ", FILE, 0)),
    "nul-in-path": blob_for(("a\x00b.txt", FILE, b"x")),
    **{f"last-{fault}": blob for fault, blob in _BAD_LAST.items()},
    **{f"below-a-file-{case}": blob_for(*items) for case, items in _BELOW_A_FILE.items()},
}


def _error(call, *args) -> str:
    with pytest.raises(MalformedArchive) as caught:
        call(*args)
    return str(caught.value)


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_a_malformed_blob_fails_alike_whole_and_in_chunks(case, tmp_path):
    blob = _MALFORMED[case]
    whole = _error(decode, blob)
    assert _error(extract_dir, blob, tmp_path / "whole") == whole
    assert not (tmp_path / "whole").exists()
    for size in (1, 5, 4096):
        assert _error(decode, chunked(blob, size)) == whole
        assert _error(content_bytes, chunked(blob, size)) == whole
        assert _error(graft, chunked(blob, size), "a", []) == whole
        dest = tmp_path / f"chunks-{size}" / "out"  # its parent is made, and removed
        assert _error(extract_dir, chunked(blob, size), dest) == whole
        assert list(tmp_path.glob(f"chunks-{size}")) == []
    assert _error(splice, io.BytesIO(blob), len(blob), chunked(blob, 5)) == whole


@given(tree=_trees, inner=_inner_paths, subtree=_trees, size=st.sampled_from([1, 5, 4096]))
def test_the_walk_agrees_whole_and_in_chunks(tree, inner, subtree, size):
    blob = encode_entries(_tree_entries(tree))
    sub = _tree_entries(subtree)
    assert decode(chunked(blob, size)) == decode(blob)
    assert content_bytes(chunked(blob, size)) == content_bytes(blob)
    assert graft(chunked(blob, size), inner, sub) == graft(blob, inner, sub)


@given(tree=_trees, inner=_inner_paths, size=st.sampled_from([1, 5, 4096]))
def test_a_splice_encodes_as_the_decoded_tree(tree, inner, size):
    blob = encode_entries(_tree_entries(tree, dir_mode=0o40750))
    spliced = splice(io.BytesIO(blob), len(blob), chunked(blob, size))
    assert [(e.path, e.mode, len(e.content or b"")) for e in spliced] == [
        (e.path, e.mode, len(e.content or b"")) for e in decode(blob)]
    assert (encode_entries(graft([], inner, spliced))
            == encode_entries(graft([], inner, decode(blob))))


def test_a_splice_fails_when_its_stream_differs_from_its_headers():
    read_ahead = blob_for(("a.txt", FILE, b"one"), ("b", DIR, b""))
    for streamed in (blob_for(("a.txt", FILE, b"two"), ("c", DIR, b"")),   # another header
                     blob_for(("a.txt", FILE, b"one"))):                   # one header fewer
        spliced = splice(io.BytesIO(read_ahead), len(read_ahead), chunked(streamed, 5))
        with pytest.raises(MalformedArchive, match="changed after its headers were read"):
            encode_entries(spliced)


def test_a_splice_reads_its_stream_only_as_it_is_encoded():
    blob = blob_for(("a.txt", FILE, b"one"), ("z", DIR, b""))
    reads = []

    def stream():
        for chunk in chunked(blob, 4):
            reads.append(len(chunk))
            yield chunk
    spliced = splice(io.BytesIO(blob), len(blob), stream())
    assert reads == []
    assert encode_entries(spliced) == blob
    assert sum(reads) == len(blob)  # read to its end, past the last file
