"""Tests for recipe parsing, manifests, and image packing."""

from __future__ import annotations

import json
import tracemalloc
import uuid as uuidlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from boxi import packager
from boxi.archive import decode, encode_entries, extract_dir, scan_dir
from boxi.document import canonical_json, plain
from boxi.errors import (
    FileChanged,
    InvalidName,
    IoError,
    MissingFile,
    NoRunscript,
    RecipeParseError,
)
from boxi.image import (
    ARCH_X86_64,
    CHUNK_BYTES,
    DATA_PARTITION,
    FS_ARCHIVE_RO,
    FS_ARCHIVE_RW,
    PART_DATA,
    PART_SYSTEM_PRIMARY,
)
from boxi.packager import (
    MANIFEST_PATH,
    Recipe,
    SoftwareManifest,
    build_app_image,
    pack_data_dir,
    pack_empty_output,
    parse_recipe,
    utf8_text,
)

from .conftest import FILE_CHANGES
from .oracles import assert_same_tree, read_descriptors

FULL_RECIPE = """\
# build description
[base]
from = ubuntu:16.04

[packages]
gnuplot
r-base = 3.2.3

[files]
plot.py = /plot.py
lib/helpers.py = /lib/helpers.py

[environment]
LC_ALL = C
THREADS = 4

[runscript]
path = /plot.py
"""


def test_parse_full_recipe():
    recipe = parse_recipe(FULL_RECIPE)
    assert recipe.base == "ubuntu:16.04"
    assert recipe.packages == ["gnuplot", "r-base=3.2.3"]
    assert recipe.files == [("plot.py", "/plot.py"),
                            ("lib/helpers.py", "/lib/helpers.py")]
    assert recipe.environment == [("LC_ALL", "C"), ("THREADS", "4")]
    assert recipe.runscript == "/plot.py"


def test_parse_minimal_recipe():
    recipe = parse_recipe("[base]\nfrom = alpine\n")
    assert recipe.base == "alpine"
    assert recipe.packages == []
    assert recipe.runscript is None


def test_comments_and_blank_lines_are_ignored():
    text = "\n# top\n[base]\n\n# inner\nfrom = alpine\n\n"
    assert parse_recipe(text).base == "alpine"


def test_sections_accept_any_order():
    text = "[runscript]\npath = /go\n[base]\nfrom = alpine\n"
    recipe = parse_recipe(text)
    assert recipe.base == "alpine"
    assert recipe.runscript == "/go"


@pytest.mark.parametrize("text,line", [
    ("[nope]\n", 1),
    ("[base]\nfrom = a\n[base]\nfrom = b\n", 3),
    ("stray\n[base]\nfrom = a\n", 1),
    ("[base]\nbadkey = a\n", 2),
    ("[base]\nfrom = a\nfrom = b\n", 3),
    ("[base]\nfrom =\n", 2),
    ("[base]\nfrom = a\n[files]\nnovalue\n", 4),
    ("[base]\nfrom = a\n[files]\nh.txt =\n", 4),
    ("[base]\nfrom = a\n[runscript]\nscript = /x\n", 4),
    ("[base]\nfrom = a\n[runscript]\npath = /x\npath = /y\n", 5),
    ("[base]\nfrom = a\n[runscript]\npath =\n", 4),
    ("[base]\nfrom = a\n[packages]\n= 1.0\n", 4),
    ("[base]\nfrom = a\n[environment]\n= v\n", 4),
])
def test_parse_errors_carry_the_offending_line(text, line):
    with pytest.raises(RecipeParseError) as info:
        parse_recipe(text)
    assert info.value.line == line
    assert f"line {line}:" in str(info.value)


def test_missing_base_is_a_document_level_error():
    with pytest.raises(RecipeParseError) as info:
        parse_recipe("[packages]\ngnuplot\n")
    assert info.value.line == 0


def test_manifest_bytes_are_its_canonical_json(tmp_path):
    write_app_sources(tmp_path)
    img = build_app_image(parse_recipe(FULL_RECIPE), "app",
                          tmp_path / "app.boxi", source_root=tmp_path)
    (record,) = read_descriptors(img.path)
    stored = {e.path: e.content for e in decode(record["payload"])}[MANIFEST_PATH]
    manifest = SoftwareManifest(
        base="ubuntu:16.04",
        packages=["gnuplot", "r-base=3.2.3"],
        environment=[("LC_ALL", "C"), ("THREADS", "4")],
        runscript="plot.py",
    )
    assert stored == canonical_json(plain(manifest)) == manifest.to_json()
    assert list(json.loads(stored)) == ["base", "packages", "environment", "runscript"]


_MANIFEST = {"base": "a", "packages": [], "environment": [], "runscript": "r"}


@pytest.mark.parametrize("doc", [
    {key: _MANIFEST[key] for key in ("packages", "environment", "runscript")},
    {key: _MANIFEST[key] for key in ("base", "packages", "environment")},
    {**_MANIFEST, "mystery": 1},
    [],
    {**_MANIFEST, "base": 1},
    {**_MANIFEST, "runscript": None},
    {**_MANIFEST, "packages": "gnuplot"},
    {**_MANIFEST, "packages": [["gnuplot"]]},
    {**_MANIFEST, "environment": {"A": "v"}},
    {**_MANIFEST, "environment": ["A=v"]},
    {**_MANIFEST, "environment": [["A"]]},
    {**_MANIFEST, "environment": [["A", "v", "w"]]},
    {**_MANIFEST, "environment": [["A", 1]]},
], ids=["no-base", "no-runscript", "extra-key", "not-an-object", "int-base",
        "null-runscript", "string-packages", "nested-package", "object-environment",
        "unpaired-entry", "short-entry", "long-entry", "int-value"])
def test_manifest_from_json_rejects_malformed_input(doc):
    with pytest.raises(RecipeParseError) as info:
        SoftwareManifest.from_json(json.dumps(doc).encode("utf-8"))
    assert info.value.line == 0


@pytest.mark.parametrize("raw, line", [
    (b"", 1),
    (b"base=a\nrunscript=r\n", 1),
    (b'{\n  "base": "a",\n  "packages": [,]\n}\n', 3),
    (b"[" * 100_000 + b"]" * 100_000, 0),
], ids=["empty", "key-value-lines", "syntax-error", "nested-100000-deep"])
def test_manifest_that_is_not_json_fails_at_its_line(raw, line):
    with pytest.raises(RecipeParseError) as info:
        SoftwareManifest.from_json(raw)
    assert info.value.line == line


@pytest.mark.parametrize("runscript", ["/abs/tool.sh", "../up.sh", "a/../../b.sh", "", ".",
                                       "\ud800.sh"])
def test_manifest_from_json_rejects_a_runscript_outside_the_image(runscript):
    with pytest.raises(NoRunscript):
        SoftwareManifest.from_json(json.dumps({**_MANIFEST, "runscript": runscript}).encode())


@pytest.mark.parametrize("raw, line", [
    (b"\xff", 1),
    (b"[base]\nfrom = \xff", 2),
    (b"a\r\nb\rc\x0bd\n\xfe", 5),   # every line break the parsers split on
])
def test_text_that_is_not_utf8_fails_at_its_line(raw, line):
    with pytest.raises(RecipeParseError) as info:
        utf8_text(raw, "recipe")
    assert info.value.line == line


@pytest.mark.parametrize("name, value", [
    ("A=B", "v"), ("A\x00B", "v"), ("A", "v\x00w"), ("A", "v\ud800"),
], ids=["equals-in-name", "nul-in-name", "nul-in-value", "surrogate-in-value"])
def test_an_environment_that_cannot_reach_a_process_is_refused(tmp_path, name, value):
    write_app_sources(tmp_path)
    recipe = Recipe(base="alpine", files=[("plot.py", "/plot.py")],
                    environment=[(name, value)], runscript="/plot.py")
    with pytest.raises(InvalidName):
        build_app_image(recipe, "app", tmp_path / "app.boxi", source_root=tmp_path)
    assert not (tmp_path / "app.boxi").exists()
    stored = json.dumps({**_MANIFEST, "environment": [[name, value]]}).encode()
    with pytest.raises(RecipeParseError):
        SoftwareManifest.from_json(stored)


def test_pack_data_dir_layout(tmp_path):
    src = tmp_path / "Inputs"
    src.mkdir()
    (src / "text1.txt").write_bytes(b"1 2\n3 4\n")
    img = pack_data_dir(src, "input", tmp_path / "input.boxi")

    (record,) = read_descriptors(img.path)
    assert record["datatype"] == DATA_PARTITION
    assert record["fstype"] == FS_ARCHIVE_RW
    assert record["parttype"] == PART_DATA
    assert record["arch"] == ARCH_X86_64
    assert record["name"] == "Inputs"

    out = tmp_path / "out"
    extract_dir(record["payload"], out)
    assert_same_tree(src, out)


def test_pack_data_dir_streams_the_tree_into_the_image(tmp_path):
    src = tmp_path / "Inputs"
    src.mkdir()
    for index in range(8):
        (src / f"part{index}.bin").write_bytes(bytes([index]) * (512 << 10))
    tracemalloc.start()
    try:
        pack_data_dir(src, "input", tmp_path / "input.boxi").close()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    (record,) = read_descriptors(tmp_path / "input.boxi")
    assert record["payload"] == encode_entries(scan_dir(src))
    assert peak < 1.5 * 8 * (512 << 10)  # the scanned contents, never the joined blob too


def test_pack_data_dir_holds_no_tree(tmp_path):
    src = tmp_path / "Inputs"
    src.mkdir()
    files = {f"part{index}.bin": bytes([index]) * (1 << 20) for index in range(8)}
    for name, content in files.items():
        (src / name).write_bytes(content)
    tracemalloc.start()
    try:
        pack_data_dir(src, "input", tmp_path / "input.boxi").close()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    (record,) = read_descriptors(tmp_path / "input.boxi")
    assert {entry.path: entry.content for entry in decode(record["payload"])} == files
    assert peak < 3 * CHUNK_BYTES  # each file is read as it is encoded


@pytest.mark.parametrize("change", sorted(FILE_CHANGES))
def test_a_file_changed_after_its_scan_fails_the_pack(tmp_path, monkeypatch, change):
    src = tmp_path / "Inputs"
    src.mkdir()
    (src / "a.bin").write_bytes(b"a" * 100_000)  # written to the image before b.bin is read
    (src / "b.bin").write_bytes(b"b" * 100)
    real_scan = packager.scan_dir

    def scan_then_change(root):
        entries = real_scan(root)
        FILE_CHANGES[change](src / "b.bin")
        return entries

    monkeypatch.setattr(packager, "scan_dir", scan_then_change)
    with pytest.raises(FileChanged, match="b.bin") as caught:
        pack_data_dir(src, "input", tmp_path / "input.boxi")
    assert caught.value.exit_code == 2
    assert not (tmp_path / "input.boxi").exists()


def test_pack_data_dir_rejects_non_directory(tmp_path):
    target = tmp_path / "file.txt"
    target.write_text("x")
    with pytest.raises(IoError):
        pack_data_dir(target, "nope", tmp_path / "nope.boxi")


def test_pack_empty_output_holds_one_empty_dir(tmp_path):
    img = pack_empty_output("Outputs", "output", tmp_path / "output.boxi")
    (record,) = read_descriptors(img.path)
    assert record["parttype"] == PART_DATA
    assert record["fstype"] == FS_ARCHIVE_RW
    assert record["name"] == "Outputs"
    entries = decode(record["payload"])
    assert [(e.path, e.is_dir) for e in entries] == [("Outputs", True)]


def test_pack_empty_output_supports_nesting(tmp_path):
    img = pack_empty_output("a/b/c", "output", tmp_path / "output.boxi")
    (record,) = read_descriptors(img.path)
    entries = decode(record["payload"])
    assert [e.path for e in entries] == ["a", "a/b", "a/b/c"]
    assert all(e.is_dir for e in entries)


def test_pack_empty_output_rejects_traversal(tmp_path):
    with pytest.raises(InvalidName):
        pack_empty_output("../up", "output", tmp_path / "output.boxi")


def write_app_sources(root):
    (root / "plot.py").write_text("#!/usr/bin/env python3\n")
    (root / "plot.py").chmod(0o755)
    (root / "lib").mkdir()
    (root / "lib" / "helpers.py").write_text("x = 1\n")


def test_build_app_image_layout(tmp_path):
    write_app_sources(tmp_path)
    img = build_app_image(parse_recipe(FULL_RECIPE), "app",
                          tmp_path / "app.boxi", source_root=tmp_path)

    (record,) = read_descriptors(img.path)
    assert record["parttype"] == PART_SYSTEM_PRIMARY
    assert record["fstype"] == FS_ARCHIVE_RO
    assert record["name"] == "system"

    by_path = {e.path: e for e in decode(record["payload"])}
    assert set(by_path) == {".manifest", "plot.py", "lib", "lib/helpers.py"}
    assert by_path["lib"].is_dir
    assert by_path["plot.py"].mode & 0o111  # executable bit carried over

    manifest = SoftwareManifest.from_json(by_path[".manifest"].content)
    assert manifest.base == "ubuntu:16.04"
    assert manifest.packages == ["gnuplot", "r-base=3.2.3"]
    assert manifest.environment == [("LC_ALL", "C"), ("THREADS", "4")]
    assert manifest.runscript == "plot.py"


def test_same_recipe_builds_identical_partitions(tmp_path):
    write_app_sources(tmp_path)
    recipe = parse_recipe(FULL_RECIPE)
    one = build_app_image(recipe, "app", tmp_path / "one.boxi", source_root=tmp_path)
    two = build_app_image(recipe, "app", tmp_path / "two.boxi", source_root=tmp_path)
    assert one.uuid != two.uuid
    assert one.descriptor(1).checksum == two.descriptor(1).checksum


def test_build_requires_a_runscript(tmp_path):
    with pytest.raises(NoRunscript):
        build_app_image(Recipe(base="alpine"), "app", tmp_path / "app.boxi")


def test_build_reports_missing_host_file(tmp_path):
    recipe = Recipe(base="alpine", files=[("absent.py", "/absent.py")],
                    runscript="/absent.py")
    with pytest.raises(MissingFile):
        build_app_image(recipe, "app", tmp_path / "app.boxi", source_root=tmp_path)


def test_build_rejects_reserved_manifest_path(tmp_path):
    (tmp_path / "evil.txt").write_text("x")
    recipe = Recipe(base="alpine", files=[("evil.txt", f"/{MANIFEST_PATH}")],
                    runscript="/go.sh")
    with pytest.raises(InvalidName):
        build_app_image(recipe, "app", tmp_path / "app.boxi", source_root=tmp_path)


def test_an_image_path_with_nul_is_refused(tmp_path):
    write_app_sources(tmp_path)
    recipe = Recipe(base="alpine", files=[("plot.py", "/plot\x00.py")],
                    runscript="/plot\x00.py")
    with pytest.raises(InvalidName, match="NUL"):
        build_app_image(recipe, "app", tmp_path / "app.boxi", source_root=tmp_path)
    with pytest.raises(InvalidName, match="NUL"):
        pack_empty_output("Out\x00puts", "output", tmp_path / "output.boxi")


def test_build_rejects_colliding_image_paths(tmp_path):
    (tmp_path / "a.txt").write_text("a")
    (tmp_path / "b.txt").write_text("b")
    recipe = Recipe(base="alpine",
                    files=[("a.txt", "/same"), ("b.txt", "/same")],
                    runscript="/same")
    with pytest.raises(InvalidName):
        build_app_image(recipe, "app", tmp_path / "app.boxi", source_root=tmp_path)


def test_build_rejects_file_shadowing_a_directory(tmp_path):
    (tmp_path / "a.txt").write_text("a")
    (tmp_path / "b.txt").write_text("b")
    recipe = Recipe(base="alpine",
                    files=[("a.txt", "/x"), ("b.txt", "/x/y")],
                    runscript="/x")
    with pytest.raises(InvalidName):
        build_app_image(recipe, "app", tmp_path / "app.boxi", source_root=tmp_path)


# Any text at all, except what the environment and runscript rules forbid.
def _text(forbidden: str = "", min_size: int = 0):
    return st.text(alphabet=st.characters(codec="utf-8", exclude_characters=forbidden),
                   min_size=min_size, max_size=12)


_segment = _text("/\x00", min_size=1).filter(lambda s: s not in (".", ".."))


@given(
    base=_text(),
    packages=st.lists(_text(), max_size=6),
    environment=st.lists(st.tuples(_text("=\x00"), _text("\x00")), max_size=6),
    runscript=st.lists(_segment, min_size=1, max_size=3).map("/".join),
)
def test_manifest_round_trips_through_text(base, packages, environment, runscript):
    manifest = SoftwareManifest(base=base, packages=packages,
                                environment=environment, runscript=runscript)
    assert SoftwareManifest.from_json(manifest.to_json()) == manifest


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture],
          deadline=None, max_examples=25)
@given(files=st.dictionaries(
    st.text(alphabet="abcd", min_size=1, max_size=6).map(lambda s: s + ".f"),
    st.binary(max_size=64), min_size=0, max_size=5))
def test_pack_then_extract_restores_any_directory(files, tmp_path):
    base = tmp_path / uuidlib.uuid4().hex
    src = base / "tree"
    src.mkdir(parents=True)
    for name, content in files.items():
        (src / name).write_bytes(content)
    img = pack_data_dir(src, "data", base / "data.boxi")
    out = base / "restored"
    extract_dir(img.dump_partition(1), out)
    assert_same_tree(src, out)
