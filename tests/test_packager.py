"""Tests for recipe parsing, manifests, and image packing."""

from __future__ import annotations

import hashlib
import uuid as uuidlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from boxi.archive import decode, extract_dir
from boxi.errors import (
    InvalidName,
    IoError,
    MissingFile,
    NoRunscript,
    RecipeParseError,
)
from boxi.image import (
    ARCH_X86_64,
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


def test_manifest_text_is_sorted_and_lf_terminated():
    manifest = SoftwareManifest(
        base="ubuntu:16.04",
        packages=["z-last", "a-first"],
        environment=[("B", "2"), ("A", "1")],
        runscript="plot.py",
    )
    assert manifest.to_text() == (
        "base=ubuntu:16.04\n"
        "env.0000=B=2\n"
        "env.0001=A=1\n"
        "pkg.0000=z-last\n"
        "pkg.0001=a-first\n"
        "runscript=plot.py\n"
    )


def test_manifest_hash_is_sha256_of_the_text():
    manifest = SoftwareManifest("alpine", ["curl"], [], "go.sh")
    expected = hashlib.sha256(manifest.to_text().encode("utf-8")).hexdigest()
    assert manifest.manifest_hash == expected


def test_manifest_hash_tracks_content():
    one = SoftwareManifest("alpine", ["a", "b"], [], "go.sh")
    same = SoftwareManifest("alpine", ["a", "b"], [], "go.sh")
    swapped = SoftwareManifest("alpine", ["b", "a"], [], "go.sh")
    assert one.manifest_hash == same.manifest_hash
    assert one.manifest_hash != swapped.manifest_hash


@pytest.mark.parametrize("text", [
    "not a key value line\n",
    "runscript=go\n",                      # no base
    "base=alpine\n",                       # no runscript
    "base=a\nrunscript=r\nenv.0000=NOSEP\n",
    "base=a\nrunscript=r\nmystery=1\n",
    "base=a\nrunscript=r\npkg.x=1\n",
])
def test_manifest_from_text_rejects_malformed_input(text):
    with pytest.raises(RecipeParseError):
        SoftwareManifest.from_text(text)


@pytest.mark.parametrize("raw, line", [
    (b"\xff", 1),
    (b"[base]\nfrom = \xff", 2),
    (b"a\r\nb\rc\x0bd\n\xfe", 5),   # every line break the parsers split on
])
def test_text_that_is_not_utf8_fails_at_its_line(raw, line):
    with pytest.raises(RecipeParseError) as info:
        utf8_text(raw, "recipe")
    assert info.value.line == line


@pytest.mark.parametrize("manifest", [
    SoftwareManifest("al\rpine", [], [], "go.sh"),
    SoftwareManifest("alpine", ["cu rl"], [], "go.sh"),
    SoftwareManifest("alpine", [], [("A\nB", "v")], "go.sh"),
    SoftwareManifest("alpine", [], [("A", "v\x0c")], "go.sh"),
    SoftwareManifest("alpine", [], [("A=B", "v")], "go.sh"),
])
def test_manifest_rejects_fields_that_break_line_structure(manifest):
    with pytest.raises(InvalidName):
        manifest.to_text()


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

    manifest = SoftwareManifest.from_text(by_path[".manifest"].content.decode("utf-8"))
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


# Every line boundary str.splitlines recognizes; the codec rejects them all.
_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85  "

_name = st.text(
    alphabet=st.characters(codec="utf-8", exclude_characters="=\x00" + _BREAKS),
    min_size=1, max_size=12)
_value = st.text(
    alphabet=st.characters(codec="utf-8", exclude_characters="\x00" + _BREAKS),
    min_size=0, max_size=12)


@given(
    base=_name,
    packages=st.lists(_name, max_size=6),
    environment=st.lists(st.tuples(_name, _value), max_size=6),
    runscript=_name,
)
def test_manifest_round_trips_through_text(base, packages, environment, runscript):
    manifest = SoftwareManifest(base=base, packages=packages,
                                environment=environment, runscript=runscript)
    assert SoftwareManifest.from_text(manifest.to_text()) == manifest


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
