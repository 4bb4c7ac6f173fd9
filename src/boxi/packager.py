"""Turn workflow components into images.

Three encapsulation paths: pack an existing data directory, pack a fresh
empty output directory, and build an application image from a recipe. A
packed directory is streamed into its image: the scan reads no file, and
each file is read as it is encoded, so no tree is held. An application
image carries the runscript and its support files plus its
SoftwareManifest, as canonical JSON, at the reserved path ".manifest".

Recipe grammar (UTF-8, line oriented):

    # full-line comments and blank lines are ignored
    [base]
    from = ubuntu:16.04

    [packages]
    # one package per line: a bare name, or name = version
    gnuplot
    [files]
    host/path = /image/path
    [environment]
    KEY = VALUE
    [runscript]
    path = /image/path

Sections may appear in any order, each at most once. Base and packages are
recorded, never installed: builds are hermetic and run no package manager.
"""

from __future__ import annotations

import json
import stat
from dataclasses import dataclass, field, fields
from pathlib import Path

from .archive import (ArchiveEntry, _UNSAFE, _check_path, encode_entries, encode_pieces,
                      scan_dir, with_parents)
from .document import Document
from .errors import (
    BoxiError,
    InvalidName,
    IoError,
    MalformedArchive,
    MissingFile,
    NoRunscript,
    RecipeParseError,
)
from .image import (
    ARCH_X86_64,
    DATA_PARTITION,
    FS_ARCHIVE_RO,
    FS_ARCHIVE_RW,
    PART_DATA,
    PART_SYSTEM_PRIMARY,
    BoxImage,
    NewPartition,
)

MANIFEST_PATH = ".manifest"

_SECTIONS = ("base", "packages", "files", "environment", "runscript")


@dataclass
class Recipe:
    """Parsed build description for an application image."""

    base: str
    packages: list[str] = field(default_factory=list)
    files: list[tuple[str, str]] = field(default_factory=list)  # (host, image)
    environment: list[tuple[str, str]] = field(default_factory=list)
    runscript: str | None = None


@dataclass
class SoftwareManifest(Document):
    """Identity of the software stack packed into an application image.

    It is stored at ".manifest" as its canonical JSON (see document.py),
    with the fields below as keys, so equal recipes give equal bytes.
    """

    base: str
    packages: list[str]
    environment: list[tuple[str, str]]
    runscript: str

    @classmethod
    def from_json(cls, raw: bytes) -> "SoftwareManifest":
        """Parse stored bytes with the checks build_app_image guarantees.

        A runscript outside the image raises NoRunscript. Other faults raise
        RecipeParseError, at line 0 unless the text is not UTF-8 or JSON.
        """
        keys = [f.name for f in fields(cls)]
        try:
            doc = json.loads(utf8_text(raw, MANIFEST_PATH))
        except (json.JSONDecodeError, RecursionError) as exc:
            raise RecipeParseError(f"{MANIFEST_PATH} is not JSON: {exc}",
                                   getattr(exc, "lineno", 0)) from None
        if not isinstance(doc, dict) or set(doc) != set(keys):
            raise RecipeParseError(f"manifest must have exactly the keys {keys}", 0)
        base, packages, environment, runscript = (doc[key] for key in keys)
        if not _strings([base, runscript]) or not _strings(packages):
            raise RecipeParseError("manifest base, runscript and packages must be strings", 0)
        if not isinstance(environment, list) or not all(
                _strings(pair) and len(pair) == 2 for pair in environment):
            raise RecipeParseError("manifest environment must hold [name, value] strings", 0)
        environment = [(name, value) for name, value in environment]
        _check_environment(environment, RecipeParseError)
        try:
            _check_path(runscript)
        except MalformedArchive as exc:
            raise NoRunscript(f"manifest runscript: {exc}") from None
        return cls(base, packages, environment, runscript)


def _strings(value: object) -> bool:
    return isinstance(value, list) and all(isinstance(item, str) for item in value)


def _check_environment(environment: list[tuple[str, str]],
                       error: type[BoxiError] = InvalidName) -> None:
    """Reject what no process environment can hold: '=' in a name, and NUL
    or a lone surrogate in a name or value."""
    for name, value in environment:
        if "=" in name or _UNSAFE.search(name + value):
            raise error(f"environment entry {name!r} holds '=' in its name, NUL or a surrogate")


def utf8_text(raw: bytes, what: str) -> str:
    """Decode recipe or manifest bytes; a byte that is not UTF-8 raises
    RecipeParseError at its line, numbered as the parsers number lines."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = raw[:exc.start].decode("utf-8")
        line = len((before + "x").splitlines())
        raise RecipeParseError(f"{what} is not UTF-8: {exc.reason}", line) from None


def parse_recipe(text: str) -> Recipe:
    """Parse recipe text; raises RecipeParseError carrying a line number.

    Line number 0 marks document-level problems (a missing section).
    """
    base: str | None = None
    packages: list[str] = []
    files: list[tuple[str, str]] = []
    environment: list[tuple[str, str]] = []
    runscript: str | None = None
    seen: set[str] = set()
    section: str | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in _SECTIONS:
                raise RecipeParseError(f"unknown section [{name}]", lineno)
            if name in seen:
                raise RecipeParseError(f"duplicate section [{name}]", lineno)
            seen.add(name)
            section = name
            continue
        if section is None:
            raise RecipeParseError("content before any section header", lineno)
        if section == "packages":
            name, sep, version = line.partition("=")
            name, version = name.strip(), version.strip()
            if not name:
                raise RecipeParseError("package line without a name", lineno)
            packages.append(f"{name}={version}" if sep and version else name)
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise RecipeParseError("expected key = value", lineno)
        key, value = key.strip(), value.strip()
        if not key:
            raise RecipeParseError("missing key before '='", lineno)
        if section == "base":
            if key != "from":
                raise RecipeParseError(f"unknown key {key!r} in [base]", lineno)
            if base is not None:
                raise RecipeParseError("duplicate 'from' line", lineno)
            if not value:
                raise RecipeParseError("empty base identifier", lineno)
            base = value
        elif section == "files":
            if not value:
                raise RecipeParseError(f"file {key!r} lacks an image path", lineno)
            files.append((key, value))
        elif section == "environment":
            environment.append((key, value))
        elif section == "runscript":
            if key != "path":
                raise RecipeParseError(f"unknown key {key!r} in [runscript]", lineno)
            if runscript is not None:
                raise RecipeParseError("duplicate runscript path", lineno)
            if not value:
                raise RecipeParseError("empty runscript path", lineno)
            runscript = value

    if base is None:
        raise RecipeParseError("recipe declares no [base] section", 0)
    return Recipe(base=base, packages=packages, files=files,
                  environment=environment, runscript=runscript)


def _inner_path(path: str, what: str) -> str:
    """Normalize an in-image path: leading slash dropped, traversal rejected."""
    normalized = path.lstrip("/")
    try:
        _check_path(normalized)
    except MalformedArchive as exc:
        raise InvalidName(f"{what}: {exc}") from exc
    return normalized


def _entries_with_parents(pairs: list[tuple[str, int, bytes]]) -> list[ArchiveEntry]:
    """Build archive entries for (path, mode, content) files plus parent dirs."""
    files: dict[str, ArchiveEntry] = {}
    for inner, mode, content in pairs:
        if inner in files:
            raise InvalidName(f"two files map to the same image path {inner!r}")
        files[inner] = ArchiveEntry(inner, mode, content)
    parents = with_parents([], {inner.rpartition("/")[0] for inner in files})
    overlap = files.keys() & {entry.path for entry in parents}
    if overlap:
        raise InvalidName(f"image path is both file and directory: {sorted(overlap)[0]!r}")
    return [*files.values(), *parents]


def pack_data_dir(dir_path: Path | str, image_name: str,
                  path: Path | str | None = None) -> BoxImage:
    """Encapsulate an existing directory as a single-data-partition image.

    The partition is named after the directory and holds the directory's
    contents (the directory itself is the tree root). Each file is read as
    it is written into the image; one that changed since the scan raises
    FileChanged, and no image file is left.
    """
    dir_path = Path(dir_path)
    if not dir_path.is_dir():
        raise IoError(f"not a readable directory: {dir_path}")
    try:
        pieces = encode_pieces(scan_dir(dir_path))
    except OSError as exc:
        raise IoError(f"cannot read {dir_path}: {exc}") from exc
    return BoxImage.create(image_name, path, [NewPartition(
        pieces,
        datatype=DATA_PARTITION,
        fstype=FS_ARCHIVE_RW,
        parttype=PART_DATA,
        arch=ARCH_X86_64,
        name=dir_path.resolve().name or "data",
    )])


def pack_empty_output(dir_name: str, image_name: str,
                      path: Path | str | None = None) -> BoxImage:
    """Create an output image whose data partition holds one empty directory."""
    inner = _inner_path(dir_name, "output directory name")
    return BoxImage.create(image_name, path, [NewPartition(
        encode_entries(with_parents([], [inner])),
        datatype=DATA_PARTITION,
        fstype=FS_ARCHIVE_RW,
        parttype=PART_DATA,
        arch=ARCH_X86_64,
        name=inner,
    )])


def build_app_image(recipe: Recipe, image_name: str,
                    path: Path | str | None = None,
                    source_root: Path | str | None = None) -> BoxImage:
    """Build an application image from a recipe.

    Host paths in [files] resolve against source_root (default: the current
    directory). The resulting image holds exactly one system-primary
    partition: the files tree plus the manifest at ".manifest".
    """
    if not (recipe.runscript or "").lstrip("/"):
        raise NoRunscript("recipe names no runscript")
    root = Path(source_root) if source_root is not None else Path(".")

    pairs: list[tuple[str, int, bytes]] = []
    for host, inner_raw in recipe.files:
        inner = _inner_path(inner_raw, f"image path for {host!r}")
        if inner == MANIFEST_PATH:
            raise InvalidName(f"image path {MANIFEST_PATH!r} is reserved")
        source = root / host
        if not source.is_file():
            raise MissingFile(f"recipe file not found: {source}")
        try:
            pairs.append((inner, source.stat().st_mode, source.read_bytes()))
        except OSError as exc:
            raise IoError(f"cannot read {source}: {exc}") from exc

    _check_environment(recipe.environment)
    manifest = SoftwareManifest(
        base=recipe.base,
        packages=list(recipe.packages),
        environment=list(recipe.environment),
        runscript=_inner_path(recipe.runscript, "runscript path"),
    )
    pairs.append((MANIFEST_PATH, stat.S_IFREG | 0o644, manifest.to_json()))

    return BoxImage.create(image_name, path, [NewPartition(
        encode_entries(_entries_with_parents(pairs)),
        datatype=DATA_PARTITION,
        fstype=FS_ARCHIVE_RO,
        parttype=PART_SYSTEM_PRIMARY,
        arch=ARCH_X86_64,
        name="system",
    )])
