"""Turn workflow components into images.

Three encapsulation paths: pack an existing data directory, pack a fresh
empty output directory, and build an application image from a recipe. An
application image carries the runscript and its support files plus a
canonical software manifest at the reserved path ".manifest".

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

import hashlib
import stat
from dataclasses import dataclass, field
from pathlib import Path

from .archive import ArchiveEntry, _check_path, encode_dir, encode_entries
from .errors import (
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


def _ordinal(key: str, lineno: int) -> int:
    try:
        return int(key.partition(".")[2])
    except ValueError:
        raise RecipeParseError(f"bad ordinal in manifest key {key!r}", lineno) from None


def _single_line(text: str, what: str) -> str:
    # splitlines catches every line boundary the parser would split on,
    # not just \n: \r, \x0b, \x0c, \x85, U+2028, U+2029, and friends.
    if text.splitlines() not in ([], [text]):
        raise InvalidName(f"{what} contains a line break: {text!r}")
    return text


@dataclass
class Recipe:
    """Parsed build description for an application image."""

    base: str
    packages: list[str] = field(default_factory=list)
    files: list[tuple[str, str]] = field(default_factory=list)  # (host, image)
    environment: list[tuple[str, str]] = field(default_factory=list)
    runscript: str | None = None


@dataclass
class SoftwareManifest:
    """Identity of the software stack packed into an application image.

    The canonical text is a sorted list of key=value lines, one per line,
    LF terminated. List entries carry zero-padded ordinals in their keys
    (pkg.0007, env.0002) so sorting the lines preserves list order.
    """

    base: str
    packages: list[str]
    environment: list[tuple[str, str]]
    runscript: str

    def to_text(self) -> str:
        lines = [f"base={_single_line(self.base, 'base')}",
                 f"runscript={_single_line(self.runscript, 'runscript')}"]
        lines.extend(f"pkg.{i:04d}={_single_line(name, 'package')}"
                     for i, name in enumerate(self.packages))
        for i, (key, value) in enumerate(self.environment):
            if "=" in key:
                raise InvalidName(f"environment name contains '=': {key!r}")
            lines.append(f"env.{i:04d}={_single_line(key, 'environment name')}"
                         f"={_single_line(value, 'environment value')}")
        return "".join(line + "\n" for line in sorted(lines))

    @property
    def manifest_hash(self) -> str:
        return hashlib.sha256(self.to_text().encode("utf-8")).hexdigest()

    @classmethod
    def from_text(cls, text: str) -> "SoftwareManifest":
        base: str | None = None
        runscript: str | None = None
        packages: list[tuple[int, str]] = []
        environment: list[tuple[int, tuple[str, str]]] = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise RecipeParseError("manifest line is not key=value", lineno)
            if key == "base":
                base = value
            elif key == "runscript":
                runscript = value
            elif key.startswith("pkg."):
                packages.append((_ordinal(key, lineno), value))
            elif key.startswith("env."):
                name, esep, val = value.partition("=")
                if not esep:
                    raise RecipeParseError("environment entry is not KEY=VALUE", lineno)
                environment.append((_ordinal(key, lineno), (name, val)))
            else:
                raise RecipeParseError(f"unknown manifest key {key!r}", lineno)
        if base is None:
            raise RecipeParseError("manifest lacks a base line", 0)
        if runscript is None:
            raise RecipeParseError("manifest lacks a runscript line", 0)
        return cls(
            base=base,
            packages=[name for _, name in sorted(packages)],
            environment=[pair for _, pair in sorted(environment)],
            runscript=runscript,
        )


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
    dir_paths: dict[str, int] = {}
    file_paths: set[str] = set()
    entries: list[ArchiveEntry] = []
    for inner, mode, content in pairs:
        if inner in file_paths:
            raise InvalidName(f"two files map to the same image path {inner!r}")
        file_paths.add(inner)
        parts = inner.split("/")
        for depth in range(1, len(parts)):
            dir_paths.setdefault("/".join(parts[:depth]), stat.S_IFDIR | 0o755)
        entries.append(ArchiveEntry(inner, mode, content))
    overlap = file_paths & dir_paths.keys()
    if overlap:
        raise InvalidName(f"image path is both file and directory: {sorted(overlap)[0]!r}")
    entries.extend(ArchiveEntry(path, mode, None) for path, mode in dir_paths.items())
    return entries


def pack_data_dir(dir_path: Path | str, image_name: str,
                  path: Path | str | None = None) -> BoxImage:
    """Encapsulate an existing directory as a single-data-partition image.

    The partition is named after the directory and holds the directory's
    contents (the directory itself is the tree root).
    """
    dir_path = Path(dir_path)
    if not dir_path.is_dir():
        raise IoError(f"not a readable directory: {dir_path}")
    try:
        payload = encode_dir(dir_path)
    except OSError as exc:
        raise IoError(f"cannot read {dir_path}: {exc}") from exc
    return BoxImage.create(image_name, path, [NewPartition(
        payload,
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
    parts = inner.split("/")
    entries = [ArchiveEntry("/".join(parts[:depth]), stat.S_IFDIR | 0o755, None)
               for depth in range(1, len(parts) + 1)]
    return BoxImage.create(image_name, path, [NewPartition(
        encode_entries(entries),
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
    runscript = (recipe.runscript or "").lstrip("/")
    if not runscript:
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

    manifest = SoftwareManifest(
        base=recipe.base,
        packages=list(recipe.packages),
        environment=[(str(k), str(v)) for k, v in recipe.environment],
        runscript=_inner_path(recipe.runscript, "runscript path"),
    )
    pairs.append((MANIFEST_PATH, stat.S_IFREG | 0o644, manifest.to_text().encode("utf-8")))

    return BoxImage.create(image_name, path, [NewPartition(
        encode_entries(_entries_with_parents(pairs)),
        datatype=DATA_PARTITION,
        fstype=FS_ARCHIVE_RO,
        parttype=PART_SYSTEM_PRIMARY,
        arch=ARCH_X86_64,
        name="system",
    )])
