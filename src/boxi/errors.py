"""Exception types raised across the package.

Every error that callers are expected to handle derives from BoxiError and
carries the exit code the command line returns for it: 2 for validation,
3 for runtime failures, 4 for corruption.
"""

from __future__ import annotations


class BoxiError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 2


# --- naming and format validation -------------------------------------------

class InvalidName(BoxiError):
    """An image or partition name is empty, too long, or not encodable."""


class UnknownCode(BoxiError):
    """A numeric code is outside the vocabulary for its field."""


class DuplicatePrimary(BoxiError):
    """An image may hold at most one primary system partition."""


class NoSuchPartition(BoxiError):
    """The requested partition id is not present in the image."""


class NoFreePartitionId(BoxiError):
    """The image's largest partition id is the largest a descriptor holds."""


# --- on-disk integrity -------------------------------------------------------

class NotABoxImage(BoxiError):
    """The file does not start with the image magic or is structurally bad."""

    exit_code = 4


class TruncatedImage(BoxiError):
    """The file ends before a region the header or table points into."""

    exit_code = 4


class CorruptPartition(BoxiError):
    """Stored checksum does not match the payload bytes read back."""

    exit_code = 4


class MalformedArchive(BoxiError):
    """A directory-archive blob violates the encoding rules."""

    exit_code = 4


class UnsupportedEntry(BoxiError):
    """A directory tree holds something other than regular files and dirs,
    or a name that is not UTF-8."""


class FileChanged(BoxiError):
    """A scanned file changed before it was read into an archive: it is gone,
    replaced, by a symlink or another file, or not of its scanned size."""


# --- packaging ---------------------------------------------------------------

class RecipeParseError(BoxiError):
    """A build recipe could not be parsed.

    Carries the 1-based line number where parsing failed, or 0 for a
    fault of the whole document.
    """

    def __init__(self, message: str, line: int = 0):
        super().__init__(f"line {line}: {message}")
        self.line = line


class MissingFile(BoxiError):
    """A recipe names a source file that does not exist on the host."""


class NoRunscript(BoxiError):
    """An application image or recipe has no entry point to execute."""


# --- workflow validation and execution ---------------------------------------

class InvalidWorkflowSpec(BoxiError):
    """A workflow document is structurally invalid."""


class UnknownComponent(BoxiError):
    """A binding or invocation names a component id that is not declared."""


class CyclicBinding(BoxiError):
    """The binding graph contains a cycle."""


class ConflictingWrites(BoxiError):
    """An output component would be written by more than one invocation."""


class WrongPartitionType(BoxiError):
    """An operation needs a partition of a different type than it found."""


class SandboxError(BoxiError):
    """The run directory could not be prepared, used, or torn down."""

    exit_code = 3


class IoError(BoxiError):
    """An underlying filesystem operation failed."""


# --- record trails ------------------------------------------------------------

class NotAnOutputOfRun(BoxiError):
    """Trail assembly was asked about a component the run never wrote."""


class NoMetadataPartition(BoxiError):
    """The image holds no metadata partition to read a trail from."""


class MalformedTrail(BoxiError):
    """A metadata payload is not a well-formed record trail document."""

    exit_code = 4


# --- benchmarking --------------------------------------------------------------

class BenchAborted(BoxiError):
    """A measured command failed, so the benchmark result would be invalid."""

    exit_code = 3
