"""The JSON documents boxi writes: one declaration per document.

A document is a dataclass whose fields, in declaration order, are its JSON
keys. Canonical form: two-space indent, keys in field order, LF line
endings, trailing newline.
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass


def canonical_json(mapping: dict) -> bytes:
    """Serialize a mapping in the package's canonical JSON form."""
    return (json.dumps(mapping, indent=2) + "\n").encode("utf-8")


def plain(value: object) -> object:
    """A dataclass as a dict in field order, nested dataclasses as objects
    and tuples as lists; any other value as it is."""
    if is_dataclass(value):
        return {f.name: plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, (list, tuple)):
        return [plain(item) for item in value]
    return value


class Document:
    """Base of a dataclass that serializes its own fields."""

    def to_mapping(self) -> dict:
        return plain(self)

    def to_json(self) -> bytes:
        return canonical_json(self.to_mapping())
