"""Assemble record trails and collocate them inside output images.

Each output a run writes gets a trail: the static metadata (name, UUID,
creation and modification date) of every component that produced it,
walked backwards one level — the applications that wrote into the output,
the inputs bound into those applications, and the output itself. The trail
is serialized as canonical JSON and stored as a json-generic metadata
partition of the output image, so the data carries its own history.

Records are read from open image handles, in a run the plan's, so a trail
names the headers the run read even if an image file is replaced meanwhile.
attach_metadata stores every trail, stamped: its output record takes the
modified-at time of the commit that stores it, so it names the header it
is stored under. A run with trails calls it once per output with the new
data partition, so data and trail land in one rewrite. runtime imports
this module, never the other way round, so the role names live here.

The trail is written in the canonical JSON form defined in document.py.
Its keys are the fields of RecordTrail and ComponentRecord, in order:

    {
      "schema_version": 1,
      "workflow_label": str,
      "output": {record},
      "record_trail": [{record}, ...],
      "command": str,
      "executed_at": str,
      "exit_status": int
    }

where a record is {"role", "name", "uuid", "created", "modified"}.
"""

from __future__ import annotations

import json
import uuid as uuidlib
from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING, Mapping

from .document import Document, canonical_json  # noqa: F401  (re-exported)
from .errors import MalformedTrail, NoMetadataPartition, NotAnOutputOfRun
from .image import (  # noqa: F401  (METADATA_PARTITION_NAME re-exported)
    METADATA_PARTITION_NAME,
    PART_METADATA,
    BoxImage,
    Source,
    iso_utc,
)

if TYPE_CHECKING:
    from .runtime import ExecutionReport, WorkflowSpec

ROLE_INPUT = "input"
ROLE_APPLICATION = "application"
ROLE_OUTPUT = "output"
ROLES = (ROLE_INPUT, ROLE_APPLICATION, ROLE_OUTPUT)

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ComponentRecord(Document):
    """Static metadata of one component image."""

    role: str
    name: str
    uuid: str
    created: str
    modified: str

    @classmethod
    def from_mapping(cls, raw: object) -> "ComponentRecord":
        if not isinstance(raw, dict) or set(raw) != set(_RECORD_KEYS):
            raise MalformedTrail(f"record must have exactly the keys {_RECORD_KEYS}")
        if any(not isinstance(raw[key], str) for key in _RECORD_KEYS):
            raise MalformedTrail("record fields must be strings")
        if raw["role"] not in ROLES:
            raise MalformedTrail(f"unknown record role {raw['role']!r}")
        try:
            uuidlib.UUID(raw["uuid"])
        except ValueError as exc:
            raise MalformedTrail(f"bad uuid {raw['uuid']!r}") from exc
        if raw["created"] > raw["modified"]:
            raise MalformedTrail(
                f"record {raw['name']!r}: created after modified")
        return cls(**{key: raw[key] for key in _RECORD_KEYS})


@dataclass(frozen=True)
class RecordTrail(Document):
    """The per-output provenance document."""

    schema_version: int
    workflow_label: str
    output: ComponentRecord
    record_trail: tuple[ComponentRecord, ...]
    command: str
    executed_at: str
    exit_status: int

    @classmethod
    def from_mapping(cls, raw: object) -> "RecordTrail":
        if not isinstance(raw, dict) or set(raw) != set(_TRAIL_KEYS):
            raise MalformedTrail(f"trail must have exactly the keys {_TRAIL_KEYS}")
        if raw["schema_version"] != SCHEMA_VERSION:
            raise MalformedTrail(f"unsupported schema_version {raw['schema_version']!r}")
        if not isinstance(raw["workflow_label"], str):
            raise MalformedTrail("workflow_label must be a string")
        if not isinstance(raw["command"], str) or not isinstance(raw["executed_at"], str):
            raise MalformedTrail("command and executed_at must be strings")
        if not isinstance(raw["exit_status"], int) or isinstance(raw["exit_status"], bool):
            raise MalformedTrail("exit_status must be an integer")
        output = ComponentRecord.from_mapping(raw["output"])
        if not isinstance(raw["record_trail"], list) or not raw["record_trail"]:
            raise MalformedTrail("record_trail must be a non-empty list")
        records = tuple(ComponentRecord.from_mapping(r) for r in raw["record_trail"])
        if records[-1] != output:
            raise MalformedTrail("the trail must end with the output's own record")
        if sum(1 for rec in records if rec == output) != 1:
            raise MalformedTrail("the output's record must appear exactly once")
        return cls(
            schema_version=raw["schema_version"],
            workflow_label=raw["workflow_label"],
            output=output,
            record_trail=records,
            command=raw["command"],
            executed_at=raw["executed_at"],
            exit_status=raw["exit_status"],
        )

    @classmethod
    def from_json(cls, payload: bytes) -> "RecordTrail":
        try:
            raw = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise MalformedTrail(f"metadata payload is not JSON: {exc}") from exc
        return cls.from_mapping(raw)


_RECORD_KEYS = tuple(f.name for f in fields(ComponentRecord))
_TRAIL_KEYS = tuple(f.name for f in fields(RecordTrail))


def capture_static_metadata(image: BoxImage, role: str) -> ComponentRecord:
    """Copy the identifying header fields of an image into a record."""
    if role not in ROLES:
        raise ValueError(f"role must be one of {ROLES}, got {role!r}")
    return ComponentRecord(
        role=role,
        name=image.name,
        uuid=str(image.uuid),
        created=iso_utc(image.created_at),
        modified=iso_utc(image.modified_at),
    )


def assemble_record_trail(spec: WorkflowSpec, report: ExecutionReport,
                          output_id: str, images: Mapping[str, BoxImage]) -> RecordTrail:
    """Build the trail for one output written by the reported run.

    Backward traversal, one level: the applications whose invocations wrote
    into the output, then every input bound into those applications.
    Ordering is inputs (by name), applications (by name), output last.
    Records are read from images, open handles keyed as MountPlan.images.
    """
    spec.component(output_id)  # raises UnknownComponent when absent
    if output_id not in {ow.component_id for ow in report.outputs_written}:
        raise NotAnOutputOfRun(f"{output_id!r} was not written by this run")

    invoked = {rec.component_id for rec in report.invocations}
    roles = {c.id: c.role for c in spec.components}
    writer_apps = {b.target for b in spec.bindings
                   if b.source == output_id and b.target in invoked}
    input_ids = {b.source for b in spec.bindings
                 if b.target in writer_apps and roles.get(b.source) == ROLE_INPUT}

    def record_for(component_id: str, role: str) -> ComponentRecord:
        return capture_static_metadata(images[spec.component(component_id).image], role)

    def ordered(ids: set[str], role: str) -> list[ComponentRecord]:
        records = [(record_for(cid, role), cid) for cid in ids]
        records.sort(key=lambda pair: (pair[0].name, pair[1]))
        return [rec for rec, _ in records]

    output_record = record_for(output_id, ROLE_OUTPUT)
    trail = (ordered(input_ids, ROLE_INPUT)
             + ordered(writer_apps, ROLE_APPLICATION)
             + [output_record])

    writer_records = [rec for rec in report.invocations
                      if rec.component_id in writer_apps]
    command = " ".join(writer_records[0].argv) if writer_records else ""
    executed_at = (iso_utc(writer_records[0].started_ns // 1_000_000_000)
                   if writer_records else "")
    exit_status = writer_records[0].exit_status if writer_records else 0

    return RecordTrail(
        schema_version=SCHEMA_VERSION,
        workflow_label=spec.label,
        output=output_record,
        record_trail=tuple(trail),
        command=command,
        executed_at=executed_at,
        exit_status=exit_status,
    )


def stamped(trail: RecordTrail, modified_at: int) -> RecordTrail:
    """The trail with its output's record, which also ends record_trail,
    modified at modified_at: the time of the commit that stores it."""
    output = replace(trail.output, modified=iso_utc(modified_at))
    return replace(trail, output=output, record_trail=(*trail.record_trail[:-1], output))


def attach_metadata(image: BoxImage, trail: RecordTrail,
                    changed: Mapping[int, Source] | None = None) -> int:
    """Store the trail, stamped with the commit's time, as the image's
    single metadata partition.

    An existing metadata partition keeps its id and gets the new payload,
    without its old one being read. Otherwise the trail is added, and any
    stray metadata partitions are dropped. The payloads in changed, keyed
    by partition id, are replaced in the same commit. Either way the image
    is rewritten whole, once, and swapped in atomically; see
    BoxImage.store_metadata. Returns the partition id holding the trail.
    """
    return image.store_metadata(lambda modified_at: stamped(trail, modified_at).to_json(),
                                changed)


def _trail_payload(image: BoxImage) -> bytes:
    """The stored bytes of an image's single metadata partition, unparsed."""
    found = image.find(parttype=PART_METADATA)
    if not found:
        raise NoMetadataPartition(f"{image.name} holds no metadata partition")
    if len(found) > 1:
        raise MalformedTrail(f"{image.name} holds {len(found)} metadata partitions")
    return image.dump_partition(found[0].partition_id)


def read_trail(image: BoxImage) -> RecordTrail:
    """Parse the trail stored in an image's metadata partition."""
    return RecordTrail.from_json(_trail_payload(image))
