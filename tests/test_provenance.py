"""Tests for record-trail assembly and metadata collocation."""

from __future__ import annotations

import itertools
import json
import time
import uuid as uuidlib

import pytest

from boxi import runtime, standins
from boxi.errors import (
    MalformedTrail,
    NoMetadataPartition,
    NotAnOutputOfRun,
    UnknownComponent,
)
from boxi.image import (
    ARCH_ANY,
    DATA_JSON,
    FS_ARCHIVE_RO,
    PART_METADATA,
    BoxImage,
    iso_utc,
)
from boxi.provenance import (
    METADATA_PARTITION_NAME,
    ComponentRecord,
    RecordTrail,
    assemble_record_trail,
    attach_metadata,
    canonical_json,
    capture_static_metadata,
    read_trail,
    stamped,
)
from boxi.runtime import TWO_COPY, ZERO_COPY, TrailWrite, run_workflow

from .conftest import Workbench, open_images
from .oracles import mask_trail, read_descriptors, read_header

GOOD_RECORD = {
    "role": "input",
    "name": "input",
    "uuid": "a68d17ee-1d26-4461-9bbc-b45d42e3e1f4",
    "created": "2016-05-04T10:11:58Z",
    "modified": "2016-05-04T10:12:04Z",
}


def make_trail(**overrides) -> dict:
    output = {**GOOD_RECORD, "role": "output", "name": "out",
              "uuid": str(uuidlib.uuid4())}
    doc = {
        "schema_version": 1,
        "workflow_label": "wf",
        "output": output,
        "record_trail": [dict(GOOD_RECORD), output],
        "command": "run.py Inputs Outputs",
        "executed_at": "2016-05-04T10:12:05Z",
        "exit_status": 0,
    }
    doc.update(overrides)
    return doc


def test_canonical_json_form_is_pinned():
    blob = canonical_json({"b": 1, "a": [1, 2]})
    assert blob == b'{\n  "b": 1,\n  "a": [\n    1,\n    2\n  ]\n}\n'


def test_canonical_json_preserves_key_order():
    assert canonical_json({"z": 0, "a": 0}).index(b"z") < \
        canonical_json({"z": 0, "a": 0}).index(b"a")


def test_record_round_trip():
    record = ComponentRecord.from_mapping(GOOD_RECORD)
    assert record.to_mapping() == GOOD_RECORD


def test_record_allows_equal_created_and_modified():
    raw = {**GOOD_RECORD, "modified": GOOD_RECORD["created"]}
    assert ComponentRecord.from_mapping(raw).created == raw["modified"]


@pytest.mark.parametrize("mutate", [
    lambda r: r.pop("uuid"),
    lambda r: r.update(extra="x"),
    lambda r: r.update(name=7),
    lambda r: r.update(role="sidecar"),
    lambda r: r.update(uuid="not-a-uuid"),
    lambda r: r.update(created="2020-01-01T00:00:00Z",
                       modified="2019-01-01T00:00:00Z"),
])
def test_malformed_records_are_rejected(mutate):
    raw = dict(GOOD_RECORD)
    mutate(raw)
    with pytest.raises(MalformedTrail):
        ComponentRecord.from_mapping(raw)


def test_trail_round_trips_through_canonical_json():
    trail = RecordTrail.from_mapping(make_trail())
    again = RecordTrail.from_json(trail.to_json())
    assert again == trail
    assert again.to_json() == trail.to_json()


def test_trail_mapping_uses_schema_key_order():
    trail = RecordTrail.from_mapping(make_trail())
    assert list(trail.to_mapping()) == [
        "schema_version", "workflow_label", "output", "record_trail",
        "command", "executed_at", "exit_status"]


@pytest.mark.parametrize("mutate", [
    lambda d: d.pop("command"),
    lambda d: d.update(surprise=1),
    lambda d: d.update(schema_version=2),
    lambda d: d.update(workflow_label=3),
    lambda d: d.update(command=None),
    lambda d: d.update(exit_status="0"),
    lambda d: d.update(exit_status=True),
    lambda d: d.update(record_trail=[]),
    lambda d: d.update(record_trail="x"),
    lambda d: d.update(record_trail=[dict(GOOD_RECORD)]),          # no output
    lambda d: d.update(record_trail=[d["output"], d["output"]]),   # twice
    lambda d: d.update(record_trail=[d["output"], dict(GOOD_RECORD)]),
])
def test_malformed_trails_are_rejected(mutate):
    doc = make_trail()
    mutate(doc)
    with pytest.raises(MalformedTrail):
        RecordTrail.from_mapping(doc)


def test_from_json_rejects_non_json():
    with pytest.raises(MalformedTrail):
        RecordTrail.from_json(b"\xff\xfe not json")
    with pytest.raises(MalformedTrail):
        RecordTrail.from_json(b"[1, 2]")


def test_capture_reads_the_image_header(tmp_path, monkeypatch):
    import boxi.image as image_mod
    monkeypatch.setattr(image_mod.time, "time", lambda: 1_700_000_000)
    image = BoxImage.create("fixture", tmp_path / "fixture.boxi")
    record = capture_static_metadata(image, "input")
    assert record.role == "input"
    assert record.name == "fixture"
    assert record.uuid == str(image.uuid)
    assert record.created == "2023-11-14T22:13:20Z"
    assert record.modified == "2023-11-14T22:13:20Z"


def test_capture_rejects_unknown_role(tmp_path):
    image = BoxImage.create("fixture", tmp_path / "fixture.boxi")
    with pytest.raises(ValueError):
        capture_static_metadata(image, "bystander")


# --- assembly from a real run -----------------------------------------------


def test_assembled_trail_walks_one_level_back(workbench):
    spec = workbench.identity_spec(label="traced")
    report = run_workflow(spec, ZERO_COPY)
    trail = assemble_record_trail(spec, report, "out", open_images(spec))

    assert trail.workflow_label == "traced"
    assert [(r.role, r.name) for r in trail.record_trail] == [
        ("input", "input"), ("application", "app"), ("output", "output")]
    assert trail.output == trail.record_trail[-1]
    assert trail.command == "run.py Inputs Outputs/data"
    assert trail.exit_status == 0
    assert trail.executed_at == iso_utc(
        report.invocations[0].started_ns // 1_000_000_000)

    # UUIDs in the trail match the image headers, read independently.
    for record, image_file in zip(trail.record_trail,
                                  ("input.boxi", "app.boxi", "output.boxi")):
        header = read_header(workbench.root / image_file)
        assert record.uuid == str(uuidlib.UUID(bytes=header["uuid_bytes"]))
        assert record.created == iso_utc(header["created"])
        assert record.modified == iso_utc(header["modified"])


def test_assembly_requires_a_declared_component(workbench):
    spec = workbench.identity_spec()
    report = run_workflow(spec, ZERO_COPY)
    with pytest.raises(UnknownComponent):
        assemble_record_trail(spec, report, "ghost", open_images(spec))


def test_assembly_requires_the_component_was_written(workbench):
    spec = workbench.identity_spec()
    report = run_workflow(spec, ZERO_COPY)
    with pytest.raises(NotAnOutputOfRun):
        assemble_record_trail(spec, report, "in", open_images(spec))


def test_inputs_are_ordered_by_image_name(workbench):
    workbench.input_image({"t.csv": b"1"}, name="train", dir_name="train")
    workbench.input_image({"e.csv": b"2"}, name="eval", dir_name="eval")
    workbench.app_image(standins.PROBE)
    workbench.output_image()
    spec = workbench.spec(
        components=[
            {"id": "c-train", "role": "input", "image": "train.boxi"},
            {"id": "c-eval", "role": "input", "image": "eval.boxi"},
            {"id": "app", "role": "application", "image": "app.boxi"},
            {"id": "out", "role": "output", "image": "output.boxi"},
        ],
        bindings=[
            {"source": "c-train:/", "target": "app:/train"},
            {"source": "c-eval:/", "target": "app:/eval"},
            {"source": "out:/Outputs", "target": "app:/Outputs"},
        ],
        invocations=[{"app": "app", "argv": ["train/t.csv"]}],
    )
    report = run_workflow(spec, ZERO_COPY)
    trail = assemble_record_trail(spec, report, "out", open_images(spec))
    assert [r.name for r in trail.record_trail] == [
        "eval", "train", "app", "output"]


def test_name_ties_break_on_component_id(workbench):
    for sub in ("d1", "d2"):
        tree = workbench.root / sub / "tree" / "Inputs"
        tree.mkdir(parents=True)
        (tree / "x.txt").write_bytes(sub.encode())
        from boxi.packager import pack_data_dir
        pack_data_dir(tree, "twin", workbench.root / sub / "twin.boxi").close()
    workbench.app_image(standins.PROBE)
    workbench.output_image()
    spec = workbench.spec(
        components=[
            {"id": "zz", "role": "input", "image": "d1/twin.boxi"},
            {"id": "aa", "role": "input", "image": "d2/twin.boxi"},
            {"id": "app", "role": "application", "image": "app.boxi"},
            {"id": "out", "role": "output", "image": "output.boxi"},
        ],
        bindings=[
            {"source": "zz:/", "target": "app:/m1"},
            {"source": "aa:/", "target": "app:/m2"},
            {"source": "out:/Outputs", "target": "app:/Outputs"},
        ],
        invocations=[{"app": "app", "argv": ["m1/x.txt"]}],
    )
    report = run_workflow(spec, ZERO_COPY)
    trail = assemble_record_trail(spec, report, "out", open_images(spec))
    first, second = trail.record_trail[0], trail.record_trail[1]
    assert first.name == second.name == "twin"
    assert first.uuid == str(uuidlib.UUID(
        bytes=read_header(workbench.root / "d2" / "twin.boxi")["uuid_bytes"]))


def test_only_writer_apps_and_their_inputs_appear(workbench):
    workbench.input_image({"a": b"1"}, name="in1")
    workbench.input_image({"b": b"2"}, name="in2")
    workbench.app_image(standins.IDENTITY, name="app1")
    workbench.app_image(standins.PROBE, name="app2")
    workbench.output_image()
    spec = workbench.spec(
        components=[
            {"id": "in1", "role": "input", "image": "in1.boxi"},
            {"id": "in2", "role": "input", "image": "in2.boxi"},
            {"id": "app1", "role": "application", "image": "app1.boxi"},
            {"id": "app2", "role": "application", "image": "app2.boxi"},
            {"id": "out", "role": "output", "image": "output.boxi"},
        ],
        bindings=[
            {"source": "in1:/", "target": "app1:/Inputs"},
            {"source": "out:/Outputs", "target": "app1:/Outputs"},
            {"source": "in2:/", "target": "app2:/Inputs"},
        ],
        invocations=[
            {"app": "app1", "argv": ["Inputs", "Outputs/data"]},
            {"app": "app2", "argv": ["Inputs/b"]},
        ],
    )
    report = run_workflow(spec, ZERO_COPY)
    trail = assemble_record_trail(spec, report, "out", open_images(spec))
    assert [r.name for r in trail.record_trail] == ["in1", "app1", "output"]


def test_apps_bound_but_never_invoked_are_not_writers(workbench):
    spec = workbench.identity_spec()
    spec_doc_extra_app = workbench.app_image(standins.IDENTITY, name="idle")
    spec.components.append(
        type(spec.components[0])("idle", "application", str(spec_doc_extra_app)))
    spec.bindings.append(
        type(spec.bindings[0])("out", "Outputs", "idle", "Outputs"))
    report = run_workflow(spec, ZERO_COPY)
    trail = assemble_record_trail(spec, report, "out", open_images(spec))
    assert [r.name for r in trail.record_trail] == ["input", "app", "output"]


# --- attachment ----------------------------------------------------------------


def test_attach_creates_a_metadata_partition(workbench):
    spec = workbench.identity_spec()
    report = run_workflow(spec, ZERO_COPY)
    trail = assemble_record_trail(spec, report, "out", open_images(spec))
    with BoxImage.open(workbench.root / "output.boxi") as image:
        pid = attach_metadata(image, trail)
    assert pid == 2

    record = next(r for r in read_descriptors(workbench.root / "output.boxi")
                  if r["id"] == pid)
    assert record["datatype"] == DATA_JSON
    assert record["fstype"] == FS_ARCHIVE_RO
    assert record["parttype"] == PART_METADATA
    assert record["arch"] == ARCH_ANY
    assert record["name"] == METADATA_PARTITION_NAME
    modified_at = read_header(workbench.root / "output.boxi")["modified"]
    assert record["payload"] == stamped(trail, modified_at).to_json()


def test_attach_replaces_in_place(workbench):
    spec = workbench.identity_spec()
    report = run_workflow(spec, ZERO_COPY)
    trail = assemble_record_trail(spec, report, "out", open_images(spec))
    with BoxImage.open(workbench.root / "output.boxi") as image:
        first = attach_metadata(image, trail)
        second = attach_metadata(image, trail)
        assert first == second
        assert len(image.find(parttype=PART_METADATA)) == 1
        assert read_trail(image) == stamped(trail, image.modified_at)


def test_attach_replaces_the_changed_payloads_in_the_same_commit(workbench):
    spec = workbench.identity_spec()
    report = run_workflow(spec, ZERO_COPY)
    trail = assemble_record_trail(spec, report, "out", open_images(spec))
    with BoxImage.open(workbench.root / "output.boxi") as image:
        pid = attach_metadata(image, trail, {1: [b"new ", b"data"]})
        assert image.dump_partition(1) == b"new data"
        assert read_trail(image) == stamped(trail, image.modified_at)
    assert pid == 2


@pytest.mark.parametrize("mode", [ZERO_COPY, TWO_COPY])
def test_a_run_with_trails_stores_each_through_attach_metadata(workbench, monkeypatch, mode):
    spec = workbench.identity_spec()
    calls = []
    real_attach = runtime.attach_metadata

    def recorded_attach(image, trail, changed=None):
        calls.append((image.name, trail.output.name, sorted(changed)))
        return real_attach(image, trail, changed)

    monkeypatch.setattr(runtime, "attach_metadata", recorded_attach)
    report = run_workflow(spec, mode, trail=True)
    assert calls == [("output", "output", [1])]  # the data partition, in the same commit
    assert report.trails_attached == [TrailWrite("out", 2)]
    with BoxImage.open(workbench.root / "output.boxi") as image:
        assert read_trail(image).output.modified == iso_utc(image.modified_at)


def test_attach_collapses_stray_metadata_partitions(workbench):
    spec = workbench.identity_spec()
    report = run_workflow(spec, ZERO_COPY)
    trail = assemble_record_trail(spec, report, "out", open_images(spec))
    with BoxImage.open(workbench.root / "output.boxi") as image:
        image.add_partition(b"{}", datatype=DATA_JSON, fstype=FS_ARCHIVE_RO,
                            parttype=PART_METADATA, arch=ARCH_ANY, name="stray1")
        image.add_partition(b"{}", datatype=DATA_JSON, fstype=FS_ARCHIVE_RO,
                            parttype=PART_METADATA, arch=ARCH_ANY, name="stray2")
        attach_metadata(image, trail)
        found = image.find(parttype=PART_METADATA)
        assert len(found) == 1
        assert read_trail(image) == stamped(trail, image.modified_at)


def test_attach_stamps_the_trail_with_the_header_it_is_stored_under(workbench, monkeypatch):
    spec = workbench.identity_spec()
    ticks = itertools.count(int(time.time()))
    monkeypatch.setattr(time, "time", lambda: float(next(ticks)))
    output = workbench.root / "output.boxi"
    for _ in range(2):  # the first attach adds the trail, the second replaces it
        report = run_workflow(spec, ZERO_COPY)
        trail = assemble_record_trail(spec, report, "out", open_images(spec))
        with BoxImage.open(output) as image:
            attach_metadata(image, trail)
        stored = json.loads(next(r["payload"] for r in read_descriptors(output)
                                 if r["parttype"] == PART_METADATA))
        modified = iso_utc(read_header(output)["modified"])
        assert stored["output"]["modified"] == modified
        assert stored["record_trail"][-1]["modified"] == modified


def test_read_trail_without_metadata(workbench):
    workbench.output_image()
    with BoxImage.open(workbench.root / "output.boxi") as image:
        with pytest.raises(NoMetadataPartition):
            read_trail(image)


def test_read_trail_with_two_metadata_partitions(workbench):
    workbench.output_image()
    with BoxImage.open(workbench.root / "output.boxi") as image:
        for name in ("m1", "m2"):
            image.add_partition(b"{}", datatype=DATA_JSON, fstype=FS_ARCHIVE_RO,
                                parttype=PART_METADATA, arch=ARCH_ANY, name=name)
        with pytest.raises(MalformedTrail):
            read_trail(image)


def test_read_trail_rejects_garbage_payload(workbench):
    workbench.output_image()
    with BoxImage.open(workbench.root / "output.boxi") as image:
        image.add_partition(json.dumps({"weird": 1}).encode(),
                            datatype=DATA_JSON, fstype=FS_ARCHIVE_RO,
                            parttype=PART_METADATA, arch=ARCH_ANY, name="meta")
        with pytest.raises(MalformedTrail):
            read_trail(image)


def test_trails_are_stable_up_to_ids_and_times(tmp_path):
    masked = []
    for attempt in ("one", "two"):
        bench = Workbench(tmp_path / attempt)
        spec = bench.identity_spec(label="stability")
        report = run_workflow(spec, ZERO_COPY)
        trail = assemble_record_trail(spec, report, "out", open_images(spec))
        masked.append(mask_trail(trail.to_mapping()))
    assert masked[0] == masked[1]
