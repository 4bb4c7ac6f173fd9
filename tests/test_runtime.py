"""Tests for workflow loading, validation, mount planning, and execution."""

from __future__ import annotations

import json
import os
import shutil
import stat
import struct
import tracemalloc
import uuid
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from boxi import archive, runtime, scenarios, standins
from boxi import image as image_mod
from boxi.archive import ArchiveEntry, decode, encode_entries, extract_dir
from boxi.cli import main
from boxi.errors import (
    ConflictingWrites,
    CorruptPartition,
    CyclicBinding,
    FileChanged,
    InvalidName,
    InvalidWorkflowSpec,
    IoError,
    MalformedArchive,
    NoRunscript,
    SandboxError,
    UnknownComponent,
    WrongPartitionType,
)
from boxi.image import BoxImage
from boxi.packager import Recipe, build_app_image, pack_data_dir
from boxi.runtime import (
    SANDBOX_ENV,
    TWO_COPY,
    ZERO_COPY,
    WorkflowSpec,
    load_workflow,
    plan_mounts,
    run_workflow,
    two_copy_transfer,
    workflow_from_mapping,
    zero_copy_transfer,
)

from .conftest import FILE_CHANGES, Workbench, run_without_file_overrides
from .oracles import flip_bit, walk_tree


def output_tree(image_path, dest):
    """Extract an image's single data partition for inspection."""
    with BoxImage.open(image_path) as image:
        (part,) = image.find(parttype=3)
        extract_dir(image.dump_partition(part.partition_id), dest)
    return walk_tree(dest)


# --- loading and validation ------------------------------------------------


def test_load_workflow_resolves_images_against_its_directory(workbench, tmp_path):
    workbench.identity_spec()
    doc = {
        "label": "wf",
        "components": [{"id": "in", "role": "input", "image": "input.boxi"}],
        "bindings": [],
        "invocations": [],
    }
    target = workbench.root / "flow.json"
    target.write_text(json.dumps(doc))
    spec = load_workflow(target)
    assert spec.components[0].image == str(workbench.root / "input.boxi")


def test_load_workflow_missing_file(tmp_path):
    with pytest.raises(IoError):
        load_workflow(tmp_path / "absent.json")


def test_load_workflow_bad_json(tmp_path):
    target = tmp_path / "bad.json"
    target.write_text("{not json")
    with pytest.raises(InvalidWorkflowSpec):
        load_workflow(target)


def _doc(**overrides):
    doc = {
        "label": "wf",
        "components": [
            {"id": "in", "role": "input", "image": "input.boxi"},
            {"id": "app", "role": "application", "image": "app.boxi"},
            {"id": "out", "role": "output", "image": "output.boxi"},
        ],
        "bindings": [
            {"source": "in:/", "target": "app:/Inputs"},
            {"source": "out:/Outputs", "target": "app:/Outputs"},
        ],
        "invocations": [{"app": "app", "argv": ["Inputs", "Outputs"]}],
    }
    doc.update(overrides)
    return doc


def test_mapping_round_trip_of_a_valid_document():
    spec = workflow_from_mapping(_doc())
    assert spec.label == "wf"
    assert [c.id for c in spec.components] == ["in", "app", "out"]
    assert spec.bindings[0].source_path == ""
    assert spec.bindings[1].source_path == "Outputs"
    assert spec.invocations[0].argv == ("Inputs", "Outputs")


@pytest.mark.parametrize("mutate", [
    lambda d: d.update(label=""),
    lambda d: d.update(label=7),
    lambda d: d.update(components="nope"),
    lambda d: d["components"].append("nope"),
    lambda d: d["components"].append({"id": "x", "role": "input"}),
    lambda d: d["components"].append({"id": "in", "role": "input", "image": "i"}),
    lambda d: d["components"].append({"id": "a:b", "role": "input", "image": "i"}),
    lambda d: d["components"].append({"id": "x", "role": "banana", "image": "i"}),
    lambda d: d["bindings"].append({"source": "nocolon", "target": "app:/x"}),
    lambda d: d["bindings"].append({"source": "in:/", "target": "app:/"}),
    lambda d: d["bindings"].append({"source": "in:/../up", "target": "app:/x"}),
    lambda d: d["invocations"].append({"app": "in"}),
    lambda d: d["invocations"].append({"app": "app", "argv": [1, 2]}),
])
def test_structurally_bad_documents_are_rejected(mutate):
    doc = _doc()
    mutate(doc)
    with pytest.raises(InvalidWorkflowSpec):
        workflow_from_mapping(doc)


def test_a_spec_built_with_an_empty_label_is_refused_by_the_planner():
    # a document cannot carry one: _expect_str refuses the label first
    with pytest.raises(InvalidWorkflowSpec, match="workflow label is empty"):
        plan_mounts(WorkflowSpec("", [], [], []))


def test_workflow_must_be_an_object():
    with pytest.raises(InvalidWorkflowSpec):
        workflow_from_mapping(["not", "an", "object"])


def test_undeclared_binding_endpoint():
    doc = _doc()
    doc["bindings"].append({"source": "ghost:/", "target": "app:/x"})
    with pytest.raises(UnknownComponent):
        workflow_from_mapping(doc)


def test_undeclared_invocation_app():
    doc = _doc(invocations=[{"app": "ghost", "argv": []}])
    with pytest.raises(UnknownComponent):
        workflow_from_mapping(doc)


def test_binding_cycle_is_rejected():
    doc = _doc(
        components=[
            {"id": "a", "role": "application", "image": "a.boxi"},
            {"id": "b", "role": "application", "image": "b.boxi"},
        ],
        bindings=[
            {"source": "a:/", "target": "b:/from-a"},
            {"source": "b:/", "target": "a:/from-b"},
        ],
        invocations=[],
    )
    with pytest.raises(CyclicBinding):
        workflow_from_mapping(doc)


def test_self_binding_is_a_cycle():
    doc = _doc(bindings=[{"source": "app:/", "target": "app:/self"}],
               invocations=[])
    with pytest.raises(CyclicBinding):
        workflow_from_mapping(doc)


@pytest.mark.parametrize("second_target", ["app:/Inputs", "app:/Inputs/nested"])
def test_colliding_target_paths_are_rejected(second_target):
    doc = _doc()
    doc["bindings"].append({"source": "out:/Outputs", "target": second_target})
    with pytest.raises((InvalidWorkflowSpec, ConflictingWrites)):
        workflow_from_mapping(doc)


def test_two_invoked_writers_for_one_output():
    doc = _doc(
        components=_doc()["components"] + [
            {"id": "app2", "role": "application", "image": "app2.boxi"},
        ],
        bindings=_doc()["bindings"] + [
            {"source": "out:/Outputs", "target": "app2:/Outputs"},
        ],
        invocations=[
            {"app": "app", "argv": []},
            {"app": "app2", "argv": []},
        ],
    )
    with pytest.raises(ConflictingWrites):
        workflow_from_mapping(doc)


# Which component names out1's image file output.boxi, and how.
_SHARED_OUTPUT_FILE = {
    "same": ("out2", "output.boxi"),
    "dot-dot": ("out2", "sub/../output.boxi"),
    "symlink": ("out2", "link.boxi"),
    "input-file": ("in", "output.boxi"),
}


@pytest.mark.parametrize("case", sorted(_SHARED_OUTPUT_FILE))
def test_an_output_image_file_named_twice_is_refused(workbench, capsys, case):
    workbench.input_image({"a.txt": b"alpha"})
    workbench.app_image(standins.IDENTITY)
    workbench.output_image()
    workbench.output_image(name="output2")
    (workbench.root / "sub").mkdir()
    (workbench.root / "link.boxi").symlink_to("output.boxi")
    # two identity apps of one app image, each writing its own output
    doc = _doc(
        components=[
            {"id": "in", "role": "input", "image": "input.boxi"},
            {"id": "app1", "role": "application", "image": "app.boxi"},
            {"id": "app2", "role": "application", "image": "app.boxi"},
            {"id": "out1", "role": "output", "image": "output.boxi"},
            {"id": "out2", "role": "output", "image": "output2.boxi"},
        ],
        bindings=[
            {"source": "in:/", "target": "app1:/Inputs"},
            {"source": "out1:/Outputs", "target": "app1:/Outputs"},
            {"source": "in:/", "target": "app2:/Inputs"},
            {"source": "out2:/Outputs", "target": "app2:/Outputs"},
        ],
        invocations=[{"app": "app1", "argv": ["Inputs", "Outputs/data"]},
                     {"app": "app2", "argv": ["Inputs", "Outputs/data"]}],
    )
    component, image = _SHARED_OUTPUT_FILE[case]
    for comp in doc["components"]:
        if comp["id"] == component:
            comp["image"] = image
    with pytest.raises(InvalidWorkflowSpec, match="shares its image file"):
        workflow_from_mapping(doc, base_dir=workbench.root)
    flow = workbench.root / "workflow.json"
    flow.write_text(json.dumps(doc))
    images = {path: path.read_bytes() for path in workbench.root.glob("*.boxi")}
    assert main(["run", str(flow)]) == 2
    assert "shares its image file" in capsys.readouterr().err
    assert {path: path.read_bytes() for path in images} == images


def test_output_bound_into_a_never_invoked_app_is_allowed():
    doc = _doc(
        components=_doc()["components"] + [
            {"id": "app2", "role": "application", "image": "app2.boxi"},
        ],
        bindings=_doc()["bindings"] + [
            {"source": "out:/Outputs", "target": "app2:/Outputs"},
        ],
    )
    spec = workflow_from_mapping(doc)
    assert len(spec.bindings) == 3


def test_inner_paths_are_normalized():
    doc = _doc(bindings=[
        {"source": "in:/a/b/", "target": "app:/mnt/point"},
    ], invocations=[])
    spec = workflow_from_mapping(doc)
    assert spec.bindings[0].source_path == "a/b"
    assert spec.bindings[0].target_path == "mnt/point"


# --- planning ----------------------------------------------------------------


def fan_out_spec(workbench):
    """One input read by two apps, each writing its own output."""
    workbench.input_image({"a.txt": b"shared"})
    workbench.app_image(standins.IDENTITY, name="app1")
    workbench.app_image(standins.IDENTITY, name="app2")
    workbench.output_image(name="out1")
    workbench.output_image(name="out2")
    return workbench.spec(
        components=[
            {"id": "in", "role": "input", "image": "input.boxi"},
            {"id": "app1", "role": "application", "image": "app1.boxi"},
            {"id": "app2", "role": "application", "image": "app2.boxi"},
            {"id": "out1", "role": "output", "image": "out1.boxi"},
            {"id": "out2", "role": "output", "image": "out2.boxi"},
        ],
        bindings=[
            {"source": "in:/", "target": "app1:/Inputs"},
            {"source": "out1:/Outputs", "target": "app1:/Outputs"},
            {"source": "in:/", "target": "app2:/Inputs"},
            {"source": "out2:/Outputs", "target": "app2:/Outputs"},
        ],
        invocations=[
            {"app": "app1", "argv": ["Inputs", "Outputs/data"]},
            {"app": "app2", "argv": ["Inputs", "Outputs/data"]},
        ],
        label="fan-out",
    )


def test_zero_copy_plan_shares_readable_mounts(workbench):
    spec = fan_out_spec(workbench)
    plan = plan_mounts(spec, ZERO_COPY)
    assert plan.mode == ZERO_COPY
    ops = [step.op for step in plan.steps]
    assert ops.count("view") == 2
    mounts = [step.dst for step in plan.steps if step.op in ("link", "spot")]
    assert [d for d in mounts if d.startswith("views/0/")] == [
        "views/0/Inputs", "views/0/Outputs"]
    # one shared materialization for the input, one spot per written output
    (materialize,) = [step for step in plan.steps if step.op == "materialize"]
    assert materialize.component == "in"
    spots = [step for step in plan.steps if step.op == "spot"]
    assert [step.component for step in spots] == ["out1", "out2"]
    assert [step.src for step in plan.steps if step.op == "repack"] == [
        step.dst for step in spots]
    assert not {"stage", "copy-in", "copy-out"} & set(ops)
    assert plan.copy_events == run_workflow(spec, ZERO_COPY).copy_events == 3


def test_two_copy_plan_stages_every_mount(workbench):
    spec = fan_out_spec(workbench)
    plan = plan_mounts(spec, TWO_COPY)
    ops = [step.op for step in plan.steps]
    assert "materialize" not in ops
    # 4 mounts, 2 staged copies each
    assert sum(op in ("stage", "copy-in", "copy-out", "repack") for op in ops) == 8
    assert plan.copy_events == run_workflow(spec, TWO_COPY).copy_events == 8


@pytest.mark.parametrize("mode", [ZERO_COPY, TWO_COPY])
def test_a_mount_plan_splices_nothing_and_links_every_materialize(workbench, mode):
    plan = plan_mounts(fan_out_spec(workbench), mode)
    for image in plan.images.values():
        image.close()
    assert "splice" not in [step.op for step in plan.steps]
    materialized = {step.dst for step in plan.steps if step.op == "materialize"}
    assert bool(materialized) == (mode == ZERO_COPY)
    assert materialized <= {step.src for step in plan.steps if step.op == "link"}


@pytest.mark.parametrize("mode, ops", [
    (ZERO_COPY, ["splice", "repack"]),
    (TWO_COPY, ["stage", "copy-in", "copy-out", "repack"]),
])
def test_a_transfer_plan_names_each_step_it_runs(workbench, mode, ops):
    src, dst = transfer_fixture(workbench)
    plan = runtime._plan_transfer(mode, src, 1, dst, "/Inputs")
    for image in plan.images.values():
        image.close()
    assert [step.op for step in plan.steps] == ops
    assert plan.steps[-1].src == plan.steps[-2].dst
    assert plan.copy_events == len(ops)


def test_the_executor_runs_a_materialize_that_no_link_reads(workbench, monkeypatch):
    src = workbench.input_image({"a.txt": b"alpha"})
    extracted = []

    def recorded_extract(blob, dest, _extract=archive.extract_dir):
        extracted.append(Path(dest).parts[-2:])
        _extract(blob, dest)

    monkeypatch.setattr(archive, "extract_dir", recorded_extract)
    image = BoxImage.open(src)
    plan = runtime.MountPlan("unread", ZERO_COPY, (
        runtime.Step("materialize", "in", str(src), 1, dst="shared/0"),), (), {str(src): image})
    assert runtime._run_plan(plan).copy_events == 1
    assert extracted == [("shared", "0")]


def test_plan_rejects_unknown_mode(workbench):
    with pytest.raises(ValueError):
        plan_mounts(workbench.identity_spec(), "three-copy")


def test_plan_requires_one_data_partition_per_data_component(workbench):
    spec = workbench.identity_spec()
    with BoxImage.open(workbench.root / "input.boxi") as image:
        image.add_partition(b"extra", datatype=4, fstype=2, parttype=3,
                            arch=2, name="second")
    with pytest.raises(WrongPartitionType):
        plan_mounts(spec)


def test_run_requires_a_primary_partition_for_apps(workbench):
    spec = workbench.identity_spec()
    # Replace the app image with a data-only image of the same name.
    workbench.input_image({"x": b""}, name="fake")
    (workbench.root / "fake.boxi").replace(workbench.root / "app.boxi")
    with pytest.raises(WrongPartitionType):
        run_workflow(spec, ZERO_COPY)


def _counting_opens(monkeypatch) -> list[str]:
    opened: list[str] = []
    real_open = BoxImage.open

    def counting_open(cls, path):
        opened.append(str(path))
        return real_open(path)

    monkeypatch.setattr(BoxImage, "open", classmethod(counting_open))
    return opened


@pytest.mark.parametrize("mode", [ZERO_COPY, TWO_COPY])
def test_a_run_opens_each_image_once(tmp_path, monkeypatch, mode):
    # scenario 2: three inputs, one plotter image run by three apps, three outputs
    spec = load_workflow(scenarios.build_scenario(2, tmp_path))
    opened = _counting_opens(monkeypatch)
    report = run_workflow(spec, mode)
    assert all(record.exit_status == 0 for record in report.invocations)
    assert len(opened) == len(set(opened)) == 7


def _identity_flow(root: Path) -> Path:
    data = root / "data"
    data.mkdir()
    (data / "a.txt").write_bytes(b"alpha\n")
    return scenarios.build_identity_fixture(root / "flow", data)


@pytest.mark.parametrize("mode", [ZERO_COPY, TWO_COPY])
@pytest.mark.parametrize("flow, images", [
    (lambda root: scenarios.build_scenario(2, root), 7),
    (_identity_flow, 3),
], ids=["scenario2", "identity"])
def test_boxi_run_opens_each_image_once(tmp_path, monkeypatch, capsys, mode, flow, images):
    # the trails are read from the plan's handles, and no output is reopened
    workflow = flow(tmp_path)
    opened = _counting_opens(monkeypatch)
    assert main(["run", "--mode", mode, str(workflow)]) == 0
    assert len(opened) == len(set(opened)) == images


def test_a_transfer_opens_its_two_images_once(workbench, monkeypatch):
    src, dst = transfer_fixture(workbench)
    opened = _counting_opens(monkeypatch)
    zero_copy_transfer(src, 1, dst, "/Inputs")
    assert opened == [str(src), str(dst)]


MARKER = """#!/usr/bin/env python3
import sys
from pathlib import Path
Path(sys.argv[1]).write_text("ran")
"""


@pytest.mark.parametrize("mode", [ZERO_COPY, TWO_COPY])
def test_a_bad_app_image_is_refused_before_any_app_runs(workbench, tmp_path, mode):
    workbench.app_image(MARKER, name="marker")
    workbench.input_image({"x": b""}, name="not-an-app")
    marker = tmp_path / "marker-ran"
    spec = workbench.spec(
        components=[
            {"id": "first", "role": "application", "image": "marker.boxi"},
            {"id": "second", "role": "application", "image": "not-an-app.boxi"},
        ],
        bindings=[],
        invocations=[{"app": "first", "argv": [str(marker)]}, {"app": "second"}],
    )
    with pytest.raises(WrongPartitionType, match="primary"):
        run_workflow(spec, mode)
    assert not marker.exists()


# --- execution ----------------------------------------------------------------


def test_identity_run_copies_input_to_output(workbench, tmp_path):
    files = {"a.txt": b"alpha\n", "sub/b.bin": bytes(range(64))}
    spec = workbench.identity_spec(files)
    report = run_workflow(spec, ZERO_COPY)

    assert [r.exit_status for r in report.invocations] == [0]
    assert report.invocations[0].argv == ("run.py", "Inputs", "Outputs/data")
    assert report.mode == ZERO_COPY
    assert report.copy_events == 2
    assert [ow.component_id for ow in report.outputs_written] == ["out"]

    tree = output_tree(workbench.root / "output.boxi", tmp_path / "check")
    assert tree["Outputs/data/a.txt"] == ("file", 0o644, b"alpha\n")
    assert tree["Outputs/data/sub/b.bin"][2] == bytes(range(64))


def test_both_modes_produce_identical_output_bytes(workbench):
    files = {"a.txt": b"alpha\n", "deep/nested/c.txt": b"c"}
    spec = workbench.identity_spec(files)
    zero = run_workflow(spec, ZERO_COPY)
    with BoxImage.open(workbench.root / "output.boxi") as image:
        zero_payload = image.dump_partition(1)

    # fresh output image, same workflow, the staged mode
    workbench.output_image()
    two = run_workflow(spec, TWO_COPY)
    with BoxImage.open(workbench.root / "output.boxi") as image:
        two_payload = image.dump_partition(1)

    assert zero.copy_events == 2
    assert two.copy_events == 4
    assert zero_payload == two_payload


def subdirectory_workflow(workbench, source):
    """Write an identity workflow that binds the input at source; return its path."""
    workbench.input_image({"top.txt": b"top", "sub/a.txt": b"alpha",
                           "sub/deep/b.txt": b"beta"})
    workbench.app_image(standins.IDENTITY)
    workbench.output_image()
    flow = workbench.root / "workflow.json"
    flow.write_text(json.dumps(_doc(bindings=[
        {"source": source, "target": "app:/Inputs"},
        {"source": "out:/Outputs", "target": "app:/Outputs"},
    ], invocations=[{"app": "app", "argv": ["Inputs", "Outputs/data"]}])))
    return flow


@pytest.mark.parametrize("mode", [ZERO_COPY, TWO_COPY])
def test_readable_binding_of_a_subdirectory_exposes_only_that_subtree(workbench, mode):
    run_workflow(load_workflow(subdirectory_workflow(workbench, "in:/sub")), mode)
    # one expected payload for both modes: the outputs are byte-identical
    expected = encode_entries([
        ArchiveEntry("Outputs", stat.S_IFDIR | 0o755, None),
        ArchiveEntry("Outputs/data", stat.S_IFDIR | 0o755, None),
        ArchiveEntry("Outputs/data/a.txt", stat.S_IFREG | 0o644, b"alpha"),
        ArchiveEntry("Outputs/data/deep", stat.S_IFDIR | 0o755, None),
        ArchiveEntry("Outputs/data/deep/b.txt", stat.S_IFREG | 0o644, b"beta"),
    ])
    with BoxImage.open(workbench.root / "output.boxi") as image:
        assert image.dump_partition(1) == expected


@pytest.mark.parametrize("mode", [ZERO_COPY, TWO_COPY])
def test_binding_a_missing_subdirectory_is_a_sandbox_error(workbench, mode, capsys):
    flow = subdirectory_workflow(workbench, "in:/absent")
    with pytest.raises(SandboxError):
        run_workflow(load_workflow(flow), mode)
    assert main(["run", "--mode", mode, str(flow)]) == 3
    assert "bound path /absent is not a directory" in capsys.readouterr().err


@pytest.mark.parametrize("mode", [ZERO_COPY, TWO_COPY])
def test_removing_a_writable_mount_is_a_sandbox_error(workbench, mode):
    remover = """#!/usr/bin/env python3
import os
os.rmdir("Outputs")
"""
    workbench.app_image(remover)
    workbench.output_image()
    spec = workbench.spec(
        components=[
            {"id": "app", "role": "application", "image": "app.boxi"},
            {"id": "out", "role": "output", "image": "output.boxi"},
        ],
        bindings=[{"source": "out:/Outputs", "target": "app:/Outputs"}],
        invocations=[{"app": "app", "argv": []}],
    )
    with pytest.raises(SandboxError):
        run_workflow(spec, mode)


TAMPERER = """#!/usr/bin/env python3
from pathlib import Path
seen = Path("Inputs/a.txt").read_text()
Path("Outputs/seen.txt").write_text(seen)
Path("Inputs/a.txt").write_text("tampered")
"""


@pytest.mark.parametrize("mode", [ZERO_COPY, TWO_COPY])
def test_writing_a_readable_mount_is_a_sandbox_error(workbench, mode, capsys):
    # Two apps read the same input and then overwrite it. In zero-copy the
    # second would see the first one's write, so neither mode lets it pass.
    workbench.input_image({"a.txt": b"original"})
    for index in ("1", "2"):
        workbench.app_image(TAMPERER, name=f"app{index}")
        workbench.output_image(name=f"out{index}")
    flow = workbench.root / "workflow.json"
    flow.write_text(json.dumps(_doc(
        components=[
            {"id": "in", "role": "input", "image": "input.boxi"},
            {"id": "app1", "role": "application", "image": "app1.boxi"},
            {"id": "app2", "role": "application", "image": "app2.boxi"},
            {"id": "out1", "role": "output", "image": "out1.boxi"},
            {"id": "out2", "role": "output", "image": "out2.boxi"},
        ],
        bindings=[
            {"source": "in:/", "target": "app1:/Inputs"},
            {"source": "out1:/Outputs", "target": "app1:/Outputs"},
            {"source": "in:/", "target": "app2:/Inputs"},
            {"source": "out2:/Outputs", "target": "app2:/Outputs"},
        ],
        invocations=[{"app": "app1", "argv": []}, {"app": "app2", "argv": []}],
    )))
    images = {path: path.read_bytes() for path in workbench.root.glob("*.boxi")}
    with pytest.raises(SandboxError, match="'app1' wrote into its readable mount /Inputs"):
        run_workflow(load_workflow(flow), mode)
    assert main(["run", "--mode", mode, str(flow)]) == 3
    assert "wrote into its readable mount /Inputs" in capsys.readouterr().err
    assert {path: path.read_bytes() for path in images} == images


MOVER = """#!/usr/bin/env python3
import os
os.rename("Inputs", "Moved")
"""


@pytest.mark.parametrize("mode", [ZERO_COPY, TWO_COPY])
def test_moving_a_readable_mount_away_is_a_sandbox_error(workbench, mode, capsys):
    workbench.input_image({"a.txt": b"original"})
    workbench.app_image(MOVER)
    workbench.output_image()
    flow = workbench.root / "workflow.json"
    flow.write_text(json.dumps(_doc(invocations=[{"app": "app", "argv": []}])))
    images = {path: path.read_bytes() for path in workbench.root.glob("*.boxi")}
    with pytest.raises(SandboxError, match="'app' wrote into its readable mount /Inputs"):
        run_workflow(load_workflow(flow), mode)
    assert main(["run", "--mode", mode, str(flow)]) == 3
    assert "wrote into its readable mount /Inputs" in capsys.readouterr().err
    assert {path: path.read_bytes() for path in images} == images


def test_writable_views_start_empty(workbench, tmp_path):
    # The app writes a listing of Outputs before touching it; any leftover
    # content in the view would show up there.
    lister = """#!/usr/bin/env python3
import os, sys
entries = sorted(os.listdir(sys.argv[1]))
with open(os.path.join(sys.argv[1], "seen.txt"), "w") as fh:
    fh.write(repr(entries))
"""
    workbench.input_image({"x.txt": b"x"})
    workbench.app_image(lister)
    out_path = workbench.output_image()
    # seed the output image with stale content under Outputs
    with BoxImage.open(out_path) as image:
        from boxi.archive import ArchiveEntry, decode, encode_entries
        entries = decode(image.dump_partition(1))
        entries.append(ArchiveEntry("Outputs/stale.txt", 0o100644, b"old"))
        image.update_partition(1, encode_entries(entries))

    spec = workbench.spec(
        components=[
            {"id": "in", "role": "input", "image": "input.boxi"},
            {"id": "app", "role": "application", "image": "app.boxi"},
            {"id": "out", "role": "output", "image": "output.boxi"},
        ],
        bindings=[
            {"source": "in:/", "target": "app:/Inputs"},
            {"source": "out:/Outputs", "target": "app:/Outputs"},
        ],
        invocations=[{"app": "app", "argv": ["Outputs"]}],
    )
    for mode in (ZERO_COPY, TWO_COPY):
        run_workflow(spec, mode)
        tree = output_tree(out_path, tmp_path / f"check-{mode}")
        assert tree["Outputs/seen.txt"][2] == b"[]", mode
        assert "Outputs/stale.txt" not in tree
        # reseed for the second mode
        with BoxImage.open(out_path) as image:
            entries = decode(image.dump_partition(1))
            entries.append(ArchiveEntry("Outputs/stale.txt", 0o100644, b"old"))
            image.update_partition(1, encode_entries(entries))


def test_repack_touches_only_the_bound_subtree(workbench, tmp_path):
    # Output image carries a sibling tree next to the bound directory.
    staged = workbench.root / "tree-rich" / "root"
    (staged / "Outputs").mkdir(parents=True)
    (staged / "Keep").mkdir()
    (staged / "Keep" / "precious.txt").write_bytes(b"do not touch")
    from boxi.packager import pack_data_dir
    pack_data_dir(staged, "rich", workbench.root / "rich.boxi").close()

    workbench.input_image({"a.txt": b"alpha"})
    workbench.app_image(standins.IDENTITY)
    spec = workbench.spec(
        components=[
            {"id": "in", "role": "input", "image": "input.boxi"},
            {"id": "app", "role": "application", "image": "app.boxi"},
            {"id": "out", "role": "output", "image": "rich.boxi"},
        ],
        bindings=[
            {"source": "in:/", "target": "app:/Inputs"},
            {"source": "out:/Outputs", "target": "app:/Outputs"},
        ],
        invocations=[{"app": "app", "argv": ["Inputs", "Outputs/data"]}],
    )
    run_workflow(spec, ZERO_COPY)
    tree = output_tree(workbench.root / "rich.boxi", tmp_path / "check")
    assert tree["Keep/precious.txt"][2] == b"do not touch"
    assert tree["Outputs/data/a.txt"][2] == b"alpha"


def test_nonzero_exit_is_reported_not_raised(workbench, tmp_path):
    workbench.input_image({"a.txt": b"a"})
    workbench.app_image(standins.FAILER)
    workbench.output_image()
    spec = workbench.spec(
        components=[
            {"id": "in", "role": "input", "image": "input.boxi"},
            {"id": "app", "role": "application", "image": "app.boxi"},
            {"id": "out", "role": "output", "image": "output.boxi"},
        ],
        bindings=[
            {"source": "in:/", "target": "app:/Inputs"},
            {"source": "out:/Outputs", "target": "app:/Outputs"},
        ],
        invocations=[{"app": "app", "argv": ["3", "Outputs"]}],
    )
    report = run_workflow(spec, ZERO_COPY)
    assert report.invocations[0].exit_status == 3
    # whatever the app managed to write is still repacked
    tree = output_tree(workbench.root / "output.boxi", tmp_path / "check")
    assert "Outputs/before-failure.txt" in tree


def test_stderr_tail_is_captured(workbench):
    noisy = """#!/usr/bin/env python3
import sys
print("something broke", file=sys.stderr)
sys.exit(1)
"""
    workbench.app_image(noisy)
    spec = workbench.spec(
        components=[{"id": "app", "role": "application", "image": "app.boxi"}],
        bindings=[],
        invocations=[{"app": "app", "argv": []}],
    )
    report = run_workflow(spec, ZERO_COPY)
    assert "something broke" in report.invocations[0].stderr_tail


NOISY = """#!/usr/bin/env python3
import sys
# 1 MiB of 2- to 4-byte characters, cut mid-character
block = ("\\u00e9\\u20ac\\U0001d11e" * 120000).encode()[: 1 << 20]
for _ in range(16):
    sys.stderr.buffer.write(block)
sys.exit(1)
"""


def test_a_noisy_application_costs_no_memory(workbench, tmp_path, monkeypatch):
    sandbox = tmp_path / "sandbox"
    monkeypatch.setenv(SANDBOX_ENV, str(sandbox))
    workbench.app_image(NOISY)
    spec = workbench.spec(
        components=[{"id": "app", "role": "application", "image": "app.boxi"}],
        bindings=[],
        invocations=[{"app": "app", "argv": []}],
    )
    tracemalloc.start()
    try:
        report = run_workflow(spec, ZERO_COPY)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * image_mod.CHUNK_BYTES  # 16 MiB went to stderr
    assert report.invocations[0].exit_status == 1
    # Decoding resynchronises within a few bytes, so two blocks end in the
    # same characters as all sixteen.
    block = ("é€\U0001d11e" * 120000).encode()[: 1 << 20]
    expected = (block * 2).decode("utf-8", errors="replace")[-runtime.STDERR_TAIL_CHARS:]
    assert report.invocations[0].stderr_tail == expected
    assert expected.endswith("\ufffd") and len(expected) == runtime.STDERR_TAIL_CHARS
    assert list(sandbox.iterdir()) == []


def test_views_are_isolated_between_invocations(workbench):
    workbench.input_image({"secret.txt": b"s"})
    workbench.app_image(standins.PROBE, name="app1")
    workbench.app_image(standins.PROBE, name="app2")
    spec = workbench.spec(
        components=[
            {"id": "in", "role": "input", "image": "input.boxi"},
            {"id": "app1", "role": "application", "image": "app1.boxi"},
            {"id": "app2", "role": "application", "image": "app2.boxi"},
        ],
        bindings=[{"source": "in:/", "target": "app2:/Inputs"}],
        invocations=[
            {"app": "app1", "argv": ["Inputs/secret.txt"]},
            {"app": "app2", "argv": ["Inputs/secret.txt"]},
        ],
    )
    report = run_workflow(spec, ZERO_COPY)
    assert [r.exit_status for r in report.invocations] == [1, 0]


def test_mount_point_collision_with_app_tree(workbench):
    # The app image itself ships a directory named like the mount point.
    src_dir = workbench.root / "src-clash"
    standins.write_script(src_dir / "run.py", standins.IDENTITY)
    (src_dir / "stuff.txt").write_text("x")
    recipe = Recipe(base="ubuntu:16.04",
                    files=[("run.py", "/run.py"), ("stuff.txt", "/Inputs/stuff.txt")],
                    runscript="/run.py")
    build_app_image(recipe, "clash", workbench.root / "clash.boxi",
                    source_root=src_dir).close()
    workbench.input_image({"a.txt": b"a"})
    spec = workbench.spec(
        components=[
            {"id": "in", "role": "input", "image": "input.boxi"},
            {"id": "app", "role": "application", "image": "clash.boxi"},
        ],
        bindings=[{"source": "in:/", "target": "app:/Inputs"}],
        invocations=[{"app": "app", "argv": []}],
    )
    with pytest.raises(SandboxError):
        run_workflow(spec, ZERO_COPY)


def test_missing_runscript_file(workbench):
    recipe = Recipe(base="ubuntu:16.04", files=[], runscript="/ghost.py")
    build_app_image(recipe, "ghost", workbench.root / "ghost.boxi").close()
    spec = workbench.spec(
        components=[{"id": "app", "role": "application", "image": "ghost.boxi"}],
        bindings=[],
        invocations=[{"app": "app", "argv": []}],
    )
    with pytest.raises(NoRunscript):
        run_workflow(spec, ZERO_COPY)


def test_non_executable_runscript(workbench):
    src_dir = workbench.root / "src-flat"
    target = src_dir / "run.py"
    target.parent.mkdir(parents=True)
    target.write_text(standins.IDENTITY)
    target.chmod(0o644)
    recipe = Recipe(base="ubuntu:16.04", files=[("run.py", "/run.py")],
                    runscript="/run.py")
    build_app_image(recipe, "flat", workbench.root / "flat.boxi",
                    source_root=src_dir).close()
    spec = workbench.spec(
        components=[{"id": "app", "role": "application", "image": "flat.boxi"}],
        bindings=[],
        invocations=[{"app": "app", "argv": []}],
    )
    with pytest.raises(NoRunscript):
        run_workflow(spec, ZERO_COPY)


def test_manifest_environment_reaches_the_app(workbench, tmp_path):
    echo = """#!/usr/bin/env python3
import os, sys
from pathlib import Path
Path(sys.argv[1], "env.txt").write_text(os.environ.get("GREETING", "missing"))
"""
    workbench.app_image(echo, env=[("GREETING", "hello from the manifest")])
    workbench.output_image()
    spec = workbench.spec(
        components=[
            {"id": "app", "role": "application", "image": "app.boxi"},
            {"id": "out", "role": "output", "image": "output.boxi"},
        ],
        bindings=[{"source": "out:/Outputs", "target": "app:/Outputs"}],
        invocations=[{"app": "app", "argv": ["Outputs"]}],
    )
    run_workflow(spec, ZERO_COPY)
    tree = output_tree(workbench.root / "output.boxi", tmp_path / "check")
    assert tree["Outputs/env.txt"][2] == b"hello from the manifest"


def test_no_invocations_means_no_copies(workbench):
    spec = workbench.identity_spec()
    spec.invocations = []
    report = run_workflow(spec, ZERO_COPY)
    assert report.copy_events == 0
    assert report.invocations == []
    assert report.outputs_written == []


def keep_run_dirs(monkeypatch) -> dict[Path, None]:
    """Stop the run directory's removal; return the directories left in
    place, each once however often its removal is tried."""
    kept: dict[Path, None] = {}
    monkeypatch.setattr(shutil, "rmtree", lambda path, **_: kept.setdefault(Path(path)))
    return kept


def test_sandbox_is_removed_by_default(workbench, tmp_path, monkeypatch):
    spec = workbench.identity_spec()
    sandbox_root = tmp_path / "sandboxes"
    sandbox_root.mkdir()
    monkeypatch.setenv(SANDBOX_ENV, str(sandbox_root))
    run_workflow(spec, ZERO_COPY)
    assert list(sandbox_root.iterdir()) == []


_BOXI = "import sys\nfrom boxi.cli import main\nsys.exit(main(sys.argv[1:]))\n"


@pytest.mark.parametrize("mode", [ZERO_COPY, TWO_COPY])
def test_a_read_only_directory_leaves_no_run_directory_behind(workbench, tmp_path, mode):
    # Without the file-override capabilities, as any non-root user runs, no
    # entry can be removed from a directory that lacks its write bit.
    workbench.identity_spec(files={"ro/x.txt": b"read only\n"})
    tree = workbench.root / "tree-input" / "Inputs"
    (tree / "ro").chmod(0o555)
    pack_data_dir(tree, "input", workbench.root / "input.boxi").close()
    workflow = workbench.root / "identity.json"
    workflow.write_text(json.dumps({
        "label": "identity",
        "components": [
            {"id": "in", "role": "input", "image": "input.boxi"},
            {"id": "app", "role": "application", "image": "app.boxi"},
            {"id": "out", "role": "output", "image": "output.boxi"},
        ],
        "bindings": [
            {"source": "in:/", "target": "app:/Inputs"},
            {"source": "out:/Outputs", "target": "app:/Outputs"},
        ],
        "invocations": [{"app": "app", "argv": ["Inputs", "Outputs/data"]}],
    }))
    output = workbench.root / "output.boxi"
    empty = output.read_bytes()
    run_workflow(load_workflow(workflow), mode)
    with BoxImage.open(output) as image:
        expected = image.dump_partition(1)
    output.write_bytes(empty)
    sandbox = tmp_path / "sandbox"
    sandbox.mkdir()
    proc = run_without_file_overrides(_BOXI, "run", str(workflow), "--mode", mode,
                                      "--no-trail", env={SANDBOX_ENV: str(sandbox)})
    assert proc.returncode == 0, proc.stderr
    assert list(sandbox.iterdir()) == []
    with BoxImage.open(output) as image:
        assert image.dump_partition(1) == expected
    assert b"Outputs/data/ro/x.txt" in expected


def test_opening_up_a_run_directory_follows_no_link(tmp_path):
    run_dir, outside = tmp_path / "run", tmp_path / "outside"
    (run_dir / "ro" / "deep").mkdir(parents=True)
    outside.mkdir()
    (run_dir / "ro" / "planted").symlink_to(outside, target_is_directory=True)
    for path in (outside, run_dir / "ro" / "deep", run_dir / "ro", run_dir):
        path.chmod(0o500)
    runtime._open_up(run_dir)
    assert [stat.S_IMODE(path.stat().st_mode)
            for path in (run_dir, run_dir / "ro", run_dir / "ro" / "deep", outside)] == [
        0o700, 0o700, 0o700, 0o500]


def test_keep_sandbox_preserves_the_run_dir(workbench, tmp_path, monkeypatch):
    spec = workbench.identity_spec()
    sandbox_root = tmp_path / "sandboxes"
    monkeypatch.setenv(SANDBOX_ENV, str(sandbox_root))
    kept = keep_run_dirs(monkeypatch)
    run_workflow(spec, TWO_COPY)
    (run_dir,) = kept
    assert run_dir.parent == sandbox_root
    tree = walk_tree(run_dir)
    assert any(p.endswith("staging/0/a.txt") for p in tree)  # dump to staging
    assert any("views/0" in p for p in tree)


def test_sandbox_env_variable_sets_the_root(workbench, tmp_path, monkeypatch):
    spec = workbench.identity_spec()
    custom = tmp_path / "custom-root"
    custom.mkdir()
    monkeypatch.setenv(SANDBOX_ENV, str(custom))
    kept = keep_run_dirs(monkeypatch)
    run_workflow(spec, ZERO_COPY)
    (run_dir,) = kept
    assert run_dir.parent == custom


@pytest.mark.parametrize("mode", [ZERO_COPY, TWO_COPY], ids=lambda mode: f"env-{mode}")
def test_relative_sandbox_root_runs(workbench, tmp_path, monkeypatch, mode):
    spec = workbench.identity_spec()
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv(SANDBOX_ENV, "rel-sandbox")
    kept = keep_run_dirs(monkeypatch)
    report = run_workflow(spec, mode)
    assert [rec.exit_status for rec in report.invocations] == [0]
    (run_dir,) = kept
    assert run_dir.parent == tmp_path / "rel-sandbox"
    tree = output_tree(workbench.root / "output.boxi", tmp_path / "check")
    assert tree["Outputs/data/a.txt"][2] == b"alpha\n"


def test_report_mapping_shape(workbench):
    report = run_workflow(workbench.identity_spec(), ZERO_COPY)
    mapping = report.to_mapping()
    assert list(mapping) == ["label", "mode", "invocations", "copy_events",
                             "outputs_written", "bindings_used", "trails_attached"]
    assert [list(rec) for rec in mapping["invocations"]] == [
        ["component_id", "argv", "started_ns", "finished_ns", "exit_status",
         "stderr_tail"]]
    assert [list(ow) for ow in mapping["outputs_written"]] == [
        ["component_id", "partition_ids"]]
    assert mapping["label"] == "identity"
    assert mapping["mode"] == ZERO_COPY
    assert mapping["copy_events"] == 2
    assert mapping["invocations"][0]["exit_status"] == 0
    assert mapping["outputs_written"] == [
        {"component_id": "out", "partition_ids": [1]}]
    assert mapping["bindings_used"] == [
        "in:/ -> app:/Inputs", "out:/Outputs -> app:/Outputs"]
    assert mapping["trails_attached"] == []  # no trail asked for


def test_a_rerun_drops_the_old_payload_before_it_reads_the_new_tree(workbench, tmp_path):
    files = {f"part{index}.bin": bytes([index]) * (512 << 10) for index in range(8)}
    spec = workbench.identity_spec(files)
    run_workflow(spec, ZERO_COPY, trail=True)  # the output now holds the payload
    tracemalloc.start()
    try:
        run_workflow(spec, ZERO_COPY, trail=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tree = output_tree(workbench.root / "output.boxi", tmp_path / "check")
    assert {path: tree[f"Outputs/data/{path}"][2] for path in files} == files
    assert peak < 1.5 * 8 * (512 << 10)  # the new tree, never the old payload too


# --- direct transfers ---------------------------------------------------------


def transfer_fixture(workbench):
    src = workbench.input_image({"a.txt": b"alpha", "d/b.txt": b"beta"},
                                name="src", dir_name="payload")
    dst = workbench.output_image(name="dst", dir_name="Inputs")
    return src, dst


def test_zero_copy_transfer_moves_the_tree(workbench, tmp_path):
    src, dst = transfer_fixture(workbench)
    report = zero_copy_transfer(src, 1, dst, "/Inputs")
    assert report.copy_events == 2
    assert report.invocations == []
    tree = output_tree(dst, tmp_path / "check")
    assert tree["Inputs/a.txt"][2] == b"alpha"
    assert tree["Inputs/d/b.txt"][2] == b"beta"


def test_transfer_modes_agree_byte_for_byte(workbench, tmp_path):
    src, dst = transfer_fixture(workbench)
    zero_copy_transfer(src, 1, dst, "/Inputs")
    with BoxImage.open(dst) as image:
        zero_payload = image.dump_partition(1)

    dst2 = workbench.output_image(name="dst2", dir_name="Inputs")
    report = two_copy_transfer(src, 1, dst2, "/Inputs")
    with BoxImage.open(dst2) as image:
        two_payload = image.dump_partition(1)
    assert report.copy_events == 4
    assert zero_payload == two_payload


def _transfer_payloads(workbench, entries, inner="Inputs", own=False):
    """The destination data partitions left by each transfer mode, moving a
    partition that holds entries; with own set, into its own image."""
    payloads = []
    for transfer in (zero_copy_transfer, two_copy_transfer):
        case = f"{transfer.__name__}-{uuid.uuid4().hex}"  # Hypothesis shares the workbench
        src = workbench.output_image(name=f"src-{case}", dir_name="x")
        with BoxImage.open(src) as image:
            image.update_partition(1, encode_entries(entries))
        dst = src if own else workbench.output_image(name=f"dst-{case}", dir_name="Inputs")
        transfer(src, 1, dst, inner)
        with BoxImage.open(dst) as image:
            payloads.append(image.dump_partition(1))
    return payloads


# Modes keep the owner's write bit on directories, so that every tree can
# be removed again by a user who is not root.
_file_modes = st.sampled_from([0o400, 0o444, 0o600, 0o644, 0o700, 0o755])
_dir_modes = st.sampled_from([0o700, 0o711, 0o750, 0o755, 0o775])
_segments = st.text(alphabet="ab", min_size=1, max_size=2)
_mode_trees = st.dictionaries(
    st.lists(_segments, min_size=1, max_size=3).map("/".join),
    st.tuples(_file_modes, st.binary(max_size=32)), max_size=6)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(files=_mode_trees, dir_mode=_dir_modes, inner=st.sampled_from(["Inputs", "a/b"]))
def test_transfer_modes_agree_on_any_tree(workbench, files, dir_mode, inner):
    # A file is named by its path plus ".f", so no file sits where a directory goes.
    entries = [ArchiveEntry(f"{path}.f", stat.S_IFREG | mode, content)
               for path, (mode, content) in files.items()]
    dirs = {path.rsplit("/", depth)[0] for path in files
            for depth in range(1, path.count("/") + 1)}
    entries += [ArchiveEntry(path, stat.S_IFDIR | dir_mode, None) for path in dirs]
    zero, two = _transfer_payloads(workbench, entries, inner)
    assert zero == two


_EDGE_TREES = {
    # extract_dir then scan_dir keeps only the type and permission bits
    "mode-above-0o177777": ([ArchiveEntry("f.txt", stat.S_IFREG | 0o644 | 1 << 20, b"f")],
                            False),
    "setuid-and-sticky": ([ArchiveEntry("s", stat.S_IFDIR | stat.S_ISVTX | 0o755, None),
                           ArchiveEntry("s/tool", stat.S_IFREG | stat.S_ISUID | 0o755, b"t")],
                          False),
    "into-its-own-partition": ([ArchiveEntry("d", stat.S_IFDIR | 0o750, None),
                                ArchiveEntry("d/f.txt", stat.S_IFREG | 0o600, b"own")],
                               True),
}


@pytest.mark.parametrize("case", sorted(_EDGE_TREES))
def test_transfer_modes_agree_on_edge_trees(workbench, case):
    entries, own = _EDGE_TREES[case]
    zero, two = _transfer_payloads(workbench, entries, "Copy", own)
    assert zero == two
    if own:  # the copy holds the partition as it was before the transfer
        tree = {entry.path: entry.content for entry in decode(zero)}
        assert tree["d/f.txt"] == tree["Copy/d/f.txt"] == b"own"
        assert "Copy/Copy" not in tree


def test_an_implied_parent_packs_alike_under_any_umask(workbench):
    # a/b.txt with no entry for a: the transfer has to create a directory
    entries = [ArchiveEntry("a/b.txt", stat.S_IFREG | 0o644, b"b")]
    payloads = []
    for mask in (0o022, 0o077):
        old = os.umask(mask)
        try:
            payloads += _transfer_payloads(workbench, entries)
        finally:
            os.umask(old)
    assert len(set(payloads)) == 1
    tree = {entry.path: entry.mode for entry in decode(payloads[0])}
    assert tree["Inputs/a"] == stat.S_IFDIR | 0o755


def _no_sandbox_tree(*args, **kwargs):
    raise AssertionError("a zero-copy transfer extracted or scanned a tree")


def test_a_zero_copy_transfer_touches_no_sandbox_tree(workbench, tmp_path, monkeypatch):
    src, dst = transfer_fixture(workbench)
    sandbox = tmp_path / "sandbox"
    sandbox.mkdir()
    monkeypatch.setenv(SANDBOX_ENV, str(sandbox))
    monkeypatch.setattr(archive, "extract_dir", _no_sandbox_tree)
    monkeypatch.setattr(archive, "scan_dir", _no_sandbox_tree)
    zero_copy_transfer(src, 1, dst, "/Inputs")
    tree = output_tree(dst, tmp_path / "check")  # output_tree binds its own extract_dir
    assert tree["Inputs/d/b.txt"][2] == b"beta"
    assert list(sandbox.iterdir()) == []

    with BoxImage.open(src) as image:
        offset = image.descriptor(1).payload_offset
    data = bytearray(src.read_bytes())
    data[offset] ^= 0xFF
    src.write_bytes(bytes(data))
    before = dst.read_bytes()
    with pytest.raises(CorruptPartition) as caught:
        zero_copy_transfer(src, 1, dst, "/Inputs")
    assert caught.value.exit_code == 4
    assert dst.read_bytes() == before
    assert list(sandbox.iterdir()) == []


def test_a_repeated_transfer_holds_one_payload_at_a_time(workbench):
    files = {f"part{index}.bin": bytes([index]) * (512 << 10) for index in range(8)}
    src = workbench.input_image(files, name="src", dir_name="payload")
    dst = workbench.output_image(name="dst", dir_name="Inputs")
    zero_copy_transfer(src, 1, dst, "/Inputs")  # the destination now holds the payload
    tracemalloc.start()
    try:
        zero_copy_transfer(src, 1, dst, "/Inputs")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    with BoxImage.open(dst) as image:
        tree = {entry.path: entry.content for entry in decode(image.dump_partition(1))}
    assert {path: tree[f"Inputs/{path}"] for path in files} == files
    assert peak < 1.5 * 8 * (512 << 10)  # the source is dumped once the old payload is gone


def test_a_rerun_transfer_holds_no_payload(workbench):
    files = {f"part{index}.bin": bytes([index]) * (1 << 20) for index in range(8)}
    src = workbench.input_image(files, name="src", dir_name="payload")
    dst = workbench.output_image(name="dst", dir_name="Inputs")
    zero_copy_transfer(src, 1, dst, "/Inputs")  # the destination now holds the payload
    tracemalloc.start()
    try:
        zero_copy_transfer(src, 1, dst, "/Inputs")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    with BoxImage.open(dst) as image:
        tree = {entry.path: entry.content for entry in decode(image.dump_partition(1))}
    assert {path: tree[f"Inputs/{path}"] for path in files} == files
    assert peak < 3 * image_mod.CHUNK_BYTES  # both payloads are streamed


@pytest.mark.parametrize("where", ["source-last-chunk", "destination-old-payload"])
def test_corruption_found_mid_stream_fails_the_transfer(workbench, monkeypatch, where):
    monkeypatch.setattr(image_mod, "CHUNK_BYTES", 64)
    files = {f"f{index}.bin": bytes([index]) * 300 for index in range(4)}
    src = workbench.input_image(files, name="src", dir_name="payload")
    dst = workbench.output_image(name="dst", dir_name="Inputs")
    zero_copy_transfer(src, 1, dst, "/Inputs")  # the destination's old payload holds the files
    corrupt = src if where == "source-last-chunk" else dst
    with BoxImage.open(corrupt) as image:
        part = image.descriptor(1)
    flip_bit(corrupt, part.payload_offset + part.payload_size - 1, 0)  # the last file's content
    before = dst.read_bytes()
    with pytest.raises(CorruptPartition) as caught:
        zero_copy_transfer(src, 1, dst, "/Inputs")
    assert caught.value.exit_code == 4
    assert dst.read_bytes() == before
    assert list(dst.parent.glob(".dst.boxi.*")) == []


@pytest.mark.parametrize("mode", [ZERO_COPY, TWO_COPY])
def test_an_input_corrupt_in_its_last_chunk_fails_the_run_before_its_exec(
        workbench, tmp_path, monkeypatch, capsys, mode):
    # The input's tree is written as its stream is read, and only the
    # checksum after the last chunk finds the flipped bit.
    monkeypatch.setattr(image_mod, "CHUNK_BYTES", 64)
    flow = subdirectory_workflow(workbench, "in:/")
    source = workbench.root / "input.boxi"
    with BoxImage.open(source) as image:
        part = image.descriptor(1)
    assert part.payload_size > 2 * 64
    flip_bit(source, part.payload_offset + part.payload_size - 1, 0)  # the last file's content
    sandbox = tmp_path / "sandboxes"
    sandbox.mkdir()
    monkeypatch.setenv(SANDBOX_ENV, str(sandbox))
    executed = []
    monkeypatch.setattr(runtime, "_execute", lambda view, *_: executed.append(view))
    output = workbench.root / "output.boxi"
    before = output.read_bytes()
    assert main(["run", "--mode", mode, str(flow)]) == 4
    assert "partition 1 fails its checksum" in capsys.readouterr().err
    assert executed == []
    assert list(sandbox.iterdir()) == []
    assert output.read_bytes() == before


@pytest.mark.parametrize("mode", [ZERO_COPY, TWO_COPY])
def test_a_run_holds_no_payload(workbench, tmp_path, mode):
    files = {f"part{index}.bin": bytes([index]) * (1 << 20) for index in range(8)}
    spec = workbench.identity_spec(files)
    peaks = []
    for _ in ("first run", "rerun"):  # a rerun also streams the output's old payload
        tracemalloc.start()
        try:
            run_workflow(spec, mode, trail=True)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    tree = output_tree(workbench.root / "output.boxi", tmp_path / "check")
    assert {path: tree[f"Outputs/data/{path}"][2] for path in files} == files
    assert max(peaks) < 2 * image_mod.CHUNK_BYTES  # views, stages and repacks all stream


@pytest.mark.parametrize("chunk", [5, 4096])
def test_small_chunks_leave_the_same_bytes(tmp_path, monkeypatch, chunk):
    # Headers and contents straddle chunks of the streamed payloads.
    def payloads():
        bench = Workbench(tmp_path / uuid.uuid4().hex)
        found = {case: _transfer_payloads(bench, entries, "Copy", own)
                 for case, (entries, own) in _EDGE_TREES.items()}
        spec = bench.identity_spec({"a.txt": b"alpha" * 50, "d/b.txt": b"beta" * 30})
        run_workflow(spec, ZERO_COPY, trail=True)
        run_workflow(spec, TWO_COPY, trail=True)  # a rerun streams the old payload
        with BoxImage.open(bench.root / "output.boxi") as image:
            found["identity-rerun"] = image.dump_partition(1)
        return found

    normal = payloads()
    monkeypatch.setattr(image_mod, "CHUNK_BYTES", chunk)
    assert payloads() == normal


@pytest.mark.parametrize("change", sorted(FILE_CHANGES))
def test_a_file_changed_after_its_scan_fails_the_repack(workbench, monkeypatch, change):
    spec = workbench.identity_spec({"a.txt": b"alpha", "b.txt": b"beta"})
    output = workbench.root / "output.boxi"
    before = output.read_bytes()
    real_scan = archive.scan_dir

    def scan_then_change(root):
        entries = real_scan(root)
        FILE_CHANGES[change](Path(root) / "data" / "b.txt")
        return entries

    monkeypatch.setattr(archive, "scan_dir", scan_then_change)
    with pytest.raises(FileChanged, match="b.txt") as caught:
        run_workflow(spec, ZERO_COPY, trail=True)
    assert caught.value.exit_code == 2
    assert output.read_bytes() == before
    assert list(workbench.root.glob(".output.boxi.*")) == []


def test_transfer_into_nested_destination(workbench, tmp_path):
    src, dst = transfer_fixture(workbench)
    zero_copy_transfer(src, 1, dst, "a/b")
    tree = output_tree(dst, tmp_path / "check")
    assert tree["a/b/a.txt"][2] == b"alpha"
    assert "Inputs" in tree  # original top directory survives


def test_transfer_rejects_non_data_source_partition(workbench):
    src, dst = transfer_fixture(workbench)
    app = workbench.app_image()
    with pytest.raises(WrongPartitionType):
        zero_copy_transfer(app, 1, dst, "/Inputs")


def test_transfer_needs_one_data_partition_at_destination(workbench):
    src, _ = transfer_fixture(workbench)
    app = workbench.app_image()
    with pytest.raises(WrongPartitionType):
        zero_copy_transfer(src, 1, app, "/Inputs")


def test_transfer_rejects_traversal_in_destination_path(workbench):
    src, dst = transfer_fixture(workbench)
    with pytest.raises(InvalidName):
        zero_copy_transfer(src, 1, dst, "../up")


def _never_opened(path):
    raise AssertionError(f"{path} was opened")


@pytest.mark.parametrize("transfer", [zero_copy_transfer, two_copy_transfer],
                         ids=["zero-copy", "two-copy"])
@pytest.mark.parametrize("inner", ["/a\x00b", "/a\ud800", "/" + "a" * 0x10000],
                         ids=["nul", "surrogate", "too-long"])
def test_transfer_rejects_a_bad_destination_before_opening_an_image(
        workbench, monkeypatch, transfer, inner):
    src, dst = transfer_fixture(workbench)
    before = dst.read_bytes()
    with monkeypatch.context() as patch:
        patch.setattr(BoxImage, "open", _never_opened)
        with pytest.raises(InvalidName) as caught:
            transfer(src, 1, dst, inner)
    assert caught.value.exit_code == 2
    assert dst.read_bytes() == before


def _with_mode(blob: bytes, path: str, mode: int = stat.S_IFIFO | 0o644) -> bytes:
    """blob with the mode of the first entry at path set to mode, a FIFO's
    by default.

    The result is malformed, so it can only be stored as raw bytes.
    """
    data = bytearray(blob)
    mode_at = data.index(path.encode("utf-8")) + len(path.encode("utf-8"))
    struct.pack_into("<I", data, mode_at, mode)
    return bytes(data)


@pytest.mark.parametrize("how", ["transfer", "run"])
def test_the_replaced_subtree_is_still_checked_before_a_repack(workbench, how, capsys):
    # A repack copies nothing of the subtree it replaces, but a malformed
    # entry there must still fail it before the image is written.
    flow = subdirectory_workflow(workbench, "in:/")
    output = workbench.root / "output.boxi"
    with BoxImage.open(output) as image:
        image.update_partition(1, _with_mode(encode_entries([
            ArchiveEntry("Keep", stat.S_IFDIR | 0o755, None),
            ArchiveEntry("Keep/k.txt", stat.S_IFREG | 0o644, b"kept"),
            ArchiveEntry("Outputs", stat.S_IFDIR | 0o755, None),
            ArchiveEntry("Outputs/old.txt", stat.S_IFREG | 0o644, b"old"),
        ]), "Outputs/old.txt"))
    before = output.read_bytes()
    if how == "transfer":
        with pytest.raises(MalformedArchive, match="unsupported mode"):
            zero_copy_transfer(workbench.root / "input.boxi", 1, output, "Outputs")
    else:
        with pytest.raises(MalformedArchive, match="unsupported mode"):
            run_workflow(load_workflow(flow))
        assert main(["run", str(flow)]) == 4
        assert "unsupported mode" in capsys.readouterr().err
    assert output.read_bytes() == before


@pytest.mark.parametrize("mode", [ZERO_COPY, TWO_COPY])
def test_an_input_with_an_entry_below_a_file_fails_the_run(workbench, mode, capsys):
    # A directory turned into an empty file still has its child below it.
    flow = subdirectory_workflow(workbench, "in:/")
    with BoxImage.open(workbench.root / "input.boxi") as image:
        image.update_partition(1, _with_mode(encode_entries([
            ArchiveEntry("g", stat.S_IFDIR | 0o755, None),
            ArchiveEntry("g/child.txt", stat.S_IFREG | 0o644, b"child"),
        ]), "g", stat.S_IFREG | 0o644))
    output = workbench.root / "output.boxi"
    before = output.read_bytes()
    assert main(["run", "--mode", mode, str(flow)]) == 4
    assert "'g/child.txt' lies below a file" in capsys.readouterr().err
    assert output.read_bytes() == before
