"""End-to-end tests of the command-line interface (in-process)."""

from __future__ import annotations

import errno
import itertools
import json
import os
import stat
import struct
import subprocess
import sys
import tempfile
import time
import tracemalloc
import uuid as uuidlib
from pathlib import Path

import pytest

import boxi.image as image_mod
from boxi import cli, errors, packager, runtime, scenarios, standins
from boxi.archive import ArchiveEntry, encode_entries
from boxi.cli import main
from boxi.image import (
    ARCH_ANY,
    ARCH_X86_64,
    CHUNK_BYTES,
    DATA_JSON,
    DATA_PARTITION,
    FS_ARCHIVE_RO,
    PART_DATA,
    PART_METADATA,
    PART_SYSTEM_PRIMARY,
    BoxImage,
    NewPartition,
    iso_utc,
)
from boxi.packager import SoftwareManifest, pack_data_dir
from boxi.provenance import canonical_json, read_trail
from boxi.runtime import load_workflow, run_workflow

from .conftest import FILE_CHANGES, _grow
from .oracles import mask_trail, read_descriptors, read_header
from .test_image import _raise_oserror, _WriteFaults

PACK = "pack"


def identity_workflow(workbench, label="cli-flow") -> str:
    workbench.input_image({"a.txt": b"alpha\n", "sub/b.txt": b"beta\n"})
    workbench.app_image(standins.IDENTITY)
    workbench.output_image()
    doc = {
        "label": label,
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
    }
    target = workbench.root / "workflow.json"
    target.write_text(json.dumps(doc))
    return str(target)


def test_pack_prints_the_new_image_uuid(tmp_path, capsys):
    source = tmp_path / "Stuff"
    source.mkdir()
    (source / "f.txt").write_text("hello")
    image = tmp_path / "stuff.boxi"

    assert main([PACK, str(source), str(image)]) == 0
    printed = capsys.readouterr().out.strip()
    assert uuidlib.UUID(printed).bytes == read_header(image)["uuid_bytes"]
    (record,) = read_descriptors(image)
    assert record["name"] == "Stuff"


def test_new_output_then_inspect(tmp_path, capsys):
    image = tmp_path / "out.boxi"
    assert main(["new-output", "Outputs", str(image)]) == 0
    capsys.readouterr()

    assert main(["inspect", str(image), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["name"] == "out"
    assert doc["format_version"] == 1
    assert doc["file_size"] == image.stat().st_size
    (part,) = doc["partitions"]
    assert part["name"] == "Outputs"
    assert part["parttype"] == 3


def test_inspect_json_reports_the_on_disk_header(tmp_path, capsys):
    image = tmp_path / "data.boxi"
    (tmp_path / "Data").mkdir()
    (tmp_path / "Data" / "f.txt").write_text("hello")
    main([PACK, str(tmp_path / "Data"), str(image)])
    capsys.readouterr()
    assert main(["inspect", str(image), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    header = read_header(image)
    assert uuidlib.UUID(doc["uuid"]).bytes == header["uuid_bytes"]
    assert doc["file_size"] == header["file_size"]
    assert doc["created"] == iso_utc(header["created"])
    assert doc["modified"] == iso_utc(header["modified"])
    (record,) = read_descriptors(image)
    assert doc["partitions"] == [{
        "id": record["id"], "datatype": record["datatype"],
        "fstype": record["fstype"], "parttype": record["parttype"],
        "arch": record["arch"], "name": record["name"],
        "size": record["size"], "sha256": record["sha256"].hex()}]


def test_inspect_text_lists_partitions(tmp_path, capsys):
    image = tmp_path / "out.boxi"
    main(["new-output", "Outputs", str(image)])
    capsys.readouterr()
    assert main(["inspect", str(image)]) == 0
    text = capsys.readouterr().out
    assert "partitions (1):" in text
    assert "partition/archive-rw/data/x86-64" in text


def test_build_from_a_recipe_file(tmp_path, capsys):
    standins.write_script(tmp_path / "plot.py", standins.PLOTTER)
    (tmp_path / "app.recipe").write_text(
        "[base]\nfrom = ubuntu:16.04\n"
        "[packages]\ngnuplot\n"
        "[files]\nplot.py = /plot.py\n"
        "[runscript]\npath = /plot.py\n")
    image = tmp_path / "app.boxi"
    assert main(["build", str(tmp_path / "app.recipe"), str(image)]) == 0
    uuidlib.UUID(capsys.readouterr().out.strip())
    (record,) = read_descriptors(image)
    assert record["parttype"] == 2  # system-primary
    assert record["name"] == "system"


def test_build_reports_recipe_errors_with_exit_2(tmp_path, capsys):
    (tmp_path / "bad.recipe").write_text("[base]\nfrom = a\n[mystery]\n")
    assert main(["build", str(tmp_path / "bad.recipe"),
                 str(tmp_path / "app.boxi")]) == 2
    assert "line 3" in capsys.readouterr().err


def test_run_executes_and_attaches_trails(workbench, capsys):
    flow = identity_workflow(workbench)
    assert main(["run", flow]) == 0
    out = capsys.readouterr().out
    assert "app: exit 0" in out
    assert "wrote out: partition 1, trail in partition 2" in out
    assert "copy events: 2" in out

    records = read_descriptors(workbench.root / "output.boxi")
    metadata = [r for r in records if r["parttype"] == 4]
    assert len(metadata) == 1
    trail = json.loads(metadata[0]["payload"])
    assert trail["workflow_label"] == "cli-flow"
    assert [r["name"] for r in trail["record_trail"]] == [
        "input", "app", "output"]


def test_run_json_document(workbench, capsys):
    flow = identity_workflow(workbench)
    assert main(["run", flow, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["label"] == "cli-flow"
    assert doc["mode"] == "zero-copy"
    assert doc["copy_events"] == 2
    assert doc["trails_attached"] == [{"component_id": "out", "partition_id": 2}]


def test_run_no_trail_leaves_outputs_plain(workbench, capsys):
    flow = identity_workflow(workbench)
    assert main(["run", flow, "--no-trail"]) == 0
    out = capsys.readouterr().out
    assert "trail in partition" not in out
    records = read_descriptors(workbench.root / "output.boxi")
    assert [r["parttype"] for r in records] == [3]


def test_run_two_copy_mode(workbench, capsys):
    flow = identity_workflow(workbench)
    assert main(["run", flow, "--mode", "two-copy"]) == 0
    assert "copy events: 4" in capsys.readouterr().out


def test_run_returns_3_when_an_app_fails(workbench, capsys):
    workbench.input_image({"a": b"x"})
    workbench.app_image(standins.FAILER)
    workbench.output_image()
    doc = {
        "label": "failing",
        "components": [
            {"id": "app", "role": "application", "image": "app.boxi"},
            {"id": "out", "role": "output", "image": "output.boxi"},
        ],
        "bindings": [{"source": "out:/Outputs", "target": "app:/Outputs"}],
        "invocations": [{"app": "app", "argv": ["5", "Outputs"]}],
    }
    flow = workbench.root / "workflow.json"
    flow.write_text(json.dumps(doc))
    assert main(["run", str(flow)]) == 3
    assert "app: exit 5\n    failing with exit 5\n" in capsys.readouterr().out
    assert main(["run", str(flow), "--json"]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["invocations"][0]["stderr_tail"] == "failing with exit 5\n"


def test_run_rejects_invalid_workflow_with_exit_2(tmp_path, capsys):
    flow = tmp_path / "bad.json"
    flow.write_text(json.dumps({"label": "x", "components": [
        {"id": "a", "role": "nope", "image": "a.boxi"}]}))
    assert main(["run", str(flow)]) == 2
    assert "boxi:" in capsys.readouterr().err


def test_run_rejects_a_symlink_loop_with_exit_2(tmp_path, monkeypatch, capsys):
    (tmp_path / "a.boxi").symlink_to("b.boxi")
    (tmp_path / "b.boxi").symlink_to("a.boxi")
    flow = tmp_path / "loop.json"
    flow.write_text(json.dumps({"label": "loop", "components": [
        {"id": "in", "role": "input", "image": "a.boxi"}]}))
    monkeypatch.setattr(BoxImage, "open", None)  # refused before any image is opened
    assert main(["run", str(flow)]) == 2
    err = capsys.readouterr().err
    assert "cannot resolve an image path" in err
    assert "Traceback" not in err


DEEP_JSON = b"[" * 200_000 + b"]" * 200_000


@pytest.mark.parametrize("payload", [b'{"label": "\xff"}', DEEP_JSON],
                         ids=["not-utf8", "nested-200000-deep"])
def test_run_rejects_a_hostile_workflow_file_with_exit_2(tmp_path, payload, capsys):
    flow = tmp_path / "bad.json"
    flow.write_bytes(payload)
    with pytest.raises(errors.InvalidWorkflowSpec):
        load_workflow(flow)
    assert main(["run", str(flow)]) == 2
    assert "is not valid JSON" in capsys.readouterr().err


def test_build_rejects_a_recipe_that_is_not_utf8_at_its_line(tmp_path, capsys):
    recipe = tmp_path / "bad.recipe"
    recipe.write_bytes(b"[base]\nfrom = a\n[runscript]\npath = /r\xff.py\n")
    assert main(["build", str(recipe), str(tmp_path / "app.boxi")]) == 2
    assert "line 4: recipe is not UTF-8" in capsys.readouterr().err
    assert not (tmp_path / "app.boxi").exists()


def test_run_rejects_an_app_manifest_that_is_not_utf8(workbench, capsys):
    flow = identity_workflow(workbench)
    tree = encode_entries([
        ArchiveEntry(".manifest", stat.S_IFREG | 0o644, b"base=\xff\nrunscript=run.py\n"),
        ArchiveEntry("run.py", stat.S_IFREG | 0o755, standins.IDENTITY.encode()),
    ])
    (workbench.root / "app.boxi").unlink()
    BoxImage.create("app", workbench.root / "app.boxi", [NewPartition(
        tree, datatype=DATA_PARTITION, fstype=FS_ARCHIVE_RO,
        parttype=PART_SYSTEM_PRIMARY, arch=ARCH_X86_64, name="system")])
    with pytest.raises(errors.RecipeParseError):
        run_workflow(load_workflow(flow))
    assert main(["run", flow]) == 2
    assert "line 1: .manifest is not UTF-8" in capsys.readouterr().err


def _hand_made_app(workbench, manifest: SoftwareManifest) -> None:
    """Replace app.boxi with an image that stores the manifest as given,
    unchecked, beside the identity runscript."""
    tree = encode_entries([
        ArchiveEntry(".manifest", stat.S_IFREG | 0o644, manifest.to_json()),
        ArchiveEntry("run.py", stat.S_IFREG | 0o755, standins.IDENTITY.encode()),
    ])
    (workbench.root / "app.boxi").unlink()
    BoxImage.create("app", workbench.root / "app.boxi", [NewPartition(
        tree, datatype=DATA_PARTITION, fstype=FS_ARCHIVE_RO,
        parttype=PART_SYSTEM_PRIMARY, arch=ARCH_X86_64, name="system")])


HOST_TOOL = '#!/bin/sh\ntouch "$(dirname "$0")/host_tool_ran"\n'


@pytest.mark.parametrize("where", ["absolute", "parent"])
def test_run_refuses_a_runscript_outside_the_view(workbench, monkeypatch, capsys, where):
    flow = identity_workflow(workbench)
    tool = standins.write_script(workbench.root / "host_tool.sh", HOST_TOOL)
    monkeypatch.setenv("BOXI_SANDBOX", str(workbench.root / "sandbox"))
    # The view is sandbox/boxi-run-*/views/0, four levels below the workbench.
    runscript = str(tool) if where == "absolute" else "../../../../host_tool.sh"
    _hand_made_app(workbench, SoftwareManifest("alpine", [], [], runscript))
    assert main(["run", flow]) == 2
    assert "runscript" in capsys.readouterr().err
    assert not (workbench.root / "host_tool_ran").exists()


def test_run_rejects_an_app_environment_name_with_nul_with_exit_2(workbench, capsys):
    flow = identity_workflow(workbench)
    _hand_made_app(workbench, SoftwareManifest("alpine", [], [("A\x00B", "v")], "run.py"))
    assert main(["run", flow]) == 2
    assert "NUL" in capsys.readouterr().err


def test_run_rejects_an_input_path_with_nul_with_exit_4(workbench, capsys):
    flow = identity_workflow(workbench)
    blob = encode_entries([ArchiveEntry("a_b.txt", stat.S_IFREG | 0o644, b"x")])
    with BoxImage.open(workbench.root / "input.boxi") as image:
        image.update_partition(1, blob.replace(b"a_b.txt", b"a\x00b.txt"))
    assert main(["run", flow]) == 4
    assert "NUL" in capsys.readouterr().err


@pytest.mark.parametrize("char", ["\x00", "\ud800"], ids=["nul", "surrogate"])
@pytest.mark.parametrize("field", ["argv", "image"])
def test_run_rejects_nul_or_a_surrogate_in_a_workflow_string_with_exit_2(
        workbench, capsys, field, char):
    flow = Path(identity_workflow(workbench))
    doc = json.loads(flow.read_text())
    if field == "argv":
        doc["invocations"][0]["argv"] = ["Inputs", f"Outputs/a{char}b"]
    else:
        doc["components"][0]["image"] = f"input{char}.boxi"
    flow.write_text(json.dumps(doc))
    assert main(["run", str(flow)]) == 2
    assert "NUL or surrogate" in capsys.readouterr().err


def test_build_rejects_nul_in_an_environment_value_with_exit_2(tmp_path, capsys):
    standins.write_script(tmp_path / "plot.py", standins.PLOTTER)
    (tmp_path / "app.recipe").write_text(
        "[base]\nfrom = ubuntu:16.04\n"
        "[files]\nplot.py = /plot.py\n"
        "[environment]\nA = x\x00y\n"
        "[runscript]\npath = /plot.py\n")
    image = tmp_path / "app.boxi"
    assert main(["build", str(tmp_path / "app.recipe"), str(image)]) == 2
    assert "NUL" in capsys.readouterr().err
    assert not image.exists()


def test_trail_rejects_a_deeply_nested_payload_with_exit_4(tmp_path, capsys):
    image = tmp_path / "out.boxi"
    main(["new-output", "Outputs", str(image)])
    with BoxImage.open(image) as handle:
        handle.add_partition(DEEP_JSON, datatype=DATA_JSON, fstype=FS_ARCHIVE_RO,
                             parttype=PART_METADATA, arch=ARCH_ANY, name="metadata")
        with pytest.raises(errors.MalformedTrail):
            read_trail(handle)
    capsys.readouterr()
    assert main(["trail", str(image)]) == 4
    assert "metadata payload is not JSON" in capsys.readouterr().err


def test_trail_table_output(workbench, capsys):
    flow = identity_workflow(workbench)
    main(["run", flow])
    capsys.readouterr()
    assert main(["trail", str(workbench.root / "output.boxi")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["role", "name", "uuid", "created", "modified"]
    assert len(lines) == 1 + 3 + 3  # header, three records, three footer lines
    assert lines[1].startswith("input")
    assert lines[3].startswith("output")
    assert lines[4] == "command: run.py Inputs Outputs/data"
    assert lines[6] == "exit_status: 0"


def test_trail_json_is_the_stored_payload(workbench, capsys, monkeypatch):
    flow = identity_workflow(workbench)
    main(["run", flow])
    capsys.readouterr()
    dumped = []
    real_dump = BoxImage.dump_partition

    def counting_dump(self, partition_id):
        dumped.append(partition_id)
        return real_dump(self, partition_id)

    monkeypatch.setattr(BoxImage, "dump_partition", counting_dump)
    assert main(["trail", str(workbench.root / "output.boxi"), "--json"]) == 0
    assert len(dumped) == 1
    printed = capsys.readouterr().out.encode("utf-8")
    stored = next(r["payload"]
                  for r in read_descriptors(workbench.root / "output.boxi")
                  if r["parttype"] == 4)
    assert printed == stored


def test_trail_without_metadata_is_a_validation_error(tmp_path, capsys):
    image = tmp_path / "out.boxi"
    main(["new-output", "Outputs", str(image)])
    capsys.readouterr()
    assert main(["trail", str(image)]) == 2


def test_dump_to_file_and_stdout(tmp_path, capsys):
    source = tmp_path / "Data"
    source.mkdir()
    (source / "x.bin").write_bytes(bytes(range(100)))
    image = tmp_path / "data.boxi"
    main([PACK, str(source), str(image)])
    capsys.readouterr()

    dest = tmp_path / "payload.bin"
    assert main(["dump", str(image), "1", str(dest)]) == 0
    (record,) = read_descriptors(image)
    assert dest.read_bytes() == record["payload"]


def test_dump_missing_partition_exits_2(tmp_path, capsys):
    image = tmp_path / "out.boxi"
    main(["new-output", "Outputs", str(image)])
    capsys.readouterr()
    assert main(["dump", str(image), "9", str(tmp_path / "x")]) == 2
    assert "boxi:" in capsys.readouterr().err


def test_add_with_both_flag_spellings(tmp_path, capsys):
    image = tmp_path / "out.boxi"
    main(["new-output", "Outputs", str(image)])
    payload = tmp_path / "notes.json"
    payload.write_bytes(b"{}")
    capsys.readouterr()

    assert main(["add", str(image), str(payload), "--datatype", "3",
                 "--partfs", "1", "--parttype", "4", "--partarch", "0"]) == 0
    assert capsys.readouterr().out.strip() == "2"

    assert main(["add", str(image), str(payload), "--datatype", "3",
                 "--fstype", "1", "--parttype", "4", "--arch", "0",
                 "--name", "named"]) == 0
    assert capsys.readouterr().out.strip() == "3"

    records = {r["id"]: r for r in read_descriptors(image)}
    assert records[2]["name"] == "notes"  # payload file stem
    assert records[3]["name"] == "named"
    assert records[2]["payload"] == b"{}"


def test_add_unknown_code_exits_2(tmp_path, capsys):
    image = tmp_path / "out.boxi"
    main(["new-output", "Outputs", str(image)])
    payload = tmp_path / "p.bin"
    payload.write_bytes(b"x")
    capsys.readouterr()
    assert main(["add", str(image), str(payload), "--datatype", "9",
                 "--partfs", "1", "--parttype", "4", "--partarch", "0"]) == 2


def test_add_streams_its_payload_file(tmp_path, capsys):
    image = tmp_path / "out.boxi"
    main(["new-output", "Outputs", str(image)])
    payload = tmp_path / "big.bin"
    payload.write_bytes(bytes(range(256)) * (16 << 12))  # 16 MiB
    capsys.readouterr()
    tracemalloc.start()
    try:
        status = main(["add", str(image), str(payload), "--datatype", "4",
                       "--partfs", "2", "--parttype", "3", "--partarch", "2"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == 0, capsys.readouterr().err
    assert peak <= 2.5 * CHUNK_BYTES  # a chunk or two, never the 16 MiB
    assert BoxImage.open(image).dump_partition(2) == payload.read_bytes()


def test_add_names_a_payload_whose_read_fails_partway(tmp_path, monkeypatch, capsys):
    image = tmp_path / "out.boxi"
    main(["new-output", "Outputs", str(image)])
    before = image.read_bytes()
    payload = tmp_path / "big.bin"
    payload.write_bytes(b"p" * (2 * CHUNK_BYTES))
    read, reads = os.read, []

    def failing_after_one_chunk(fd, size):  # the payload is the only file read this way
        reads.append(size)
        if len(reads) > 1:
            raise OSError(errno.EIO, os.strerror(errno.EIO))
        return read(fd, size)

    monkeypatch.setattr(os, "read", failing_after_one_chunk)
    capsys.readouterr()
    assert main(["add", str(image), str(payload), "--datatype", "4", "--partfs", "2",
                 "--parttype", "3", "--partarch", "2"]) == errors.IoError.exit_code
    monkeypatch.undo()
    assert reads == [CHUNK_BYTES, CHUNK_BYTES]
    assert capsys.readouterr().err == (
        f"boxi: cannot read payload {payload}: [Errno 5] {os.strerror(errno.EIO)}\n")
    assert image.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["big.bin", "out.boxi"]


def _take_the_last_partition_id(image: Path) -> None:
    """Give an image's last partition the largest id a descriptor holds."""
    data = bytearray(image.read_bytes())
    header = read_header(image)
    struct.pack_into("<I", data, header["table_offset"] + (header["count"] - 1) * 160,
                     0xFFFFFFFF)
    image.write_bytes(bytes(data))


def test_add_refuses_when_no_partition_id_is_left(tmp_path, capsys):
    image = tmp_path / "out.boxi"
    main(["new-output", "Outputs", str(image)])
    _take_the_last_partition_id(image)
    before = image.read_bytes()
    payload = tmp_path / "p.json"
    payload.write_bytes(b"{}")
    capsys.readouterr()
    assert main(["add", str(image), str(payload), "--datatype", "3",
                 "--partfs", "1", "--parttype", "4", "--partarch", "0"]) == 2
    assert "largest allowed" in capsys.readouterr().err
    assert image.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.boxi", "p.json"]


def test_run_refuses_a_trail_when_no_partition_id_is_left(workbench, monkeypatch, capsys):
    flow = identity_workflow(workbench)
    output = workbench.root / "output.boxi"
    _take_the_last_partition_id(output)
    before = output.read_bytes()
    ran = []
    real_execute = runtime._execute

    def recorded_execute(*args):
        ran.append(args)
        return real_execute(*args)

    monkeypatch.setattr(runtime, "_execute", recorded_execute)
    sandbox = workbench.root / "sandbox"
    sandbox.mkdir()
    monkeypatch.setenv(runtime.SANDBOX_ENV, str(sandbox))
    assert main(["run", flow]) == 2
    assert "largest allowed" in capsys.readouterr().err
    assert ran == []  # refused before any app ran, or any run directory was made
    assert not list(sandbox.iterdir())
    assert output.read_bytes() == before
    assert not list(workbench.root.glob(".output.boxi.*"))
    # without a trail no metadata partition id is needed
    assert main(["run", "--no-trail", flow]) == 0
    assert len(ran) == 1


def test_del_removes_a_partition(tmp_path, capsys):
    image = tmp_path / "out.boxi"
    main(["new-output", "Outputs", str(image)])
    payload = tmp_path / "p.bin"
    payload.write_bytes(b"x" * 50)
    main(["add", str(image), str(payload), "--datatype", "3",
          "--partfs", "1", "--parttype", "4", "--partarch", "0"])
    capsys.readouterr()

    assert main(["del", str(image), "2"]) == 0
    assert [r["id"] for r in read_descriptors(image)] == [1]
    assert main(["del", str(image), "2"]) == 2


def test_inspect_corrupt_file_exits_4(tmp_path, capsys):
    bogus = tmp_path / "bogus.boxi"
    bogus.write_bytes(b"not an image at all")
    assert main(["inspect", str(bogus)]) == 4
    assert "boxi:" in capsys.readouterr().err


_ENDLESS_INSPECT = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))
from boxi.cli import main
from boxi.errors import NotABoxImage
from boxi.image import BoxImage
try:
    BoxImage.open("/dev/zero")
except NotABoxImage:
    sys.exit(main(["inspect", "/dev/zero"]))
sys.exit("BoxImage.open accepted /dev/zero")
"""


def test_inspect_of_an_endless_device_exits_4():
    # /dev/zero never ends, so reading it whole would fill the memory; the
    # child runs under an address-space limit, where that fails fast.
    limit = 400 * 1024 * 1024
    proc = subprocess.run(
        [sys.executable, "-c", _ENDLESS_INSPECT.format(limit=limit)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])})
    assert proc.returncode == 4, proc.stderr
    assert "bad magic" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_inspect_of_a_fifo_exits_4_without_waiting_for_a_writer(tmp_path):
    fifo = tmp_path / "pipe.boxi"
    os.mkfifo(fifo)
    proc = subprocess.run(
        [sys.executable, "-m", "boxi", "inspect", str(fifo)],
        capture_output=True, text=True, timeout=30,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])})
    assert proc.returncode == 4, proc.stderr
    assert "FIFO" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_new_output_at_a_fifo_exits_2_without_waiting_for_a_reader(tmp_path):
    fifo = tmp_path / "p.boxi"
    os.mkfifo(fifo)
    proc = subprocess.run(
        [sys.executable, "-m", "boxi", "new-output", "Outputs", str(fifo)],
        capture_output=True, text=True, timeout=30,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])})
    assert proc.returncode == 2, proc.stderr
    assert "cannot create image" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("change", sorted(FILE_CHANGES))
def test_a_failed_pack_over_an_image_leaves_it_as_it_was(tmp_path, monkeypatch, capsys,
                                                         change):
    src = tmp_path / "Inputs"
    src.mkdir()
    (src / "a.bin").write_bytes(b"a" * 100_000)  # written to the image before b.bin is read
    (src / "b.bin").write_bytes(b"b" * 100)
    image = tmp_path / "input.boxi"
    assert main([PACK, str(src), str(image)]) == 0
    before = image.read_bytes()
    real_scan = packager.scan_dir

    def scan_then_change(root):
        entries = real_scan(root)
        FILE_CHANGES[change](src / "b.bin")
        return entries

    monkeypatch.setattr(packager, "scan_dir", scan_then_change)
    capsys.readouterr()
    assert main([PACK, str(src), str(image)]) == 2
    assert "b.bin" in capsys.readouterr().err
    assert image.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["Inputs", "input.boxi"]


def _boxi_to(stdout, *args: str) -> subprocess.CompletedProcess:
    """Run boxi in a fresh process with its standard output on stdout."""
    return subprocess.run(
        [sys.executable, "-m", "boxi", *args], stdout=stdout, stderr=subprocess.PIPE,
        text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])})


OUTPUT_COMMANDS = {
    "dump": lambda image: ["dump", str(image), "1", "-"],
    "inspect": lambda image: ["inspect", str(image)],
}


def _image_of_a_mebibyte(tmp_path: Path) -> Path:
    """An image whose partition 1 holds more than a pipe does."""
    source = tmp_path / "Data"
    source.mkdir()
    (source / "x.bin").write_bytes(os.urandom(1 << 20))
    image = tmp_path / "data.boxi"
    assert main([PACK, str(source), str(image)]) == 0
    return image


@pytest.mark.parametrize("command", sorted(OUTPUT_COMMANDS))
@pytest.mark.parametrize("sink", ["full-disk", "closed-pipe"])
def test_a_failed_write_of_the_output_exits_2(tmp_path, capsys, command, sink):
    image = _image_of_a_mebibyte(tmp_path)
    capsys.readouterr()
    if sink == "full-disk":
        with open("/dev/full", "w") as full:
            proc = _boxi_to(full, *OUTPUT_COMMANDS[command](image))
    else:
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = _boxi_to(write_end, *OUTPUT_COMMANDS[command](image))
        finally:
            os.close(write_end)
    assert proc.returncode == errors.IoError.exit_code, proc.stderr
    (line,) = proc.stderr.splitlines()
    assert line.startswith("boxi: cannot write output: ")


def test_a_dump_whose_reader_leaves_midway_exits_2(tmp_path, capsys):
    # The write the reader leaves stops short without an error; the next one fails.
    image = _image_of_a_mebibyte(tmp_path)
    capsys.readouterr()
    proc = subprocess.Popen(
        [sys.executable, "-m", "boxi", "dump", str(image), "1", "-"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])})
    try:
        assert proc.stdout.buffer.read(1)  # the dump has begun
        proc.stdout.close()
        assert proc.wait(timeout=60) == errors.IoError.exit_code
        (line,) = proc.stderr.read().splitlines()
    finally:
        proc.kill()
        proc.stderr.close()
    assert line == "boxi: cannot write output: [Errno 32] Broken pipe"


def test_dump_checksum_failure_exits_4(tmp_path, capsys):
    source = tmp_path / "Data"
    source.mkdir()
    (source / "x.bin").write_bytes(b"payload-bytes")
    image = tmp_path / "data.boxi"
    main([PACK, str(source), str(image)])
    capsys.readouterr()
    (record,) = read_descriptors(image)
    with open(image, "r+b") as fh:
        fh.seek(record["offset"])
        fh.write(b"Z")
    assert main(["dump", str(image), "1", "-"]) == 4


def _image_holding(tmp_path: Path, payload: bytes, name: str = "data") -> Path:
    """An image whose partition 1 holds payload."""
    image = tmp_path / f"{name}.boxi"
    BoxImage.create(name, image, [NewPartition(
        payload, datatype=DATA_PARTITION, fstype=FS_ARCHIVE_RO, parttype=PART_DATA,
        arch=ARCH_ANY, name=name)]).close()
    return image


def test_a_dump_to_a_file_streams_it(tmp_path, capsys):
    payload = bytes(range(256)) * (16 << 12)  # 16 MiB
    image = _image_holding(tmp_path, payload)
    dest = tmp_path / "payload.bin"
    tracemalloc.start()
    try:
        status = main(["dump", str(image), "1", str(dest)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == 0, capsys.readouterr().err
    assert peak < 2 * CHUNK_BYTES  # a chunk, never the 16 MiB
    assert dest.read_bytes() == payload
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.boxi", "payload.bin"]


@pytest.mark.parametrize("existing", [False, True], ids=["new-file", "over-a-file"])
def test_a_failed_dump_to_a_file_leaves_it_as_it_was(tmp_path, capsys, existing):
    payload = b"p" * (3 * CHUNK_BYTES)  # whole chunks are written before the last fails
    image = _image_holding(tmp_path, payload)
    (record,) = read_descriptors(image)
    with open(image, "r+b") as fh:
        fh.seek(record["offset"] + len(payload) - 1)
        fh.write(b"Z")
    dest = tmp_path / "payload.bin"
    if existing:
        dest.write_bytes(b"what was there")
    assert main(["dump", str(image), "1", str(dest)]) == errors.CorruptPartition.exit_code
    assert "fails its checksum" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == (
        ["data.boxi", "payload.bin"] if existing else ["data.boxi"])
    if existing:
        assert dest.read_bytes() == b"what was there"


def test_a_dump_to_a_file_keeps_what_the_file_it_replaces_had(tmp_path, capsys):
    image = _image_holding(tmp_path, b"payload")
    kept, link, fresh = tmp_path / "kept.bin", tmp_path / "link.bin", tmp_path / "fresh.bin"
    kept.write_bytes(b"old")
    kept.chmod(0o604)
    link.symlink_to("kept.bin")
    assert main(["dump", str(image), "1", str(link)]) == 0
    umask = os.umask(0o027)
    try:
        assert main(["dump", str(image), "1", str(fresh)]) == 0
    finally:
        os.umask(umask)
    assert link.is_symlink() and kept.read_bytes() == b"payload"
    assert stat.S_IMODE(kept.stat().st_mode) == 0o604
    assert stat.S_IMODE(fresh.stat().st_mode) == 0o640  # a new file's, under the umask
    assert main(["dump", str(image), "1", os.devnull]) == 0  # not a file: written in place
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "data.boxi", "fresh.bin", "kept.bin", "link.bin"]


def test_a_dump_over_a_file_is_fsynced_before_it_is_renamed(tmp_path, capsys, monkeypatch):
    image = _image_holding(tmp_path, b"payload")
    dest = tmp_path / "payload.bin"
    dest.write_bytes(b"old")
    calls = []

    def fsync(fd, _call=os.fsync):
        calls.append(("fsync", os.fstat(fd).st_ino))
        _call(fd)

    def replace(src, dst, _call=os.replace):
        calls.append(("replace", os.stat(src).st_ino))
        _call(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    assert main(["dump", str(image), "1", str(dest)]) == 0, capsys.readouterr().err
    monkeypatch.undo()
    (fsync, synced), (replace, renamed) = calls
    assert (fsync, replace) == ("fsync", "replace") and synced == renamed
    assert dest.stat().st_ino == renamed and dest.read_bytes() == b"payload"


def test_a_dump_to_a_new_file_writes_it_in_place(tmp_path, capsys, monkeypatch):
    image = _image_holding(tmp_path, b"payload")
    called = []
    for owner, name in [(os, "umask"), (os, "replace"), (tempfile, "mkstemp")]:
        def recorded(*args, _call=getattr(owner, name), _name=name, **kwargs):
            called.append(_name)
            return _call(*args, **kwargs)
        monkeypatch.setattr(owner, name, recorded)
    assert main(["dump", str(image), "1", str(tmp_path / "fresh.bin")]) == 0
    monkeypatch.undo()
    assert called == []
    assert (tmp_path / "fresh.bin").read_bytes() == b"payload"


def test_inspect_reports_the_size_of_the_file_it_read(tmp_path, capsys, monkeypatch):
    image = _image_holding(tmp_path, b"x" * 1000)
    other = _image_holding(tmp_path, b"", name="other")
    real_open = BoxImage.open

    def open_then_replace(path):
        handle = real_open(path)
        os.replace(other, image)
        return handle

    monkeypatch.setattr(BoxImage, "open", open_then_replace)
    assert main(["inspect", str(image)]) == 0
    assert f"size      {60 + 1000 + 160} bytes" in capsys.readouterr().out.splitlines()


def _add_argv(image: Path, payload: Path | str) -> list[str]:
    return ["add", str(image), str(payload), "--datatype", "4", "--partfs", "2",
            "--parttype", "3", "--partarch", "2"]


def _adding_with(monkeypatch, change_pieces) -> None:
    """Make add_partition take the payload's pieces through change_pieces."""
    real_add = BoxImage.add_partition
    monkeypatch.setattr(BoxImage, "add_partition", lambda self, pieces, **codes: real_add(
        self, change_pieces(pieces), **codes))


@pytest.mark.parametrize("change", sorted(FILE_CHANGES))
def test_add_refuses_a_payload_that_changes_before_it_is_read(tmp_path, monkeypatch, capsys,
                                                             change):
    image = _image_holding(tmp_path, b"old")
    before = image.read_bytes()
    payload = tmp_path / "p.bin"
    payload.write_bytes(b"p" * 1000)

    def change_then_read(pieces):
        FILE_CHANGES[change](payload)
        yield from pieces

    _adding_with(monkeypatch, change_then_read)
    capsys.readouterr()
    assert main(_add_argv(image, payload)) == errors.FileChanged.exit_code
    assert str(payload) in capsys.readouterr().err
    assert image.read_bytes() == before
    assert list(tmp_path.glob(".data.boxi.*")) == []


@pytest.mark.parametrize("change", ["grows", "shrinks"])
def test_add_refuses_a_payload_that_changes_while_it_is_read(tmp_path, monkeypatch, capsys,
                                                            change):
    image = _image_holding(tmp_path, b"old")
    before = image.read_bytes()
    payload = tmp_path / "p.bin"
    payload.write_bytes(b"p" * (2 * CHUNK_BYTES))

    def change_after_one_piece(pieces):
        pieces = iter(pieces)
        yield next(pieces)
        _grow(payload) if change == "grows" else os.truncate(payload, CHUNK_BYTES)
        yield from pieces

    _adding_with(monkeypatch, change_after_one_piece)
    capsys.readouterr()
    assert main(_add_argv(image, payload)) == errors.FileChanged.exit_code
    assert capsys.readouterr().err == f"boxi: {payload} changed while it was read\n"
    assert image.read_bytes() == before
    assert list(tmp_path.glob(".data.boxi.*")) == []


def test_add_refuses_a_payload_that_is_not_a_regular_file(tmp_path, capsys):
    image = _image_holding(tmp_path, b"old")
    before = image.read_bytes()
    assert main(_add_argv(image, os.devnull)) == errors.IoError.exit_code
    assert capsys.readouterr().err == (
        f"boxi: cannot read payload {os.devnull}: not a regular file\n")
    assert image.read_bytes() == before
    link = tmp_path / "link.bin"  # a link to a regular file is read through
    (tmp_path / "p.bin").write_bytes(b"payload")
    link.symlink_to("p.bin")
    assert main(_add_argv(image, link)) == 0
    assert BoxImage.open(image).dump_partition(2) == b"payload"


def test_runs_transfers_and_commands_leave_no_descriptor_open(workbench, capsys):
    flow = identity_workflow(workbench)
    root = workbench.root
    payload = root / "p.json"
    payload.write_bytes(b"{}")
    output = str(root / "output.boxi")
    image_mod._join_release()
    before = sorted(os.listdir("/proc/self/fd"))
    run_workflow(load_workflow(flow), trail=True)
    runtime.zero_copy_transfer(root / "input.boxi", 1, output, "/Moved")
    runtime.two_copy_transfer(root / "input.boxi", 1, output, "/Staged")
    for argv in ([PACK, str(root / "tree-input" / "Inputs"), str(root / "packed.boxi")],
                 _add_argv(Path(output), payload), ["del", output, "3"],
                 ["dump", output, "1", str(root / "dumped.bin")], ["inspect", output]):
        assert main(argv) == 0, capsys.readouterr().err
    image_mod._join_release()
    assert len(os.listdir("/proc/self/fd")) == len(before), (
        before, sorted(os.listdir("/proc/self/fd")))


def image_with_corrupt_output(tmp_path, capsys):
    """An output image whose data partition 1 fails its checksum; 2 is sound."""
    image = tmp_path / "out.boxi"
    main(["new-output", "Outputs", str(image)])
    payload = tmp_path / "notes.json"
    payload.write_bytes(b"{}")
    main(["add", str(image), str(payload), "--datatype", "3",
          "--partfs", "1", "--parttype", "4", "--partarch", "0"])
    capsys.readouterr()
    record = read_descriptors(image)[0]
    with open(image, "r+b") as fh:
        fh.seek(record["offset"])
        fh.write(bytes([record["payload"][0] ^ 0x01]))
    return image, payload


def test_del_of_the_corrupt_partition_itself_succeeds(tmp_path, capsys):
    image, _ = image_with_corrupt_output(tmp_path, capsys)
    assert main(["del", str(image), "1"]) == 0
    assert [r["id"] for r in read_descriptors(image)] == [2]
    assert main(["dump", str(image), "2", str(tmp_path / "two.json")]) == 0
    assert (tmp_path / "two.json").read_bytes() == b"{}"


@pytest.mark.parametrize("command", ["del", "add"])
def test_changes_next_to_a_corrupt_partition_exit_4_and_write_nothing(
        tmp_path, capsys, command):
    image, payload = image_with_corrupt_output(tmp_path, capsys)
    before = image.read_bytes()
    if command == "del":
        argv = ["del", str(image), "2"]
    else:
        argv = ["add", str(image), str(payload), "--datatype", "3",
                "--partfs", "1", "--parttype", "4", "--partarch", "0"]
    assert main(argv) == 4
    assert "boxi:" in capsys.readouterr().err
    assert image.read_bytes() == before
    assert list(tmp_path.glob(".out.boxi.*")) == []


# The README's exit-code table: 4 for corruption, 3 for runtime failures,
# 2 for every other error.
CORRUPTION = {"NotABoxImage", "TruncatedImage", "CorruptPartition",
              "MalformedArchive", "MalformedTrail"}
RUNTIME = {"SandboxError", "BenchAborted"}
ERRORS = [cls for cls in vars(errors).values()
          if isinstance(cls, type) and issubclass(cls, errors.BoxiError)]


@pytest.mark.parametrize("error", ERRORS, ids=lambda cls: cls.__name__)
def test_every_error_exits_with_its_documented_code(error, monkeypatch, capsys):
    def handler(args):
        raise error("boom", 1) if error is errors.RecipeParseError else error("boom")

    monkeypatch.setattr(cli, "_cmd_inspect", handler)
    wanted = 4 if error.__name__ in CORRUPTION else 3 if error.__name__ in RUNTIME else 2
    assert main(["inspect", "any.boxi"]) == wanted
    assert "boom" in capsys.readouterr().err


def test_usage_errors_exit_1(capsys):
    assert main([]) == 1
    assert main(["no-such-command"]) == 1
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "pack" in capsys.readouterr().out


def test_bench_time_json(capsys):
    assert main(["bench", "time", "--compute-seconds", "0.01",
                 "--reps", "2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["samples"] == 2
    assert len(doc["native_ns"]) == 2
    assert doc["label"] == "bench-time"


def test_bench_space_text_and_json(workbench, capsys):
    flow = identity_workflow(workbench)
    assert main(["bench", "space", flow]) == 0
    text = capsys.readouterr().out
    assert "fixed overhead of an empty data image: 228 bytes" in text

    assert main(["bench", "space", flow, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [row["label"] for row in doc["rows"]] == ["in", "app", "out"]
    assert doc["fixed_overhead_bytes"] == 228


def test_bench_transfer_json(capsys):
    assert main(["bench", "transfer", "--size", "20000",
                 "--reps", "1", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["zero_copy_events"] == 2
    assert doc["two_copy_events"] == 4
    assert doc["payload_bytes"] == 20000


@pytest.mark.parametrize("argv", [
    ["transfer", "--size", "0"],
    ["transfer", "--size", "-5"],
    ["transfer", "--reps", "0"],
    ["time", "--reps", "1"],
], ids=" ".join)
def test_bench_refuses_out_of_range_arguments_as_usage_errors(capsys, argv):
    assert main(["bench", *argv]) == 1
    err = capsys.readouterr().err
    assert f"argument {argv[1]}: must be at least" in err
    assert "Traceback" not in err


def test_module_entry_point(tmp_path):
    image = tmp_path / "out.boxi"
    proc = subprocess.run(
        [sys.executable, "-m", "boxi", "new-output", "Outputs", str(image)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert image.exists()
    uuidlib.UUID(proc.stdout.strip())


# --- one commit per output --------------------------------------------------------

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("number", [1, 2, 3, 4])
def test_run_stores_the_golden_trails(tmp_path, capsys, number):
    flow = scenarios.build_scenario(number, tmp_path / f"scenario{number}")
    assert main(["run", str(flow)]) == 0
    capsys.readouterr()
    for golden in sorted(GOLDEN.glob(f"scenario{number}-*.json")):
        image = flow.parent / (golden.stem.split("-", 1)[1] + ".boxi")
        assert [r["parttype"] for r in read_descriptors(image)] == [3, 4]
        with BoxImage.open(image) as opened:
            stored = read_trail(opened).to_mapping()
        assert canonical_json(mask_trail(stored)) == golden.read_bytes(), golden.name


@pytest.mark.parametrize("mode", ["zero-copy", "two-copy"])
def test_the_trail_names_the_header_it_is_stored_under(workbench, monkeypatch, capsys, mode):
    flow = identity_workflow(workbench)
    ticks = itertools.count(int(time.time()))
    monkeypatch.setattr(time, "time", lambda: float(next(ticks)))
    output = workbench.root / "output.boxi"
    for _ in range(2):  # the first run adds the trail, the second replaces it
        assert main(["run", flow, "--mode", mode]) == 0
        trail = json.loads(next(r["payload"] for r in read_descriptors(output)
                                if r["parttype"] == 4))
        modified = iso_utc(read_header(output)["modified"])
        assert trail["output"]["modified"] == modified
        assert trail["record_trail"][-1]["modified"] == modified


@pytest.mark.parametrize("mode", ["zero-copy", "two-copy"])
def test_the_trail_names_the_input_the_run_read(workbench, monkeypatch, capsys, mode):
    flow = identity_workflow(workbench)
    source = workbench.root / "input.boxi"
    read_uuid = str(uuidlib.UUID(bytes=read_header(source)["uuid_bytes"]))
    real_execute = runtime._execute

    def execute_then_repack(*args):
        record = real_execute(*args)
        # the input file is replaced by a new image while the run goes on
        tree = workbench.root / "tree-later" / "Inputs"
        tree.mkdir(parents=True)
        (tree / "a.txt").write_bytes(b"later\n")
        pack_data_dir(tree, "input", workbench.root / "later.boxi").close()
        os.replace(workbench.root / "later.boxi", source)
        return record

    monkeypatch.setattr(runtime, "_execute", execute_then_repack)
    assert main(["run", flow, "--mode", mode]) == 0
    new_uuid = str(uuidlib.UUID(bytes=read_header(source)["uuid_bytes"]))
    with BoxImage.open(workbench.root / "output.boxi") as output:
        trail = read_trail(output)
    assert new_uuid != read_uuid
    assert [(r.role, r.uuid) for r in trail.record_trail[:1]] == [("input", read_uuid)]


class _Syscalls:
    """Counts os.replace calls onto one path and every os.fsync."""

    def __init__(self, monkeypatch, target: Path):
        self.replaced = self.fsynced = 0
        replace, fsync = os.replace, os.fsync

        def counted_replace(src, dst, *args, **kwargs):
            self.replaced += Path(dst) == target
            return replace(src, dst, *args, **kwargs)

        def counted_fsync(fd):
            self.fsynced += 1
            return fsync(fd)

        monkeypatch.setattr(image_mod.os, "replace", counted_replace)
        monkeypatch.setattr(image_mod.os, "fsync", counted_fsync)


@pytest.mark.parametrize("flags", [[], ["--no-trail"]], ids=["trail", "no-trail"])
def test_run_rewrites_each_output_once(workbench, monkeypatch, capsys, flags):
    flow = identity_workflow(workbench)
    output = (workbench.root / "output.boxi").resolve()
    for _ in range(2):  # the first run adds the trail, the second replaces it
        with monkeypatch.context() as patch:
            calls = _Syscalls(patch, output)
            assert main(["run", flow, *flags]) == 0
        assert (calls.replaced, calls.fsynced) == (1, 1)
    kinds = [r["parttype"] for r in read_descriptors(output)]
    assert kinds == ([3] if flags else [3, 4])


@pytest.mark.parametrize("rerun", [False, True], ids=["first-run", "rerun"])
def test_a_failed_run_commit_leaves_the_output_as_it_was(workbench, monkeypatch, capsys,
                                                         rerun):
    flow = identity_workflow(workbench)
    output = workbench.root / "output.boxi"
    if rerun:
        assert main(["run", flow]) == 0
    before = output.read_bytes()
    with monkeypatch.context() as patch:
        counter = _WriteFaults(patch, fail_at=0)
        assert main(["run", flow]) == 0
    assert counter.writes >= 4  # header, data pieces, trail and table
    output.write_bytes(before)

    faults = [("write", n) for n in range(1, counter.writes + 1)]
    faults += [("fsync", None), ("replace", None)]
    for fault, n in faults:
        with monkeypatch.context() as patch:
            if fault == "write":
                _WriteFaults(patch, fail_at=n)
            else:
                patch.setattr(image_mod.os, fault, _raise_oserror)
            assert main(["run", flow]) == errors.IoError.exit_code
        where = f"{fault} {n or ''}"
        assert output.read_bytes() == before, where
        assert list(workbench.root.glob(".output.boxi.*")) == [], where
    capsys.readouterr()


NON_UTF8_WRITER = """#!/usr/bin/env python3
import os
import sys

with open(os.path.join(os.fsencode(sys.argv[1]), b"\\xff.txt"), "wb") as fh:
    fh.write(b"x")
"""


def test_pack_refuses_a_file_name_that_is_not_utf8(tmp_path, capsys):
    source = tmp_path / "Data"
    source.mkdir()
    (source / "ok.txt").write_bytes(b"fine")
    with open(os.path.join(os.fsencode(source), b"\xff.txt"), "wb") as fh:
        fh.write(b"x")
    assert main([PACK, str(source), str(tmp_path / "data.boxi")]) == \
        errors.UnsupportedEntry.exit_code
    assert "not UTF-8" in capsys.readouterr().err
    assert not (tmp_path / "data.boxi").exists()


def _non_utf8_name_commands(tmp_path: Path) -> dict[str, list[str]]:
    """Three commands that would name an image or a partition with bytes
    that are not UTF-8, as a shell passes them: decoded with surrogateescape."""
    data = tmp_path / "d"
    data.mkdir()
    (data / "a.txt").write_bytes(b"a")
    odd_dir = tmp_path / os.fsdecode(b"n\xfe")
    odd_dir.mkdir()
    (odd_dir / "a.txt").write_bytes(b"a")
    payload = tmp_path / "p.bin"
    payload.write_bytes(b"x")
    image = tmp_path / "out.boxi"
    main(["new-output", "Outputs", str(image)])
    return {
        "image-name": [PACK, str(data), str(tmp_path / os.fsdecode(b"x\xff.boxi"))],
        "partition-name": [PACK, str(odd_dir), str(tmp_path / "ok.boxi")],
        "add-name": ["add", str(image), str(payload), "--datatype", "3", "--partfs", "1",
                     "--parttype", "4", "--partarch", "0", "--name", os.fsdecode(b"\xff")],
    }


@pytest.mark.parametrize("command", ["image-name", "partition-name", "add-name"])
def test_a_name_that_is_not_utf8_is_refused(tmp_path, capsys, command):
    argv = _non_utf8_name_commands(tmp_path)[command]
    files = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
    capsys.readouterr()
    assert main(argv) == errors.InvalidName.exit_code
    assert "name is not UTF-8" in capsys.readouterr().err
    assert {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()} == files


@pytest.mark.parametrize("mode", ["zero-copy", "two-copy"])
def test_run_refuses_an_output_file_name_that_is_not_utf8(workbench, capsys, mode):
    workbench.app_image(NON_UTF8_WRITER)
    output = workbench.output_image()
    flow = workbench.root / "workflow.json"
    flow.write_text(json.dumps({
        "label": "non-utf8",
        "components": [
            {"id": "app", "role": "application", "image": "app.boxi"},
            {"id": "out", "role": "output", "image": "output.boxi"},
        ],
        "bindings": [{"source": "out:/Outputs", "target": "app:/Outputs"}],
        "invocations": [{"app": "app", "argv": ["Outputs"]}],
    }))
    before = output.read_bytes()
    assert main(["run", str(flow), "--mode", mode]) == errors.UnsupportedEntry.exit_code
    assert "not UTF-8" in capsys.readouterr().err
    assert output.read_bytes() == before


@pytest.mark.parametrize("mode", ["zero-copy", "two-copy"])
def test_run_refuses_a_binding_target_longer_than_a_file_name(workbench, capsys, mode):
    flow = Path(identity_workflow(workbench))
    doc = json.loads(flow.read_text())
    doc["bindings"][1]["target"] = "app:/" + "a" * 300
    flow.write_text(json.dumps(doc))
    output = workbench.root / "output.boxi"
    before = output.read_bytes()
    assert main(["run", str(flow), "--mode", mode]) == errors.SandboxError.exit_code
    assert capsys.readouterr().err.startswith("boxi: ")
    assert output.read_bytes() == before
