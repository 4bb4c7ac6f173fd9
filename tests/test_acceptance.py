"""Release acceptance checks, one test per shipping criterion.

Every test prints a single verdict line on the terminal, so running this
file doubles as the release checklist:

    ACCEPTANCE 1: PASS - ...

The checks re-derive expectations from independent oracles (tests/oracles.py,
golden trail files, hand-computed framing arithmetic) rather than from the
package's own codecs. Criteria 4 and 5 are wall-clock benchmarks with pinned
sample counts, so the whole file takes several minutes.
"""

from __future__ import annotations

import random
import sys
import time
import uuid as uuidlib
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path

import pytest

from boxi import scenarios
from boxi.archive import decode, extract_dir
from boxi.bench import EMPTY_DATA_IMAGE_BYTES, bench_space, bench_time, bench_transfer
from boxi.errors import CorruptPartition, NotAnOutputOfRun
from boxi.image import (
    ARCH_ANY,
    DATA_JSON,
    DATA_PARTITION,
    FS_ARCHIVE_RO,
    PART_DATA,
    PART_METADATA,
    BoxImage,
)
from boxi.packager import Recipe, build_app_image, pack_data_dir, pack_empty_output
from boxi.provenance import (
    assemble_record_trail,
    attach_metadata,
    canonical_json,
    read_trail,
    stamped,
)
from boxi.runtime import (
    TWO_COPY,
    ZERO_COPY,
    ExecutionReport,
    InvocationRecord,
    OutputWrite,
    load_workflow,
    run_workflow,
    workflow_from_mapping,
)
from boxi.standins import SLEEPER, write_script

from .conftest import open_images
from .oracles import (
    assert_same_tree,
    expected_image_delta,
    file_sha256,
    flip_bit,
    mask_trail,
    read_descriptors,
    read_header,
    walk_tree,
)

GOLDEN = Path(__file__).parent / "golden"


@contextmanager
def _verdict(capsys, number: int, summary: str):
    """Print one PASS/FAIL line per criterion, past pytest's capture."""
    notes: list[str] = []
    try:
        yield notes
    except BaseException:
        _emit(capsys, number, "FAIL", summary, notes)
        raise
    _emit(capsys, number, "PASS", summary, notes)


def _emit(capsys, number: int, status: str, summary: str, notes: list[str]) -> None:
    detail = f" ({'; '.join(notes)})" if notes else ""
    with capsys.disabled():
        print(f"\nACCEPTANCE {number}: {status} - {summary}{detail}")


def _iso(epoch_seconds: int) -> str:
    stamp = datetime.fromtimestamp(epoch_seconds, tz=timezone.utc)
    return stamp.strftime("%Y-%m-%dT%H:%M:%SZ")


def _image_uuid(path: Path) -> str:
    return str(uuidlib.UUID(bytes=read_header(path)["uuid_bytes"]))


def _run_and_attach(flow: Path):
    spec = load_workflow(flow)
    report = run_workflow(spec)
    assert all(rec.exit_status == 0 for rec in report.invocations)
    for current in report.outputs_written:
        trail = assemble_record_trail(spec, report, current.component_id, open_images(spec))
        with BoxImage.open(spec.component(current.component_id).image) as image:
            attach_metadata(image, trail)
    return spec, report


def _stored_trail(image_path: Path) -> dict:
    with BoxImage.open(image_path) as image:
        return read_trail(image).to_mapping()


# --- criterion 1: the four scenario fixtures against golden trails ---------

def test_scenario_runs_attach_golden_trails(tmp_path, capsys):
    with _verdict(capsys, 1, "scenario fixtures attach the golden record trails") as notes:
        started = time.monotonic()
        outputs = {
            1: [("output.boxi", "scenario1-output.json")],
            2: [(f"output{k}.boxi", f"scenario2-output{k}.json") for k in (1, 2, 3)],
            3: [("outputkknn.boxi", "scenario3-outputkknn.json"),
                ("outputrf.boxi", "scenario3-outputrf.json")],
            4: [("outputkknn.boxi", "scenario4-outputkknn.json"),
                ("outputrf.boxi", "scenario4-outputrf.json")],
        }
        records_per_trail = {1: 3, 2: 3, 3: 3, 4: 4}
        trails: dict[tuple[int, str], dict] = {}

        for number, images in outputs.items():
            root = tmp_path / f"scenario{number}"
            _run_and_attach(scenarios.build_scenario(number, root))
            for image_name, golden_name in images:
                image_path = root / image_name
                kinds = sorted(p["parttype"] for p in read_descriptors(image_path))
                assert kinds == [PART_DATA, PART_METADATA], image_name
                stored = _stored_trail(image_path)
                assert len(stored["record_trail"]) == records_per_trail[number]
                masked = mask_trail(stored)
                golden = (GOLDEN / golden_name).read_bytes()
                assert canonical_json(masked) == golden, golden_name
                trails[number, image_name] = stored

        # scenario 2: each output descends from its own numbered input
        for k in (1, 2, 3):
            stored = trails[2, f"output{k}.boxi"]
            inputs = [r for r in stored["record_trail"] if r["role"] == "input"]
            assert [r["uuid"] for r in inputs] == [
                _image_uuid(tmp_path / "scenario2" / f"input{k}.boxi")]

        # scenario 3: both outputs cite the one shared input
        shared = _image_uuid(tmp_path / "scenario3" / "input.boxi")
        for image_name in ("outputkknn.boxi", "outputrf.boxi"):
            stored = trails[3, image_name]
            inputs = [r for r in stored["record_trail"] if r["role"] == "input"]
            assert [r["uuid"] for r in inputs] == [shared]

        # scenario 4: both outputs cite the split train and eval inputs
        split = {_image_uuid(tmp_path / "scenario4" / "train.boxi"),
                 _image_uuid(tmp_path / "scenario4" / "eval.boxi")}
        for image_name in ("outputkknn.boxi", "outputrf.boxi"):
            stored = trails[4, image_name]
            inputs = {r["uuid"] for r in stored["record_trail"] if r["role"] == "input"}
            assert inputs == split

        elapsed = time.monotonic() - started
        assert elapsed < 30.0, f"scenario fixtures took {elapsed:.1f}s"
        notes.append(f"8 outputs checked in {elapsed:.1f}s")


# --- criterion 2: trail assembly against a brute-force graph oracle --------

_ROLE_CHOICES = ("input", "application", "output")


def _random_document(rng: random.Random, pool: list[str]) -> dict:
    """An acyclic workflow over up to five components with one writer cap."""
    count = rng.randint(3, 5)
    roles = list(_ROLE_CHOICES) + [rng.choice(_ROLE_CHOICES) for _ in range(count - 3)]
    rng.shuffle(roles)
    components = [{"id": f"c{i}", "role": roles[i], "image": pool[i]}
                  for i in range(count)]
    invoked = {f"c{i}" for i, role in enumerate(roles)
               if role == "application" and rng.random() < 0.8}
    bindings = []
    writers: dict[int, int] = {}
    for i in range(count):
        for j in range(i + 1, count):   # forward edges only, so never cyclic
            if rng.random() >= 0.55:
                continue
            if roles[i] == "output" and f"c{j}" in invoked:
                if writers.get(i, 0) >= 1:
                    continue
                writers[i] = 1
            bindings.append({"source": f"c{i}:/", "target": f"c{j}:/m{i}"})
    # most outputs should actually get written, or the check learns little
    for i in range(count):
        if roles[i] != "output" or writers.get(i):
            continue
        candidates = [j for j in range(i + 1, count) if f"c{j}" in invoked]
        if candidates and rng.random() < 0.7:
            writers[i] = 1
            bindings.append({"source": f"c{i}:/",
                             "target": f"c{rng.choice(candidates)}:/m{i}"})
    return {
        "label": "probe",
        "components": components,
        "bindings": bindings,
        "invocations": [{"app": cid, "argv": ["go"]} for cid in sorted(invoked)],
    }


def _edges(doc: dict) -> list[tuple[str, str]]:
    return [(b["source"].split(":", 1)[0], b["target"].split(":", 1)[0])
            for b in doc["bindings"]]


def _synthetic_report(rng: random.Random, doc: dict) -> ExecutionReport:
    """A run report consistent with the document, without running anything."""
    records = []
    base_ns = rng.randrange(10**15, 10**18)
    for offset, invocation in enumerate(doc["invocations"]):
        started = base_ns + offset * 1_000_000_000
        records.append(InvocationRecord(
            component_id=invocation["app"],
            argv=tuple(invocation["argv"]),
            started_ns=started,
            finished_ns=started + rng.randrange(1, 10**9),
            exit_status=rng.choice((0, 0, 0, 2)),
        ))
    invoked = {rec.component_id for rec in records}
    roles = {c["id"]: c["role"] for c in doc["components"]}
    written = sorted({src for src, dst in _edges(doc)
                      if roles[src] == "output" and dst in invoked})
    return ExecutionReport(
        label=doc["label"],
        mode=ZERO_COPY,
        invocations=records,
        copy_events=0,
        outputs_written=[OutputWrite(cid, (1,)) for cid in written],
        bindings_used=[],
    )


def _expected_trail(doc: dict, report: ExecutionReport, output_id: str,
                    base_dir: Path) -> dict:
    """Brute-force oracle: enumerate input -> app -> output binding pairs."""
    edges = _edges(doc)
    roles = {c["id"]: c["role"] for c in doc["components"]}
    images = {c["id"]: c["image"] for c in doc["components"]}
    invoked = {rec.component_id for rec in report.invocations}

    writers: set[str] = set()
    inputs: set[str] = set()
    for source, app in edges:
        if source != output_id or app not in invoked:
            continue
        writers.add(app)
        for src, dst in edges:
            if dst == app and roles[src] == "input":
                inputs.add(src)

    def record(cid: str, role: str) -> dict:
        header = read_header(base_dir / images[cid])
        return {
            "role": role,
            "name": Path(images[cid]).stem,
            "uuid": str(uuidlib.UUID(bytes=header["uuid_bytes"])),
            "created": _iso(header["created"]),
            "modified": _iso(header["modified"]),
        }

    def ordered(ids: set[str], role: str) -> list[dict]:
        ranked = sorted((Path(images[cid]).stem, cid) for cid in ids)
        return [record(cid, role) for _, cid in ranked]

    output_record = record(output_id, "output")
    trail = ordered(inputs, "input") + ordered(writers, "application")
    trail.append(output_record)
    first = next(rec for rec in report.invocations if rec.component_id in writers)
    return {
        "schema_version": 1,
        "workflow_label": doc["label"],
        "output": output_record,
        "record_trail": trail,
        "command": " ".join(first.argv),
        "executed_at": _iso(first.started_ns // 1_000_000_000),
        "exit_status": first.exit_status,
    }


def test_trail_assembly_matches_reachability_oracle(tmp_path, capsys):
    with _verdict(capsys, 2, "assembled trails match the graph oracle on 200 random specs") as notes:
        pool = ["n0.boxi", "n1.boxi", "n2.boxi", "dup/n0.boxi", "dup/n1.boxi"]
        (tmp_path / "dup").mkdir()
        for relative in pool:
            BoxImage.create(Path(relative).stem, tmp_path / relative).close()

        rng = random.Random(0xB0C5)
        comparisons = 0
        rich_trails = 0
        mismatches: list[str] = []
        for index in range(200):
            doc = _random_document(rng, pool)
            spec = workflow_from_mapping(doc, base_dir=tmp_path)
            report = _synthetic_report(rng, doc)
            written = [ow.component_id for ow in report.outputs_written]
            for output_id in written:
                actual = assemble_record_trail(spec, report, output_id,
                                               open_images(spec)).to_mapping()
                expected = _expected_trail(doc, report, output_id, tmp_path)
                if actual != expected:
                    mismatches.append(f"spec {index} output {output_id}")
                comparisons += 1
                if len(expected["record_trail"]) > 2:
                    rich_trails += 1
            unwritten = [c["id"] for c in doc["components"]
                         if c["role"] == "output" and c["id"] not in written]
            if unwritten:
                with pytest.raises(NotAnOutputOfRun):
                    assemble_record_trail(spec, report, unwritten[0], open_images(spec))

        assert mismatches == [], mismatches[:5]
        assert comparisons >= 100
        assert rich_trails >= 25
        notes.append(f"{comparisons} trails compared, {rich_trails} with inputs, 0 mismatches")


# --- criterion 3: identity runs reproduce arbitrary trees ------------------

_NAME_PARTS = ("alpha", "Mixed Case", "uni-é", "b", "zz")


def _random_tree(rng: random.Random, dest: Path, budget: int) -> None:
    """A tree of exactly budget content bytes with odd names and modes."""
    dest.mkdir(parents=True)
    folders = [dest]
    for depth in range(rng.randint(0, 4)):
        child = rng.choice(folders) / f"d{depth}-{rng.choice(('x', 'y', 'uni-é'))}"
        child.mkdir(exist_ok=True)
        folders.append(child)
    file_count = rng.randint(1, 8)
    cuts = sorted(rng.randint(0, budget) for _ in range(file_count - 1))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [budget])]
    for index, size in enumerate(sizes):
        target = rng.choice(folders) / f"{rng.choice(_NAME_PARTS)}-{index}.bin"
        target.write_bytes(rng.randbytes(size))
        target.chmod(rng.choice((0o644, 0o755, 0o600)))


def test_identity_runs_reproduce_any_tree_in_both_modes(tmp_path, capsys):
    with _verdict(capsys, 3, "identity runs reproduce 100 random trees byte-exactly") as notes:
        rng = random.Random(0x7EE5)
        budgets = [rng.randint(64, 64 * 1024) for _ in range(97)]
        budgets += [2_000_000, 5_000_000, 10_000_000]
        for index, budget in enumerate(budgets):
            root = tmp_path / f"case{index:03d}"
            tree = root / "tree"
            _random_tree(rng, tree, budget)
            flow = scenarios.build_identity_fixture(root / "flow", tree,
                                                    label=f"case-{index}")
            spec = load_workflow(flow)
            output_image = root / "flow" / "output.boxi"
            payloads: dict[str, bytes] = {}
            digests: dict[str, bytes] = {}
            for mode in (ZERO_COPY, TWO_COPY):
                pack_empty_output("Outputs", "output", output_image).close()
                report = run_workflow(spec, mode)
                assert [rec.exit_status for rec in report.invocations] == [0]
                parts = [p for p in read_descriptors(output_image)
                         if p["parttype"] == PART_DATA]
                assert len(parts) == 1
                payloads[mode] = parts[0]["payload"]
                digests[mode] = parts[0]["sha256"]
                extracted = root / f"extract-{mode}"
                extract_dir(parts[0]["payload"], extracted)
                assert_same_tree(tree, extracted / "Outputs" / "data")
            assert payloads[ZERO_COPY] == payloads[TWO_COPY]
            assert digests[ZERO_COPY] == digests[TWO_COPY]
        notes.append(f"{len(budgets)} trees, largest {max(budgets):,} bytes")


# --- criterion 4: zero-copy beats two-copy on a large payload --------------

def test_zero_copy_beats_two_copy_on_large_payload(tmp_path, capsys):
    with _verdict(capsys, 4, "zero-copy transfer beats two-copy on 100 MB") as notes:
        report = bench_transfer(100 * 1024 * 1024, 20, seed=11, workdir=tmp_path)
        assert report.zero_copy_events == 2
        assert report.two_copy_events == 4
        assert report.median_zero_ns < report.median_two_ns
        notes.append(
            f"median {report.median_zero_ns / 1e6:.0f} ms vs "
            f"{report.median_two_ns / 1e6:.0f} ms, "
            f"speedup {report.speedup_percent:.1f}%, events 2 vs 4")


# --- criterion 5: runtime overhead fades as compute grows ------------------

def _sleep_workflow(root: Path, seconds: float):
    """An app that sleeps for the given time, plus an output to repack."""
    work = root / "work"
    script = write_script(work / "busy.py", SLEEPER)
    recipe = Recipe(base="ubuntu:16.04",
                    files=[("busy.py", "/busy.py")], runscript="busy.py")
    build_app_image(recipe, "app", root / "app.boxi", source_root=work).close()
    pack_empty_output("Outputs", "out", root / "out.boxi").close()
    spec = workflow_from_mapping({
        "label": f"sleep-{seconds}",
        "components": [
            {"id": "app", "role": "application", "image": "app.boxi"},
            {"id": "out", "role": "output", "image": "out.boxi"},
        ],
        "bindings": [{"source": "out:/Outputs", "target": "app:/Outputs"}],
        "invocations": [{"app": "app", "argv": [str(seconds)]}],
    }, base_dir=root)
    return spec, script


@pytest.mark.slow
def test_overhead_ratio_shrinks_with_compute_time(tmp_path, capsys):
    with _verdict(capsys, 5, "overhead ratio shrinks with compute and stays under 10%") as notes:
        ratios: dict[float, float] = {}
        for seconds in (0.1, 10.0):
            root = tmp_path / f"sleep-{seconds}"
            spec, script = _sleep_workflow(root, seconds)
            report = bench_time(
                spec, [[sys.executable, str(script), str(seconds)]],
                repetitions=20)
            assert report.samples == 20
            ratios[seconds] = report.overhead_ratio
        assert ratios[10.0] < ratios[0.1]
        assert ratios[10.0] < 0.10
        notes.append(f"ratio(0.1 s)={ratios[0.1]:.3f}, ratio(10 s)={ratios[10.0]:.4f}")


# --- criterion 6: space deltas equal the framing arithmetic ----------------

def test_space_deltas_match_framing_arithmetic(tmp_path, capsys):
    with _verdict(capsys, 6, "image size deltas equal header+descriptor+entry framing") as notes:
        flow = scenarios.build_scenario(3, tmp_path / "s3")
        spec, _ = _run_and_attach(flow)

        space = bench_space(spec)
        assert space.fixed_overhead_bytes == EMPTY_DATA_IMAGE_BYTES == 228
        rows = {row.label: row for row in space.rows}
        worst = 0
        for component in spec.components:
            per_partition: list[list[str] | None] = []
            for part in read_descriptors(Path(component.image)):
                if part["datatype"] == DATA_PARTITION:
                    per_partition.append([e.path for e in decode(part["payload"])])
                else:
                    per_partition.append(None)
            expected = expected_image_delta(per_partition)
            row = rows[component.id]
            worst = max(worst, abs(row.delta_bytes - expected))
            assert abs(row.delta_bytes - expected) <= 4096, component.id
            assert row.delta_bytes == expected, component.id
            assert row.containerized_bytes == Path(component.image).stat().st_size

        # the shared input, rechecked purely from its source directory
        listing = sorted(walk_tree(tmp_path / "s3" / "work" / "Inputs"))
        assert rows["input"].delta_bytes == expected_image_delta([listing])

        # an image around nothing at all costs exactly the documented constant
        bare_dir = tmp_path / "bare"
        bare_dir.mkdir()
        pack_data_dir(bare_dir, "bare", tmp_path / "bare.boxi").close()
        assert (tmp_path / "bare.boxi").stat().st_size == 228

        notes.append(f"{len(rows)} images exact, worst gap {worst} bytes of 4096 allowed")


# --- criterion 7: identifier, timestamp, corruption, stability laws --------

def test_image_identity_corruption_and_stability(tmp_path, capsys):
    with _verdict(capsys, 7, "identifier, timestamp, corruption, and stability laws hold") as notes:
        # 10000 fresh images: identifiers are distinct random v4 values
        mint = tmp_path / "mint.boxi"
        seen: set[bytes] = set()
        for _ in range(10_000):
            BoxImage.create("mint", mint).close()
            raw = read_header(mint)["uuid_bytes"]
            assert raw[6] >> 4 == 4          # version nibble
            assert raw[8] >> 6 == 0b10       # variant bits
            seen.add(raw)
        assert len(seen) == 10_000

        # timestamps: created is fixed, modified never moves backwards
        clock = tmp_path / "clock.boxi"
        image = BoxImage.create("clock", clock)
        assert image.created_at == image.modified_at
        stamps = [(image.created_at, image.modified_at)]
        pid = image.add_partition(b"x" * 16, datatype=DATA_JSON, fstype=FS_ARCHIVE_RO,
                                  parttype=PART_DATA, arch=ARCH_ANY, name="p")
        stamps.append((image.created_at, image.modified_at))
        image.update_partition(pid, b"y" * 4)
        stamps.append((image.created_at, image.modified_at))
        image.delete_partition(pid)
        stamps.append((image.created_at, image.modified_at))
        image.close()
        with BoxImage.open(clock) as reopened:
            stamps.append((reopened.created_at, reopened.modified_at))
        assert len({created for created, _ in stamps}) == 1
        modified = [value for _, value in stamps]
        assert modified == sorted(modified)

        # every single-bit payload flip is caught on dump, none slip through
        payload = random.Random(99).randbytes(48)
        victim = tmp_path / "victim.boxi"
        with BoxImage.create("victim", victim) as image:
            image.add_partition(payload, datatype=DATA_JSON, fstype=FS_ARCHIVE_RO,
                                parttype=PART_DATA, arch=ARCH_ANY, name="p")
        part = read_descriptors(victim)[0]
        assert (part["offset"], part["size"]) == (60, 48)
        flips = 0
        for byte in range(48):
            for bit in range(8):
                flip_bit(victim, part["offset"] + byte, bit)
                with BoxImage.open(victim) as image:
                    with pytest.raises(CorruptPartition):
                        image.dump_partition(part["id"])
                flip_bit(victim, part["offset"] + byte, bit)
                flips += 1
        assert flips == 48 * 8
        with BoxImage.open(victim) as image:
            assert image.dump_partition(part["id"]) == payload

        # sampled flips across a 1 MiB payload are caught just the same
        big = random.Random(7).randbytes(1024 * 1024)
        grand = tmp_path / "grand.boxi"
        with BoxImage.create("grand", grand) as image:
            image.add_partition(big, datatype=DATA_JSON, fstype=FS_ARCHIVE_RO,
                                parttype=PART_DATA, arch=ARCH_ANY, name="big")
        part = read_descriptors(grand)[0]
        rng = random.Random(13)
        for _ in range(256):
            offset = part["offset"] + rng.randrange(part["size"])
            bit = rng.randrange(8)
            flip_bit(grand, offset, bit)
            with BoxImage.open(grand) as image:
                with pytest.raises(CorruptPartition):
                    image.dump_partition(part["id"])
            flip_bit(grand, offset, bit)

        # attaching the same trail twice changes nothing but the clock
        data = tmp_path / "data"
        data.mkdir()
        (data / "a.txt").write_bytes(b"alpha\n")
        flow = scenarios.build_identity_fixture(tmp_path / "flow", data)
        spec = load_workflow(flow)
        sources = {name: file_sha256(tmp_path / "flow" / name)
                   for name in ("input.boxi", "app.boxi")}
        run_workflow(spec)
        report = run_workflow(spec, TWO_COPY)
        after = {name: file_sha256(tmp_path / "flow" / name)
                 for name in ("input.boxi", "app.boxi")}
        assert after == sources   # runs never touch their source images

        trail = assemble_record_trail(spec, report, "output", open_images(spec))
        output_image = tmp_path / "flow" / "output.boxi"
        with BoxImage.open(output_image) as image:
            first = attach_metadata(image, trail)
            assert image.dump_partition(first) == stamped(trail, image.modified_at).to_json()
            second = attach_metadata(image, trail)
            assert second == first
            assert image.dump_partition(second) == stamped(trail, image.modified_at).to_json()
        kinds = sorted(p["parttype"] for p in read_descriptors(output_image))
        assert kinds == [PART_DATA, PART_METADATA]
        with BoxImage.open(output_image) as image:
            assert read_trail(image) == stamped(trail, image.modified_at)

        notes.append("10000 identifiers, 640 bit flips caught, inputs byte-stable")
