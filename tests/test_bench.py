"""Tests for the time, space, and transfer measurements."""

from __future__ import annotations

import importlib.util
import json
import os
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from boxi import standins
from boxi.bench import (
    EMPTY_DATA_IMAGE_BYTES,
    bench_space,
    bench_time,
    bench_transfer,
    make_synthetic_tree,
)
from boxi.errors import BenchAborted, IoError
from boxi.packager import pack_empty_output
from boxi.runtime import run_workflow

from .oracles import expected_image_delta, walk_tree


def test_empty_data_image_constant_matches_reality(tmp_path):
    image = pack_empty_output("Outputs", "empty", tmp_path / "empty.boxi")
    image.close()
    # not literally empty: it holds the one Outputs directory entry
    framing = expected_image_delta([["Outputs"]])
    assert image.path.stat().st_size == framing
    # the documented constant covers a data image with a zero-entry archive
    assert EMPTY_DATA_IMAGE_BYTES == 60 + 160 + 8
    assert framing == EMPTY_DATA_IMAGE_BYTES + 2 + len("Outputs") + 4 + 8


def test_synthetic_tree_is_seeded_and_sized(tmp_path):
    one = tmp_path / "one"
    two = tmp_path / "two"
    other = tmp_path / "other"
    make_synthetic_tree(one, 300_000, seed=7)
    make_synthetic_tree(two, 300_000, seed=7)
    make_synthetic_tree(other, 300_000, seed=8)

    first, second = walk_tree(one), walk_tree(two)
    assert first == second
    assert walk_tree(other) != first
    total = sum(len(v[2]) for v in first.values() if v[0] == "file")
    assert total == 300_000


def test_space_report_delta_is_exactly_the_framing(workbench):
    spec = workbench.identity_spec(files={"a.txt": b"12345",
                                          "sub/b.bin": b"x" * 100})
    report = bench_space(spec)
    by_label = {row.label: row for row in report.rows}
    assert set(by_label) == {"in", "app", "out"}
    assert report.fixed_overhead_bytes == EMPTY_DATA_IMAGE_BYTES

    row = by_label["in"]
    assert row.original_bytes == 105
    assert row.delta_bytes == expected_image_delta(
        [["a.txt", "sub", "sub/b.bin"]])
    assert row.containerized_bytes == row.original_bytes + row.delta_bytes

    out_row = by_label["out"]
    assert out_row.original_bytes == 0
    assert out_row.delta_bytes == expected_image_delta([["Outputs"]])


def test_space_report_covers_every_partition(workbench):
    from boxi.image import CHUNK_BYTES, BoxImage
    big = 4 * CHUNK_BYTES
    spec = workbench.identity_spec(files={"a.txt": b"abc", "big.bin": b"b" * big})
    with BoxImage.open(workbench.root / "input.boxi") as image:
        image.add_partition(b"0123456789" * (big // 10), datatype=3, fstype=1, parttype=4,
                            arch=0, name="notes")
    tracemalloc.start()
    try:
        report = bench_space(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    row = next(r for r in report.rows if r.label == "in")
    # raw partitions count verbatim, archive partitions by content
    assert row.original_bytes == 3 + big + 10 * (big // 10)
    assert row.delta_bytes == expected_image_delta([["a.txt", "big.bin"], None])
    assert peak < 2 * CHUNK_BYTES  # every payload is streamed, none held whole


def test_space_report_sizes_the_file_it_read(workbench, monkeypatch):
    from boxi.image import BoxImage
    spec = workbench.identity_spec(files={"a.txt": b"12345"})
    other = pack_empty_output("Outputs", "other", workbench.root / "other.boxi")
    other.close()
    real_open = BoxImage.open

    def open_then_replace(path):
        handle = real_open(path)
        if Path(path).name == "input.boxi":
            os.replace(other.path, path)
        return handle

    monkeypatch.setattr(BoxImage, "open", open_then_replace)
    row = next(r for r in bench_space(spec).rows if r.label == "in")
    assert (row.original_bytes, row.delta_bytes) == (5, expected_image_delta([["a.txt"]]))


def test_space_report_requires_existing_images(workbench):
    spec = workbench.identity_spec()
    (workbench.root / "input.boxi").unlink()
    with pytest.raises(IoError):
        bench_space(spec)


def test_space_report_json_round_trips(workbench):
    report = bench_space(workbench.identity_spec())
    parsed = json.loads(report.to_json().decode("utf-8"))
    assert parsed == report.to_mapping()
    assert [row["label"] for row in parsed["rows"]] == ["in", "app", "out"]
    assert list(parsed) == ["rows", "fixed_overhead_bytes"]
    assert {tuple(row) for row in parsed["rows"]} == {
        ("label", "original_bytes", "containerized_bytes", "delta_bytes")}


def sleeper_spec(workbench, seconds="0.01"):
    workbench.app_image(standins.SLEEPER, name="sleeper")
    return workbench.spec(
        components=[{"id": "work", "role": "application",
                     "image": "sleeper.boxi"}],
        bindings=[],
        invocations=[{"app": "work", "argv": [seconds]}],
        label="sleep-bench",
    ), seconds


def test_time_report_shape_and_arithmetic(workbench):
    spec, seconds = sleeper_spec(workbench)
    native = [[sys.executable, "-c", f"import time; time.sleep({seconds})"]]
    report = bench_time(spec, native, repetitions=3)
    assert report.label == "sleep-bench"
    assert report.samples == 3
    assert len(report.native_ns) == 3
    assert len(report.containerized_ns) == 3
    assert report.median_native_ns == sorted(report.native_ns)[1]
    assert report.median_containerized_ns == sorted(report.containerized_ns)[1]
    expected = (report.median_containerized_ns - report.median_native_ns) \
        / report.median_native_ns
    assert report.overhead_ratio == pytest.approx(expected)
    # containerization can only add work on top of the same sleep: one run
    # takes longer than the exec it records, whatever the launches' spread
    started = time.perf_counter_ns()
    (record,) = run_workflow(spec).invocations
    total = time.perf_counter_ns() - started
    assert total > record.finished_ns - record.started_ns


def test_time_report_json_keeps_the_key_order(workbench):
    spec, _ = sleeper_spec(workbench, seconds="0")
    report = bench_time(spec, [[sys.executable, "-c", "pass"]], repetitions=2)
    parsed = json.loads(report.to_json().decode("utf-8"))
    assert parsed == report.to_mapping()
    assert list(parsed) == [
        "label", "samples", "native_ns", "containerized_ns",
        "median_native_ns", "median_containerized_ns", "overhead_ratio"]


def test_time_bench_needs_two_repetitions(workbench):
    spec, _ = sleeper_spec(workbench)
    with pytest.raises(ValueError):
        bench_time(spec, [], repetitions=1)


def test_time_bench_aborts_on_native_failure(workbench):
    spec, _ = sleeper_spec(workbench)
    native = [[sys.executable, "-c", "raise SystemExit(9)"]]
    with pytest.raises(BenchAborted):
        bench_time(spec, native, repetitions=2)


def test_time_bench_aborts_on_containerized_failure(workbench):
    workbench.app_image(standins.FAILER, name="boom")
    spec = workbench.spec(
        components=[{"id": "boom", "role": "application", "image": "boom.boxi"}],
        bindings=[],
        invocations=[{"app": "boom", "argv": ["7"]}],
        label="failing",
    )
    native = [[sys.executable, "-c", "pass"]]
    with pytest.raises(BenchAborted):
        bench_time(spec, native, repetitions=2)


def test_transfer_report_counts_and_reproducibility(tmp_path):
    report = bench_transfer(50_000, repetitions=2, seed=3,
                            workdir=tmp_path / "w1")
    assert report.payload_bytes == 50_000
    assert report.repetitions == 2
    assert report.seed == 3
    assert report.zero_copy_events == 2
    assert report.two_copy_events == 4
    assert len(report.zero_copy_ns) == 2
    assert len(report.two_copy_ns) == 2
    ratio = (report.median_two_ns - report.median_zero_ns) / report.median_two_ns
    assert report.speedup_percent == pytest.approx(100.0 * ratio)
    parsed = json.loads(report.to_json().decode("utf-8"))
    assert parsed == report.to_mapping()
    assert list(parsed) == [
        "payload_bytes", "repetitions", "seed", "zero_copy_ns", "two_copy_ns",
        "zero_copy_events", "two_copy_events", "median_zero_ns",
        "median_two_ns", "speedup_percent"]

    # same seed, same payload: the trees and transfer results are identical
    again = bench_transfer(50_000, repetitions=2, seed=3,
                           workdir=tmp_path / "w2")
    assert walk_tree(tmp_path / "w1" / "payload") == \
        walk_tree(tmp_path / "w2" / "payload")
    assert again.zero_copy_events == report.zero_copy_events


def test_transfer_leaves_the_payload_in_the_destination(tmp_path):
    from boxi.archive import extract_dir
    from boxi.image import BoxImage

    bench_transfer(10_000, repetitions=1, seed=5, workdir=tmp_path)
    with BoxImage.open(tmp_path / "transfer-dst.boxi") as image:
        extract_dir(image.dump_partition(1), tmp_path / "unpacked")
    moved = walk_tree(tmp_path / "unpacked" / "Inputs")
    original = walk_tree(tmp_path / "payload")
    assert moved == original


@pytest.mark.parametrize("kwargs", [
    {"payload_bytes": 0},
    {"payload_bytes": 10, "repetitions": 0},
])
def test_transfer_rejects_degenerate_parameters(tmp_path, kwargs):
    with pytest.raises(ValueError):
        bench_transfer(**{"repetitions": 1, "workdir": tmp_path, **kwargs})


def test_transfer_cleans_up_its_scratch_when_unset(tmp_path, monkeypatch):
    import tempfile as tempfile_mod
    monkeypatch.setattr(tempfile_mod, "tempdir", str(tmp_path))
    bench_transfer(1000, repetitions=1, seed=1)
    assert list(tmp_path.iterdir()) == []


def test_the_benchmark_tracer_wraps_names_that_exist():
    # perfbench/tracing.py wraps boxi's layers by name from outside; a
    # renamed layer must fail here rather than crash a traced benchmark run.
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer().add_packager().add_layers()
    patches = tracer._patches
    assert patches
    tracer.install()
    try:
        assert all(vars(owner)[attr] is new for owner, attr, _, new in patches)
    finally:
        tracer.uninstall()
    assert all(vars(owner)[attr] is old for owner, attr, old, _ in patches)
