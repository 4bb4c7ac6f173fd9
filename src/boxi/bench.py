"""Wall-clock and space cost measurements, reported as canonical JSON.

Three measurements, mirroring the runtime's cost story:

  time      the same computation run natively and containerized, sampled
            interleaved (native, containerized, native, ...) to decorrelate
            machine drift; the figure of merit is the median overhead ratio.
  space     on-disk image size versus the raw content it encapsulates; the
            difference is pure format framing. An empty data image costs
            exactly EMPTY_DATA_IMAGE_BYTES.
  transfer  zero-copy versus two-copy movement of one synthetic payload
            between two images, interleaved, with copy events recorded.

Synthetic payloads come from a seeded RNG; the seed lands in the report so
a rerun reproduces identical trees, copy counts, and sizes (times vary).
"""

from __future__ import annotations

import os
import random
import statistics
import subprocess
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from .archive import content_bytes
from .document import Document
from .errors import BenchAborted, IoError
from .image import (
    DATA_PARTITION,
    DESCRIPTOR_SIZE,
    HEADER_SIZE,
    PART_DATA,
    BoxImage,
)
from .packager import pack_data_dir, pack_empty_output
from .runtime import (
    ZERO_COPY,
    WorkflowSpec,
    run_workflow,
    two_copy_transfer,
    zero_copy_transfer,
)

# 60-byte header + one 160-byte descriptor + the 8-byte empty archive:
# what a data image holding nothing at all costs on disk.
EMPTY_DATA_IMAGE_BYTES = HEADER_SIZE + DESCRIPTOR_SIZE + 8

DEFAULT_REPETITIONS = 20


@dataclass(frozen=True)
class TimeOverheadReport(Document):
    label: str
    samples: int
    native_ns: tuple[int, ...]
    containerized_ns: tuple[int, ...]
    median_native_ns: float
    median_containerized_ns: float
    overhead_ratio: float


@dataclass(frozen=True)
class SpaceRow:
    label: str
    original_bytes: int
    containerized_bytes: int
    delta_bytes: int


@dataclass(frozen=True)
class SpaceOverheadReport(Document):
    rows: tuple[SpaceRow, ...]
    fixed_overhead_bytes: int = EMPTY_DATA_IMAGE_BYTES


@dataclass(frozen=True)
class TransferReport(Document):
    payload_bytes: int
    repetitions: int
    seed: int
    zero_copy_ns: tuple[int, ...]
    two_copy_ns: tuple[int, ...]
    zero_copy_events: int
    two_copy_events: int
    median_zero_ns: float
    median_two_ns: float
    speedup_percent: float


def make_synthetic_tree(dest: Path | str, total_bytes: int, seed: int) -> None:
    """Fill dest with a seeded pseudo-random tree of exactly total_bytes."""
    dest = Path(dest)
    rng = random.Random(seed)
    folders = [dest, dest / "a", dest / "b", dest / "a" / "deep"]
    for folder in folders:
        folder.mkdir(parents=True, exist_ok=True)
    remaining = total_bytes
    index = 0
    while remaining > 0:
        size = min(remaining, rng.randint(1, 4 * 1024 * 1024))
        folder = rng.choice(folders)
        (folder / f"blob{index:04d}.bin").write_bytes(rng.randbytes(size))
        remaining -= size
        index += 1


def bench_time(spec: WorkflowSpec, native_commands: list[list[str]],
               repetitions: int = DEFAULT_REPETITIONS) -> TimeOverheadReport:
    """Interleave native and containerized runs of the same computation.

    Every native command must exit 0 and every containerized invocation
    must exit 0, else the whole benchmark aborts: a partially failed
    sample set would not measure anything meaningful.
    """
    if repetitions < 2:
        raise ValueError(f"repetitions must be at least 2, got {repetitions}")

    native_ns: list[int] = []
    containerized_ns: list[int] = []
    for _ in range(repetitions):
        started = time.perf_counter_ns()
        for command in native_commands:
            proc = subprocess.run(command, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE)
            if proc.returncode != 0:
                tail = proc.stderr.decode("utf-8", errors="replace")[-500:]
                raise BenchAborted(
                    f"native command {command} exited {proc.returncode}: {tail}")
        native_ns.append(time.perf_counter_ns() - started)

        started = time.perf_counter_ns()
        report = run_workflow(spec, ZERO_COPY)
        containerized_ns.append(time.perf_counter_ns() - started)
        for record in report.invocations:
            if record.exit_status != 0:
                raise BenchAborted(
                    f"invocation of {record.component_id!r} exited "
                    f"{record.exit_status}: {record.stderr_tail[-500:]}")

    median_native = statistics.median(native_ns)
    median_containerized = statistics.median(containerized_ns)
    if median_native == 0:
        raise BenchAborted("native median is zero; overhead ratio undefined")
    return TimeOverheadReport(
        label=spec.label,
        samples=repetitions,
        native_ns=tuple(native_ns),
        containerized_ns=tuple(containerized_ns),
        median_native_ns=median_native,
        median_containerized_ns=median_containerized,
        overhead_ratio=(median_containerized - median_native) / median_native,
    )


def bench_space(spec: WorkflowSpec) -> SpaceOverheadReport:
    """Compare each component image against the raw content inside it.

    Original bytes count the file contents for archive partitions and
    the raw payload for anything else, so the delta is exactly the format
    framing: header, descriptors, and archive entry headers. Every payload
    is streamed through its checksum, so none is held whole, and the size
    is that of the file the payloads were read from.
    """
    rows = []
    for component in spec.components:
        path = Path(component.image)
        if not path.is_file():
            raise IoError(f"image missing for {component.id!r}: {path}")
        original = 0
        with BoxImage.open(path) as image:
            for part in image.partitions:
                chunks = image.stream_partition(part.partition_id)
                if part.datatype == DATA_PARTITION:
                    original += content_bytes(chunks)
                else:
                    original += sum(len(chunk) for chunk in chunks)
            containerized = os.fstat(image.fileno()).st_size
        rows.append(SpaceRow(
            label=component.id,
            original_bytes=original,
            containerized_bytes=containerized,
            delta_bytes=containerized - original,
        ))
    return SpaceOverheadReport(rows=tuple(rows))


def bench_transfer(payload_bytes: int,
                   repetitions: int = DEFAULT_REPETITIONS, *,
                   seed: int = 0,
                   workdir: Path | str | None = None) -> TransferReport:
    """Time zero-copy against two-copy transfers of one synthetic payload.

    Both modes move the same source partition into the same destination
    inner path, interleaved; each repetition replaces the previous result.
    """
    if payload_bytes < 1:
        raise ValueError(f"payload_bytes must be at least 1, got {payload_bytes}")
    if repetitions < 1:
        raise ValueError(f"repetitions must be at least 1, got {repetitions}")

    scratch = tempfile.TemporaryDirectory(prefix="boxi-bench-") if workdir is None else None
    base = Path(scratch.name) if scratch else Path(workdir)
    try:
        tree = base / "payload"
        make_synthetic_tree(tree, payload_bytes, seed)
        src = base / "transfer-src.boxi"
        with pack_data_dir(tree, "transfer-src", src) as source:
            source_partition = source.find(parttype=PART_DATA)[0].partition_id
        dst = base / "transfer-dst.boxi"
        pack_empty_output("Inputs", "transfer-dst", dst).close()

        zero_ns: list[int] = []
        two_ns: list[int] = []
        zero_events = two_events = 0
        for _ in range(repetitions):
            started = time.perf_counter_ns()
            report = zero_copy_transfer(src, source_partition, dst, "/Inputs")
            zero_ns.append(time.perf_counter_ns() - started)
            zero_events = report.copy_events

            started = time.perf_counter_ns()
            report = two_copy_transfer(src, source_partition, dst, "/Inputs")
            two_ns.append(time.perf_counter_ns() - started)
            two_events = report.copy_events

        median_zero = statistics.median(zero_ns)
        median_two = statistics.median(two_ns)
        return TransferReport(
            payload_bytes=payload_bytes,
            repetitions=repetitions,
            seed=seed,
            zero_copy_ns=tuple(zero_ns),
            two_copy_ns=tuple(two_ns),
            zero_copy_events=zero_events,
            two_copy_events=two_events,
            median_zero_ns=median_zero,
            median_two_ns=median_two,
            speedup_percent=100.0 * (median_two - median_zero) / median_two,
        )
    finally:
        if scratch is not None:
            scratch.cleanup()
