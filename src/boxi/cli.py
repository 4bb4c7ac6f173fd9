"""Command-line surface over the library.

Every subcommand is a thin wrapper: pack, new-output, build, run, inspect,
dump, add, del, trail, bench. Exit codes: 0 success, 1 usage error,
2 validation error, 3 runtime or application failure, 4 corruption.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
import tempfile
from contextlib import nullcontext, redirect_stdout, suppress
from pathlib import Path
from typing import IO, Any, Callable, Iterator

from .archive import _read_scanned
from .bench import bench_space, bench_time, bench_transfer
from .errors import BoxiError, IoError
from .image import (
    ARCH_NAMES,
    DATATYPE_NAMES,
    FORMAT_VERSION,
    FSTYPE_NAMES,
    PARTTYPE_NAMES,
    BoxImage,
    iso_utc,
    place_file,
)
from .packager import (Recipe, build_app_image, pack_data_dir, pack_empty_output,
                       parse_recipe, utf8_text)
from .provenance import RecordTrail, _trail_payload
from .runtime import MODES, ZERO_COPY, load_workflow, run_workflow, workflow_from_mapping
from .standins import SLEEPER, write_script


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        with redirect_stdout(_Output(sys.stdout)):
            status = args.handler(args)
            sys.stdout.flush()
        return status
    except BoxiError as exc:
        print(f"boxi: {exc}", file=sys.stderr)
        return exc.exit_code


class _Output:
    """A command's output stream, text or its binary buffer, on which a
    failed write or flush, such as to a full disk or a closed pipe, raises
    IoError."""

    def __init__(self, stream: IO) -> None:
        self._stream = stream

    @property
    def buffer(self) -> "_Output":
        return _Output(self._stream.buffer)

    def write(self, data: str | bytes) -> int:
        written = self._checked(self._stream.write, data)
        while written < len(data):  # a buffered write stops short when its next write fails
            written += self._checked(self._stream.write, data[written:])
        return written

    def flush(self) -> None:
        self._checked(self._stream.flush)

    def _checked(self, call: Callable[..., Any], *args: object) -> Any:
        try:
            return call(*args)
        except OSError as exc:
            # Python flushes the stream again at exit; let what it still
            # holds go to /dev/null, as the signal module's SIGPIPE note advises.
            with suppress(OSError, ValueError), open(os.devnull, "wb") as devnull:
                os.dup2(devnull.fileno(), self._stream.fileno())
            raise IoError(f"cannot write output: {exc}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boxi",
        description="Partitioned single-file workflow images with record trails.")
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("pack", help="encapsulate a directory as a data image")
    sub.add_argument("dir", help="directory to pack")
    sub.add_argument("image", help="image file to create")
    sub.set_defaults(handler=_cmd_pack)

    sub = commands.add_parser("new-output", help="create an empty output image")
    sub.add_argument("name", help="name of the empty directory inside the image")
    sub.add_argument("image", help="image file to create")
    sub.set_defaults(handler=_cmd_new_output)

    sub = commands.add_parser("build", help="build an application image from a recipe")
    sub.add_argument("recipe", help="recipe file")
    sub.add_argument("image", help="image file to create")
    sub.set_defaults(handler=_cmd_build)

    sub = commands.add_parser("run", help="execute a workflow and attach trails")
    sub.add_argument("workflow", help="workflow JSON file")
    sub.add_argument("--mode", choices=MODES, default=ZERO_COPY)
    sub.add_argument("--no-trail", action="store_true",
                     help="skip attaching record trails to outputs")
    sub.add_argument("--json", action="store_true",
                     help="print one JSON document instead of text")
    sub.set_defaults(handler=_cmd_run)

    sub = commands.add_parser("inspect", help="show an image's header and partitions")
    sub.add_argument("image")
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(handler=_cmd_inspect)

    sub = commands.add_parser("dump", help="write a partition payload to a file")
    sub.add_argument("image")
    sub.add_argument("id", type=int, help="partition id")
    sub.add_argument("dest", help="destination file, or - for stdout")
    sub.set_defaults(handler=_cmd_dump)

    sub = commands.add_parser("add", help="add a partition from a payload file")
    sub.add_argument("image")
    sub.add_argument("payload", help="file holding the partition payload")
    sub.add_argument("--datatype", type=int, required=True)
    sub.add_argument("--partfs", "--fstype", dest="partfs", type=int, required=True)
    sub.add_argument("--parttype", type=int, required=True)
    sub.add_argument("--partarch", "--arch", dest="partarch", type=int, required=True)
    sub.add_argument("--name", help="partition name (default: payload file stem)")
    sub.set_defaults(handler=_cmd_add)

    sub = commands.add_parser("del", help="delete a partition")
    sub.add_argument("image")
    sub.add_argument("id", type=int, help="partition id")
    sub.set_defaults(handler=_cmd_del)

    sub = commands.add_parser("trail", help="print the record trail of an image")
    sub.add_argument("image")
    style = sub.add_mutually_exclusive_group()
    style.add_argument("--json", action="store_true",
                       help="print the stored payload byte for byte")
    style.add_argument("--table", action="store_true", help="print an aligned table")
    sub.set_defaults(handler=_cmd_trail)

    bench = commands.add_parser("bench", help="cost measurements")
    kinds = bench.add_subparsers(dest="bench_kind", required=True)

    sub = kinds.add_parser("time", help="native vs containerized wall clock")
    sub.add_argument("--compute-seconds", type=float, default=0.1,
                     help="stand-in computation length per run")
    sub.add_argument("--reps", type=_at_least(2), default=20)
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(handler=_cmd_bench_time)

    sub = kinds.add_parser("space", help="image size vs raw content size")
    sub.add_argument("workflow", help="workflow JSON file listing the images")
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(handler=_cmd_bench_space)

    sub = kinds.add_parser("transfer", help="zero-copy vs two-copy transfer")
    sub.add_argument("--size", type=_at_least(1), default=100 * 1024 * 1024,
                     help="synthetic payload bytes")
    sub.add_argument("--reps", type=_at_least(1), default=20)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(handler=_cmd_bench_transfer)

    return parser


def _at_least(low: int) -> Callable[[str], int]:
    def integer(text: str) -> int:  # argparse names it: "invalid integer value"
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return integer


# --- packaging commands ---------------------------------------------------------

def _cmd_pack(args: argparse.Namespace) -> int:
    image = pack_data_dir(args.dir, Path(args.image).stem, args.image)
    image.close()
    print(image.uuid)
    return 0


def _cmd_new_output(args: argparse.Namespace) -> int:
    image = pack_empty_output(args.name, Path(args.image).stem, args.image)
    image.close()
    print(image.uuid)
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    recipe_path = Path(args.recipe)
    try:
        raw = recipe_path.read_bytes()
    except OSError as exc:
        raise IoError(f"cannot read recipe {recipe_path}: {exc}") from exc
    recipe = parse_recipe(utf8_text(raw, "recipe"))
    image = build_app_image(recipe, Path(args.image).stem, args.image,
                            source_root=recipe_path.parent)
    image.close()
    print(image.uuid)
    return 0


# --- execution ---------------------------------------------------------------------

def _cmd_run(args: argparse.Namespace) -> int:
    report = run_workflow(load_workflow(args.workflow), args.mode, not args.no_trail)
    if args.json:
        print(json.dumps(report.to_mapping(), indent=2))
    else:
        for record in report.invocations:
            print(f"{record.component_id}: exit {record.exit_status}")
            if record.exit_status != 0:
                for line in record.stderr_tail.splitlines():
                    print(f"    {line}")
        trail_at = {t.component_id: t.partition_id for t in report.trails_attached}
        for write in report.outputs_written:
            note = (f", trail in partition {trail_at[write.component_id]}"
                    if write.component_id in trail_at else "")
            ids = ", ".join(str(p) for p in write.partition_ids)
            print(f"wrote {write.component_id}: partition {ids}{note}")
        print(f"copy events: {report.copy_events}")
    return 3 if any(r.exit_status != 0 for r in report.invocations) else 0


# --- image surgery -------------------------------------------------------------------

def _cmd_inspect(args: argparse.Namespace) -> int:
    with BoxImage.open(args.image) as image:
        file_size = os.fstat(image.fileno()).st_size
    if args.json:
        print(json.dumps({
            "name": image.name,
            "uuid": str(image.uuid),
            "format_version": FORMAT_VERSION,
            "created": iso_utc(image.created_at),
            "modified": iso_utc(image.modified_at),
            "file_size": file_size,
            "partitions": [
                {
                    "id": part.partition_id,
                    "datatype": part.datatype,
                    "fstype": part.fstype,
                    "parttype": part.parttype,
                    "arch": part.arch,
                    "name": part.name,
                    "size": part.payload_size,
                    "sha256": part.checksum.hex(),
                }
                for part in image.partitions
            ],
        }, indent=2))
        return 0
    print(f"name      {image.name}")
    print(f"uuid      {image.uuid}")
    print(f"version   {FORMAT_VERSION}")
    print(f"created   {iso_utc(image.created_at)}")
    print(f"modified  {iso_utc(image.modified_at)}")
    print(f"size      {file_size} bytes")
    print(f"partitions ({len(image.partitions)}):")
    for part in image.partitions:
        kinds = (f"{DATATYPE_NAMES[part.datatype]}/{FSTYPE_NAMES[part.fstype]}/"
                 f"{PARTTYPE_NAMES[part.parttype]}/{ARCH_NAMES[part.arch]}")
        print(f"  {part.partition_id:>3}  {kinds:<44} {part.payload_size:>10}  {part.name}")
    return 0


def _cmd_dump(args: argparse.Namespace) -> int:
    dest = Path(args.dest)
    with BoxImage.open(args.image) as image:
        try:
            if args.dest != "-" and _regular_or_absent(dest):
                chunks = image.stream_partition(args.id)
                with place_file(dest) as (fd, writer):
                    for chunk in chunks:
                        writer.write(chunk)
                os.close(fd)
                return 0
            payload = image.dump_partition(args.id)  # verified whole before a byte is written
            with (nullcontext(sys.stdout.buffer) if args.dest == "-"
                  else open(dest, "wb")) as out:
                out.write(payload)
                out.flush()
        except OSError as exc:
            raise IoError(f"cannot write {args.dest}: {exc}") from exc
    return 0


def _regular_or_absent(path: Path) -> bool:
    """Whether what path names is a regular file, or nothing."""
    try:
        return stat.S_ISREG(os.stat(path).st_mode)
    except FileNotFoundError:
        return True


def _cmd_add(args: argparse.Namespace) -> int:
    payload_path = Path(args.payload)
    try:
        scanned = os.stat(payload_path)
    except OSError as exc:
        raise IoError(f"cannot read payload {payload_path}: {exc}") from exc
    if not stat.S_ISREG(scanned.st_mode):
        raise IoError(f"cannot read payload {payload_path}: not a regular file")
    pieces = _pieces_of(payload_path, Path(os.path.realpath(payload_path)), scanned)
    with BoxImage.open(args.image) as image:
        partition_id = image.add_partition(
            pieces,
            datatype=args.datatype,
            fstype=args.partfs,
            parttype=args.parttype,
            arch=args.partarch,
            name=args.name or payload_path.stem,
        )
    print(partition_id)
    return 0


def _pieces_of(payload_path: Path, resolved: Path, scanned: os.stat_result) -> Iterator[bytes]:
    """The pieces of resolved, the file payload_path names, read as they are
    written, with a scanned file's checks: FileChanged unless it is still the
    file scanned describes, of that size, ending there. A failed read names
    the payload, not the image being rewritten."""
    try:
        yield from _read_scanned(resolved, scanned)
    except OSError as exc:
        raise IoError(f"cannot read payload {payload_path}: {exc}") from exc


def _cmd_del(args: argparse.Namespace) -> int:
    with BoxImage.open(args.image) as image:
        image.delete_partition(args.id)
    return 0


def _cmd_trail(args: argparse.Namespace) -> int:
    with BoxImage.open(args.image) as image:
        payload = _trail_payload(image)
    trail = RecordTrail.from_json(payload)
    if args.json:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()
        return 0
    rows = [(rec.role, rec.name, rec.uuid, rec.created, rec.modified)
            for rec in trail.record_trail]
    headers = ("role", "name", "uuid", "created", "modified")
    widths = [max(len(str(row[col])) for row in rows + [headers])
              for col in range(len(headers))]
    for row in (headers, *rows):
        print("  ".join(str(cell).ljust(width) for cell, width in zip(row, widths)).rstrip())
    print(f"command: {trail.command}")
    print(f"executed_at: {trail.executed_at}")
    print(f"exit_status: {trail.exit_status}")
    return 0


# --- benchmarks -------------------------------------------------------------------------

def _cmd_bench_time(args: argparse.Namespace) -> int:
    with tempfile.TemporaryDirectory(prefix="boxi-bench-") as scratch:
        work = Path(scratch)
        script = write_script(work / "work.py", SLEEPER)
        recipe = Recipe(base="ubuntu:16.04",
                        files=[("work.py", "/work.py")], runscript="work.py")
        build_app_image(recipe, "bench-app", work / "bench-app.boxi",
                        source_root=work).close()
        spec = workflow_from_mapping({
            "label": "bench-time",
            "components": [
                {"id": "app", "role": "application", "image": "bench-app.boxi"},
            ],
            "bindings": [],
            "invocations": [{"app": "app", "argv": [str(args.compute_seconds)]}],
        }, base_dir=work)
        report = bench_time(spec, [[str(script), str(args.compute_seconds)]],
                            args.reps)
    if args.json:
        sys.stdout.write(report.to_json().decode("utf-8"))
    else:
        print(f"samples: {report.samples} interleaved")
        print(f"native median:        {report.median_native_ns / 1e9:.4f} s")
        print(f"containerized median: {report.median_containerized_ns / 1e9:.4f} s")
        print(f"overhead ratio:       {report.overhead_ratio:.4f}")
    return 0


def _cmd_bench_space(args: argparse.Namespace) -> int:
    report = bench_space(load_workflow(args.workflow))
    if args.json:
        sys.stdout.write(report.to_json().decode("utf-8"))
        return 0
    width = max((len(row.label) for row in report.rows), default=5)
    print(f"{'image':<{width}}  {'original':>12}  {'containerized':>13}  {'delta':>8}")
    for row in report.rows:
        print(f"{row.label:<{width}}  {row.original_bytes:>12}  "
              f"{row.containerized_bytes:>13}  {row.delta_bytes:>8}")
    print(f"fixed overhead of an empty data image: {report.fixed_overhead_bytes} bytes")
    return 0


def _cmd_bench_transfer(args: argparse.Namespace) -> int:
    report = bench_transfer(args.size, args.reps, seed=args.seed)
    if args.json:
        sys.stdout.write(report.to_json().decode("utf-8"))
        return 0
    print(f"payload: {report.payload_bytes} bytes, {report.repetitions} reps, "
          f"seed {report.seed}")
    print(f"zero-copy median: {report.median_zero_ns / 1e9:.4f} s "
          f"({report.zero_copy_events} copy events)")
    print(f"two-copy median:  {report.median_two_ns / 1e9:.4f} s "
          f"({report.two_copy_events} copy events)")
    print(f"speed-up: {report.speedup_percent:.2f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
