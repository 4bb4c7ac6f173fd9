"""The benchmark's workloads: seeded inputs, one operation, and its check.

Each workload has five steps. generate writes the seeded input data and is
not timed. pack makes the images with boxi's packager; the benchmark times
it as set-up. expect derives, outside any timed region, what a correct
operation leaves behind. op is the timed operation, and check compares
what it left with that expectation.

Outputs are not reset between operations. From the second operation on,
each one replaces the previous result and its trail, as when a user
reruns a workflow: a workflow run rewrites each output image twice, once
to repack it and once to replace its trail. Warm-up operations come first,
so every measured operation starts from that state.

Operations call boxi the way its users do. The workflow workloads call
`boxi run --json` through cli.main, so the CLI's composition of run,
trail assembly and trail attachment is measured as a whole. The transfer
workload calls runtime.zero_copy_transfer. Both reach the runtime through
module attributes, so the tracer's wrappers see every layer call.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from boxi import cli, packager, runtime, scenarios

import oracle
from oracle import CheckFailed, Entry

MiB = 1 << 20


def _run_cli(workflow: Path, mode: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["run", "--json", "--mode", mode, str(workflow)])
    if code != 0:
        raise CheckFailed(f"boxi run {workflow.parent.name} exited {code}: "
                          f"{err.getvalue()[-500:]}")
    return json.loads(out.getvalue())


def _content_bytes(entries: list[Entry]) -> int:
    return sum(e.size for e in entries if e.digest is not None)


class _Workflow:
    """A document as written to workflow.json, with the runtime's copy rules."""

    def __init__(self, path: Path):
        self.path = path
        doc = json.loads(path.read_text())
        self.roles = {c["id"]: c["role"] for c in doc["components"]}
        self.images = {c["id"]: path.parent / c["image"] for c in doc["components"]}
        self.edges = [(b["source"].partition(":")[0], b["target"].partition(":")[0])
                      for b in doc["bindings"]]
        self.invoked = [inv["app"] for inv in doc["invocations"]]

    def ids(self, role: str) -> list[str]:
        return [cid for cid, r in self.roles.items() if r == role]

    def copy_events(self, mode: str) -> int:
        """Zero-copy: one materialization per read-only source plus one repack
        per written binding. Two-copy: two copies per binding used."""
        read_only, sources, written = 0, set(), 0
        for app in self.invoked:
            for source, target in self.edges:
                if target != app:
                    continue
                if self.roles[source] == "output":
                    written += 1
                else:
                    read_only += 1
                    sources.add(source)
        if mode == "zero-copy":
            return len(sources) + written
        return 2 * (read_only + written)

    def trail_names(self, output_id: str) -> list[list[str]]:
        """[role, image name] of each trail record, in trail order."""
        writers = {t for s, t in self.edges if s == output_id and t in self.invoked}
        inputs = {s for s, t in self.edges if t in writers and self.roles[s] == "input"}
        name = lambda cid: self.images[cid].stem  # noqa: E731
        return ([["input", n] for n in sorted(map(name, inputs))]
                + [["application", n] for n in sorted(map(name, writers))]
                + [["output", name(output_id)]])


class WorkflowWorkload:
    """Workloads that run workflow documents with `boxi run` and attach trails."""

    mode = "zero-copy"

    def workflows(self, root: Path) -> list[Path]:
        raise NotImplementedError

    def check_data(self, output: Path, entries: list[Entry], expected: dict) -> None:
        raise NotImplementedError

    def expect(self, root: Path, data_dir: Path) -> dict:
        flows = [_Workflow(path) for path in self.workflows(root)]
        inputs = [flow.images[cid] for flow in flows for cid in flow.ids("input")]
        input_entries = [e for image in inputs
                         for e in oracle.archive_entries(
                             image, oracle.single(image, oracle.PART_DATA))]
        return {
            "flows": flows,
            "payload_bytes": _content_bytes(input_entries),
            "files": sum(1 for e in input_entries if e.digest is not None),
        }

    def op(self, expected: dict) -> dict:
        docs = [_run_cli(flow.path, self.mode) for flow in expected["flows"]]
        return {
            "copy_events": [doc["copy_events"] for doc in docs],
            "exec_ns": sum(inv["finished_ns"] - inv["started_ns"]
                           for doc in docs for inv in doc["invocations"]),
        }

    def check(self, expected: dict, facts: dict) -> int:
        """Raise CheckFailed on a wrong output; return the stored overhead bytes."""
        overhead = 0
        for flow, events in zip(expected["flows"], facts["copy_events"]):
            if events != flow.copy_events(self.mode):
                raise CheckFailed(f"{flow.path.parent.name}: {events} copy events, "
                                  f"want {flow.copy_events(self.mode)}")
            for output_id in flow.ids("output"):
                output = flow.images[output_id]
                entries = oracle.archive_entries(
                    output, oracle.single(output, oracle.PART_DATA))
                self.check_data(output, entries, expected)
                trail = oracle.trail(output)
                names = [[r["role"], r["name"]] for r in trail["record_trail"]]
                if names != flow.trail_names(output_id):
                    raise CheckFailed(f"{output.name}: trail names {names}, "
                                      f"want {flow.trail_names(output_id)}")
                if trail["exit_status"] != 0:
                    raise CheckFailed(f"{output.name}: trail records exit "
                                      f"{trail['exit_status']}")
                overhead += output.stat().st_size - _content_bytes(entries)
        return overhead


class Scenarios(WorkflowWorkload):
    """One pass over the paper's scenarios 1-4: 8 invocations, 8 outputs."""

    def __init__(self, seed: int):
        self.seed = seed

    def generate(self, data_dir: Path, smoke: bool) -> None:
        """build_scenario draws its data from the seed while it packs."""

    def pack(self, root: Path, data_dir: Path) -> None:
        for number in (1, 2, 3, 4):
            scenarios.build_scenario(number, root / f"scenario{number}", seed=self.seed)

    def workflows(self, root: Path) -> list[Path]:
        return [root / f"scenario{number}" / "workflow.json" for number in (1, 2, 3, 4)]

    def expect(self, root: Path, data_dir: Path) -> dict:
        expected = super().expect(root, data_dir)
        expected["first_run"] = {}
        return expected

    def check_data(self, output: Path, entries: list[Entry], expected: dict) -> None:
        first = expected["first_run"].setdefault(output, entries)
        if entries != first:
            raise CheckFailed(f"{output.name}: payload differs from the first run")
        if not any(e.digest is not None and e.size for e in entries):
            raise CheckFailed(f"{output.name}: no output file written")


class Identity(WorkflowWorkload):
    """The identity workflow over a seeded tree; the output must hold that tree."""

    def __init__(self, mode: str, seed: int, make_tree):
        self.mode, self.seed, self._make_tree = mode, seed, make_tree

    def generate(self, data_dir: Path, smoke: bool) -> None:
        self._make_tree(data_dir, self.seed, smoke)

    def pack(self, root: Path, data_dir: Path) -> None:
        scenarios.build_identity_fixture(root, data_dir)

    def workflows(self, root: Path) -> list[Path]:
        return [root / "workflow.json"]

    def expect(self, root: Path, data_dir: Path) -> dict:
        expected = super().expect(root, data_dir)
        expected["tree"] = oracle.tree_entries(data_dir)
        return expected

    def check_data(self, output: Path, entries: list[Entry], expected: dict) -> None:
        prefix = "Outputs/data/"
        heads = [e.path for e in entries if not e.path.startswith(prefix)]
        tree = [Entry(e.path[len(prefix):], e.mode, e.size, e.digest)
                for e in entries if e.path.startswith(prefix)]
        if heads != ["Outputs", "Outputs/data"] or tree != expected["tree"]:
            raise CheckFailed(f"{output.name}: Outputs/data does not hold the input tree")


class Transfer:
    """One zero-copy transfer of a seeded partition into an output's /Inputs."""

    mode = "zero-copy"

    def __init__(self, seed: int, make_tree):
        self.seed, self._make_tree = seed, make_tree

    def generate(self, data_dir: Path, smoke: bool) -> None:
        self._make_tree(data_dir, self.seed, smoke)

    def pack(self, root: Path, data_dir: Path) -> None:
        root.mkdir(parents=True, exist_ok=True)
        packager.pack_data_dir(data_dir, "transfer-src", root / "transfer-src.boxi").close()
        packager.pack_empty_output("Inputs", "transfer-dst", root / "transfer-dst.boxi").close()

    def expect(self, root: Path, data_dir: Path) -> dict:
        src, dst = root / "transfer-src.boxi", root / "transfer-dst.boxi"
        head = oracle.archive_entries(dst, oracle.single(dst, oracle.PART_DATA))
        tree = oracle.tree_entries(data_dir)
        return {
            "src": src,
            "dst": dst,
            "src_partition": oracle.single(src, oracle.PART_DATA).partition_id,
            "sha256": oracle.canonical_sha256(data_dir, head),
            "payload_bytes": _content_bytes(tree),
            "files": sum(1 for e in tree if e.digest is not None),
        }

    def op(self, expected: dict) -> dict:
        report = runtime.zero_copy_transfer(
            expected["src"], expected["src_partition"], expected["dst"], "/Inputs")
        return {"copy_events": [report.copy_events], "exec_ns": 0}

    def check(self, expected: dict, facts: dict) -> int:
        if facts["copy_events"] != [2]:
            raise CheckFailed(f"{facts['copy_events']} copy events, want [2]")
        dst = expected["dst"]
        parts = oracle.partitions(dst)
        if [p.parttype for p in parts] != [oracle.PART_DATA]:
            raise CheckFailed(f"{dst.name}: partitions {parts}, want one data partition")
        entries = oracle.archive_entries(dst, parts[0])
        if parts[0].checksum.hex() != expected["sha256"]:
            raise CheckFailed(f"{dst.name}: data partition is not the source tree under Inputs/")
        return dst.stat().st_size - _content_bytes(entries)


def _write_files(dest: Path, rng: random.Random, sizes: list[int],
                 names: list[str]) -> None:
    """Write files of the given sizes, in seeded order, under the given names."""
    rng.shuffle(sizes)
    for size, name in zip(sizes, names):
        path = dest / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(rng.randbytes(size))


def blob_tree(files: int, total_bytes: int):
    """files blobs totalling total_bytes, from 1 to 4 parts in size (at most
    3.2 MiB at the sizes used), spread evenly over the folders that
    make_synthetic_tree uses. Unlike make_synthetic_tree, the file count and
    the multiset of sizes and paths do not depend on the seed, so framing
    and per-file costs do not move between seeds; the seed picks the bytes
    and which blob gets which size. A smoke run writes 4 blobs of 1 MiB in all."""
    def make(dest: Path, seed: int, smoke: bool) -> None:
        count, total = (4, MiB) if smoke else (files, total_bytes)
        weights = [1 + 3 * i / (count - 1) for i in range(count)]
        sizes = [int(total * w / sum(weights)) for w in weights]
        sizes[-1] += total - sum(sizes)
        folders = ["", "a/", "b/", "a/deep/"]
        names = [f"{folders[i % 4]}blob{i:04d}.bin" for i in range(count)]
        _write_files(dest, random.Random(seed), sizes, names)
    return make


def small_files(dirs: int, per_dir: int):
    """dirs x per_dir files from 64 B to 2 KiB, evenly spaced in size, with
    fixed-length names (2 x 10 files in a smoke run)."""
    def make(dest: Path, seed: int, smoke: bool) -> None:
        folders, count = (2, 10) if smoke else (dirs, per_dir)
        total = folders * count
        sizes = [64 + (2048 - 64) * i // (total - 1) for i in range(total)]
        names = [f"d{d:02d}/f{f:03d}.dat" for d in range(folders) for f in range(count)]
        _write_files(dest, random.Random(seed), sizes, names)
    return make


def make(name: str, seed: int):
    """The workload called name, drawing its inputs from seed."""
    if name == "scenarios":
        return Scenarios(seed)
    if name == "bulk-run":
        return Identity("zero-copy", seed, blob_tree(32, 64 * MiB))
    if name == "transfer":
        return Transfer(seed, blob_tree(50, 100 * MiB))
    if name == "smallfiles-two-copy":
        return Identity("two-copy", seed, small_files(20, 25))
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("scenarios", "bulk-run", "transfer", "smallfiles-two-copy")
