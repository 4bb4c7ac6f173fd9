"""In-memory span recorder that wraps boxi's public functions from outside.

A span records its name, start and end (perf_counter_ns), the span that
called it, the operation it belongs to, and the process's rchar and wchar
counters at both ends. The counters come from /proc/self/io, which also
accumulates the I/O of children the process has reaped.

The layers are wrapped at the module attribute their callers look up, so
boxi itself is not changed. archive.extract_dir finds decode through the
archive module's globals, which makes its decode a child span. The
runtime's shutil.copytree, shutil.rmtree and subprocess.run are wrapped
through stand-in modules bound into boxi.runtime only, so copies and
deletes elsewhere are not counted.
"""

from __future__ import annotations

import functools
import json
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path


def io_counters() -> tuple[int, int]:
    """(rchar, wchar) of this process and its reaped children."""
    with open("/proc/self/io", "rb") as fh:
        fields = dict(line.split(b": ") for line in fh.read().splitlines())
    return int(fields[b"rchar"]), int(fields[b"wchar"])


class _ModuleProxy:
    """A module whose listed functions are replaced; the rest is forwarded."""

    def __init__(self, module, **replacements):
        self._module = module
        self.__dict__.update(replacements)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """Collects spans while installed; uninstall restores the originals."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []

    # --- wrapping ---------------------------------------------------------

    def _traced(self, func, name: str):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span_id = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            rchar, wchar = io_counters()
            span = {"id": span_id, "parent": parent, "op": self.op, "name": name,
                    "start_ns": time.perf_counter_ns()}
            self.spans.append(span)
            self._stack.append(span_id)
            try:
                return func(*args, **kwargs)
            finally:
                span["end_ns"] = time.perf_counter_ns()
                rchar_end, wchar_end = io_counters()
                span["read_bytes"] = rchar_end - rchar
                span["write_bytes"] = wchar_end - wchar
                self._stack.pop()
        return wrapper

    def _patch_method(self, cls: type, attr: str, name: str) -> None:
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(self._traced(original.__func__, name))
        else:
            replacement = self._traced(original, name)
        self._patches.append((cls, attr, original, replacement))

    def _patch(self, module, attr: str, name: str) -> None:
        """Wrap a function in its module and in every boxi module that
        imported it by name, such as the CLI."""
        original = getattr(module, attr)
        replacement = self._traced(original, name)
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded_name.split(".")[0] == "boxi" and getattr(loaded, attr, None) is original:
                self._patches.append((loaded, attr, original, replacement))

    def add_packager(self) -> "Tracer":
        """Wrap the three packaging entry points."""
        from boxi import packager
        for func in ("pack_data_dir", "build_app_image", "pack_empty_output"):
            self._patch(packager, func, f"packager.{func}")
        return self

    def add_layers(self) -> "Tracer":
        """Wrap every layer an operation passes through."""
        from boxi import archive, image, provenance, runtime
        for method in ("open", "dump_partition", "update_partition", "add_partition"):
            self._patch_method(image.BoxImage, method, f"image.{method}")
        for func in ("decode", "encode_entries", "extract_dir", "scan_dir"):
            self._patch(archive, func, f"archive.{func}")
        for func in ("load_workflow", "plan_mounts", "run_workflow", "zero_copy_transfer"):
            self._patch(runtime, func, f"runtime.{func}")
        for func in ("assemble_record_trail", "attach_metadata"):
            self._patch(provenance, func, f"provenance.{func}")
        self._patches.append((runtime, "shutil", shutil, _ModuleProxy(
            shutil,
            copytree=self._traced(shutil.copytree, "runtime.stage_copy"),
            rmtree=self._traced(shutil.rmtree, "runtime.sandbox_cleanup"))))
        self._patches.append((runtime, "subprocess", subprocess, _ModuleProxy(
            subprocess, run=self._traced(subprocess.run, "runtime.exec"))))
        return self

    def install(self) -> None:
        for owner, attr, _, replacement in self._patches:
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    # --- analysis ---------------------------------------------------------

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def per_op(self) -> dict[int, dict[str, float]]:
        """For each operation: <name>.calls, .self_s, .read_bytes, .write_bytes.

        Self time is a span's duration minus its children's. Byte counts are
        taken across a span, children included, and summed over the
        outermost spans of each name so that nested calls are not counted twice.
        """
        child_ns: dict[int, int] = defaultdict(int)
        for span in self.spans:
            if span["parent"] is not None:
                child_ns[span["parent"]] += span["end_ns"] - span["start_ns"]
        totals: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for span in self.spans:
            row = totals[span["op"]]
            name = span["name"]
            row[f"{name}.calls"] += 1
            row[f"{name}.self_s"] += (span["end_ns"] - span["start_ns"]
                                      - child_ns[span["id"]]) / 1e9
            if not self._nested_in_same_name(span):
                row[f"{name}.read_bytes"] += span["read_bytes"]
                row[f"{name}.write_bytes"] += span["write_bytes"]
        return {op: dict(row) for op, row in totals.items()}

    def setup_seconds(self) -> list[float]:
        """Wall seconds in packager spans, per set-up repetition."""
        per_rep: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span["name"].startswith("packager."):
                per_rep[span["op"]] += (span["end_ns"] - span["start_ns"]) / 1e9
        return [per_rep[rep] for rep in sorted(per_rep)]

    def _ancestors(self, span: dict):
        parent = span["parent"]
        while parent is not None:
            yield self.spans[parent]
            parent = self.spans[parent]["parent"]

    def _nested_in_same_name(self, span: dict) -> bool:
        return any(a["name"] == span["name"] for a in self._ancestors(span))


def median_by_key(rows: list[dict[str, float]], keys: list[str]) -> dict[str, float]:
    """Median of each key over rows; a key missing from a row counts as 0."""
    return {key: statistics.median(row.get(key, 0.0) for row in rows) for key in keys}
