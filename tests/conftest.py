"""Shared fixture factory for workflow tests."""

from __future__ import annotations

import functools
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import boxi
from boxi import standins
from boxi.image import BoxImage
from boxi.packager import Recipe, build_app_image, pack_data_dir, pack_empty_output
from boxi.runtime import WorkflowSpec, workflow_from_mapping


def _grow(path: Path) -> None:
    with open(path, "ab") as fh:
        fh.write(b"!")


def _replace(path: Path) -> None:
    swap = path.with_name(path.name + ".swap")
    swap.write_bytes(path.read_bytes())
    os.replace(swap, path)  # same size, another inode


def _symlink(path: Path) -> None:
    path.unlink()
    path.symlink_to(os.devnull)


# Ways a scanned file can change before it is read into an archive.
FILE_CHANGES = {
    "vanishes": Path.unlink,
    "grows": _grow,
    "is-replaced": _replace,
    "turns-into-a-symlink": _symlink,
}


# setpriv's option that drops, from a child's bounding set, the capabilities
# that let root act on a file whatever its mode or owner says; a non-root
# user has none of them.
_DROP_FILE_OVERRIDES = "--bounding-set=-dac_override,-dac_read_search,-fowner"


@functools.cache
def _setpriv_drops_file_overrides() -> bool:
    return shutil.which("setpriv") is not None and subprocess.run(
        ["setpriv", _DROP_FILE_OVERRIDES, "true"], capture_output=True).returncode == 0


def run_without_file_overrides(snippet: str, *args: str,
                               env: dict[str, str] | None = None) -> subprocess.CompletedProcess:
    """Run a Python snippet, with args as its sys.argv[1:], in a child
    process without CAP_DAC_OVERRIDE, CAP_DAC_READ_SEARCH or CAP_FOWNER, as
    a non-root user runs: under root, through setpriv, which drops them from
    the child's bounding set; otherwise directly. Only the child is
    affected. Skips the test when root cannot drop them."""
    command = [sys.executable, "-c", snippet, *args]
    if os.geteuid() == 0:
        if not _setpriv_drops_file_overrides():
            pytest.skip("setpriv cannot drop the file-override capabilities")
        command = ["setpriv", _DROP_FILE_OVERRIDES, *command]
    src = str(Path(boxi.__file__).parents[1])
    return subprocess.run(command, capture_output=True, text=True, timeout=300,
                          env={**os.environ, **(env or {}), "PYTHONPATH": src})


def open_images(spec: WorkflowSpec) -> dict[str, BoxImage]:
    """Handles to every image a spec names, keyed by path as MountPlan.images is."""
    return {comp.image: BoxImage.open(comp.image) for comp in spec.components}


class Workbench:
    """Builds small images and workflow specs under one directory."""

    def __init__(self, root: Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def app_image(self, source: str = standins.IDENTITY, name: str = "app",
                  script: str = "run.py",
                  env: list[tuple[str, str]] | None = None) -> Path:
        src_dir = self.root / f"src-{name}"
        standins.write_script(src_dir / script, source)
        recipe = Recipe(
            base="ubuntu:16.04",
            files=[(script, f"/{script}")],
            environment=list(env or []),
            runscript=f"/{script}",
        )
        image = build_app_image(recipe, name, self.root / f"{name}.boxi",
                                source_root=src_dir)
        image.close()
        return image.path

    def input_image(self, files: dict[str, bytes], name: str = "input",
                    dir_name: str = "Inputs") -> Path:
        tree = self.root / f"tree-{name}" / dir_name
        tree.mkdir(parents=True)
        for rel, content in files.items():
            target = tree / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(content)
        image = pack_data_dir(tree, name, self.root / f"{name}.boxi")
        image.close()
        return image.path

    def output_image(self, name: str = "output",
                     dir_name: str = "Outputs") -> Path:
        image = pack_empty_output(dir_name, name, self.root / f"{name}.boxi")
        image.close()
        return image.path

    def spec(self, components: list[dict], bindings: list[dict],
             invocations: list[dict], label: str = "wf") -> WorkflowSpec:
        doc = {
            "label": label,
            "components": components,
            "bindings": bindings,
            "invocations": invocations,
        }
        return workflow_from_mapping(doc, base_dir=self.root)

    def identity_spec(self, files: dict[str, bytes] | None = None,
                      label: str = "identity") -> WorkflowSpec:
        """input -> copy app -> output, the smallest complete workflow."""
        self.input_image(files if files is not None else {"a.txt": b"alpha\n"})
        self.app_image(standins.IDENTITY)
        self.output_image()
        return self.spec(
            components=[
                {"id": "in", "role": "input", "image": "input.boxi"},
                {"id": "app", "role": "application", "image": "app.boxi"},
                {"id": "out", "role": "output", "image": "output.boxi"},
            ],
            bindings=[
                {"source": "in:/", "target": "app:/Inputs"},
                {"source": "out:/Outputs", "target": "app:/Outputs"},
            ],
            invocations=[{"app": "app", "argv": ["Inputs", "Outputs/data"]}],
            label=label,
        )


@pytest.fixture
def workbench(tmp_path):
    return Workbench(tmp_path)
