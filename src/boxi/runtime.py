"""Connect images through bindings, execute applications, write back results.

A workflow declares components (input, application, output), bindings that
make a directory of one component visible inside another, and invocations
of applications. plan_mounts opens each image once and compiles the
workflow into a MountPlan of steps that name their partitions; one
executor runs any plan in a throwaway run directory. Each writable mount
is an empty spot in its view, and the two modes differ in the steps they
emit around it:

  zero-copy   materialize each readable partition once into a shared
              directory and link every view to it; repack each spot.

  two-copy    stage the readable partition and copy-in its bound subtree;
              copy-out each spot to staging after the exec, then repack.

A copy event is one materialize, splice, stage, copy-in, copy-out or repack
step: 2 per input-to-output path in zero-copy, 4 in two-copy. A repack
grafts the tree it packs under the bound inner path of its partition and
keeps the rest (archive.graft), so both modes produce identical output
bytes. An application that writes into a readable mount fails the run with
SandboxError in both modes, before anything is repacked: in zero-copy the
next view would see the change. The direct transfers are plans of the same
steps with no application: the zero-copy one is a splice and a repack, so
its run directory stays empty, and the two-copy one stages through
directories. The run directory is created under the BOXI_SANDBOX
environment variable's directory, or under the system temp directory when
it is unset, and is always removed at the end, even with a directory in it
that lacks its write bit (_open_up). An application's stderr goes to an
unnamed file there, and only its tail is read back.

No payload or tree is held whole. Every view, materialize and stage
writes its tree as the partition streams through its checksum; if the
stream or the archive is bad, even in its last chunk, the half-written
tree is removed and the run fails before the exec that would read it.
Repacks run after every exec, so the report is complete before any output
is committed, but for trails_attached. Each output is then one graft and
one commit: the output's old payload is streamed through its checksum,
keeping only the entries outside the bound subtree, and its new data
partition is encoded straight into the image file, each scanned file read
as it is encoded. A file that changed since its scan fails the commit with
FileChanged, and the image keeps its bytes. A run with trails has
provenance.attach_metadata store the output's record trail, assembled from
the report and the plan's images, in that commit; the id of its metadata
partition, checked before any application runs, goes to trails_attached.
"""

from __future__ import annotations

import graphlib
import json
import os
import shutil
import subprocess
import tempfile
import time
import uuid as uuidlib
from contextlib import suppress
from dataclasses import dataclass, field
from pathlib import Path

from . import archive
from .document import Document
from .errors import (
    BoxiError,
    ConflictingWrites,
    CyclicBinding,
    InvalidName,
    InvalidWorkflowSpec,
    IoError,
    MalformedArchive,
    NoRunscript,
    SandboxError,
    UnknownComponent,
    WrongPartitionType,
)
from .image import BoxImage, PART_DATA, PART_SYSTEM_PRIMARY
from .packager import MANIFEST_PATH, SoftwareManifest
from .provenance import (ROLE_APPLICATION, ROLE_OUTPUT, ROLES, assemble_record_trail,
                         attach_metadata)

ZERO_COPY = "zero-copy"
TWO_COPY = "two-copy"
MODES = (ZERO_COPY, TWO_COPY)

SANDBOX_ENV = "BOXI_SANDBOX"
# An invocation record keeps this many characters of its stderr's end.
STDERR_TAIL_CHARS = 2000


# --- workflow documents --------------------------------------------------------

@dataclass(frozen=True)
class Component:
    id: str
    role: str
    image: str


@dataclass(frozen=True)
class Binding:
    """source's tree at source_path appears at target_path inside target."""

    source: str
    source_path: str  # normalized inner path, "" means the partition root
    target: str
    target_path: str

    def label(self) -> str:
        return (f"{self.source}:/{self.source_path} -> "
                f"{self.target}:/{self.target_path}")


@dataclass(frozen=True)
class Invocation:
    app: str
    argv: tuple[str, ...]


@dataclass
class WorkflowSpec:
    label: str
    components: list[Component]
    bindings: list[Binding]
    invocations: list[Invocation]

    def component(self, component_id: str) -> Component:
        for comp in self.components:
            if comp.id == component_id:
                return comp
        raise UnknownComponent(f"no component {component_id!r} in {self.label!r}")


def _inner(path: str, what: str,
           error: type[BoxiError] = InvalidWorkflowSpec) -> str:
    """Normalize an inner path; "" or "/" selects the whole tree. Otherwise
    it must be a valid archive entry path once its slashes are stripped."""
    stripped = path.strip("/")
    if stripped:
        try:
            archive._check_path(stripped)
        except MalformedArchive as exc:
            raise error(f"{what}: bad inner path: {exc}") from None
    return stripped


def _endpoint(text: str, what: str) -> tuple[str, str]:
    component, sep, inner = text.partition(":")
    if not sep or not component:
        raise InvalidWorkflowSpec(f"{what} must look like \"id:/path\": {text!r}")
    return component, _inner(inner, what)


def load_workflow(path: Path | str) -> WorkflowSpec:
    """Read a workflow JSON file; image paths resolve against its directory."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise IoError(f"cannot read workflow file {path}: {exc}") from exc
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise InvalidWorkflowSpec(f"{path} is not valid JSON: {exc}") from exc
    return workflow_from_mapping(doc, base_dir=path.parent)


def workflow_from_mapping(doc: object, base_dir: Path | str = ".") -> WorkflowSpec:
    """Build and validate a WorkflowSpec from a parsed JSON document."""
    base_dir = Path(base_dir)
    if not isinstance(doc, dict):
        raise InvalidWorkflowSpec("workflow document must be a JSON object")
    label = _expect_str(doc, "label", "workflow")

    components = []
    for raw in _expect_list(doc, "components"):
        cid, role, image = (_expect_str(raw, key, "component")
                            for key in ("id", "role", "image"))
        components.append(Component(cid, role, str(base_dir / image)))

    bindings = []
    for raw in _expect_list(doc, "bindings"):
        src, src_path = _endpoint(_expect_str(raw, "source", "binding"), "binding source")
        dst, dst_path = _endpoint(_expect_str(raw, "target", "binding"), "binding target")
        bindings.append(Binding(src, src_path, dst, dst_path))

    invocations = []
    for raw in _expect_list(doc, "invocations"):
        app = _expect_str(raw, "app", "invocation")
        argv = raw.get("argv", [])
        if not isinstance(argv, list) or any(
                not isinstance(a, str) or archive._UNSAFE.search(a) for a in argv):
            raise InvalidWorkflowSpec(f"argv of {app!r} must be strings, no NUL or surrogate")
        invocations.append(Invocation(app, tuple(argv)))

    spec = WorkflowSpec(label, components, bindings, invocations)
    validate_spec(spec)
    return spec


def _expect_list(doc: dict, key: str) -> list:
    value = doc.get(key, [])
    if not isinstance(value, list):
        raise InvalidWorkflowSpec(f"{key} must be a list")
    return value


def _expect_str(raw: object, key: str, what: str) -> str:
    if not isinstance(raw, dict):
        raise InvalidWorkflowSpec(f"each {what} must be a JSON object")
    value = raw.get(key)
    if not isinstance(value, str) or not value or archive._UNSAFE.search(value):
        raise InvalidWorkflowSpec(f"{what} needs a non-empty string {key!r}, no NUL or surrogate")
    return value


def validate_spec(spec: WorkflowSpec) -> None:
    """Check the structural rules a workflow must satisfy before planning."""
    if not spec.label:
        raise InvalidWorkflowSpec("workflow label is empty")
    seen_ids: set[str] = set()
    for comp in spec.components:
        if not comp.id or ":" in comp.id:
            raise InvalidWorkflowSpec(f"bad component id {comp.id!r}")
        if comp.id in seen_ids:
            raise InvalidWorkflowSpec(f"duplicate component id {comp.id!r}")
        seen_ids.add(comp.id)
        if comp.role not in ROLES:
            raise InvalidWorkflowSpec(f"component {comp.id!r}: unknown role {comp.role!r}")

    roles = {c.id: c.role for c in spec.components}
    for binding in spec.bindings:
        for endpoint in (binding.source, binding.target):
            if endpoint not in roles:
                raise UnknownComponent(f"binding references undeclared {endpoint!r}")
        if not binding.target_path:
            raise InvalidWorkflowSpec(
                f"binding into {binding.target!r} needs a non-root target path")

    for invocation in spec.invocations:
        if invocation.app not in roles:
            raise UnknownComponent(f"invocation references undeclared {invocation.app!r}")
        if roles[invocation.app] != ROLE_APPLICATION:
            raise InvalidWorkflowSpec(
                f"invocation of {invocation.app!r}: role is {roles[invocation.app]}")

    # target paths inside one application view must not collide or nest
    per_app: dict[str, list[str]] = {}
    for binding in spec.bindings:
        per_app.setdefault(binding.target, []).append(binding.target_path)
    for app, paths in per_app.items():
        paths.sort()
        for first, second in zip(paths, paths[1:]):
            if second == first or second.startswith(first + "/"):
                raise InvalidWorkflowSpec(
                    f"bindings into {app!r} collide at {second!r}")

    _check_acyclic(spec)

    # one writer per output, and an image file no other component names
    try:
        files = [Path(comp.image).resolve() for comp in spec.components]
    except (OSError, RuntimeError) as exc:  # RuntimeError: a symlink loop
        raise InvalidWorkflowSpec(f"cannot resolve an image path: {exc}") from None
    for comp, path in zip(spec.components, files):
        if comp.role != ROLE_OUTPUT:
            continue
        if files.count(path) > 1:
            raise InvalidWorkflowSpec(f"output {comp.id!r} shares its image file {comp.image!r}")
        writers = sum(b.target == invocation.app for b in spec.bindings
                      if b.source == comp.id for invocation in spec.invocations)
        if writers > 1:
            raise ConflictingWrites(
                f"output {comp.id!r} would be written by {writers} invocations")


def _check_acyclic(spec: WorkflowSpec) -> None:
    sorter = graphlib.TopologicalSorter()
    for binding in spec.bindings:
        sorter.add(binding.target, binding.source)
    try:
        sorter.prepare()
    except graphlib.CycleError as exc:
        raise CyclicBinding(f"binding cycle {' -> '.join(exc.args[1])}") from None


# --- planning -------------------------------------------------------------------

VIEW = "view"
MATERIALIZE = "materialize"
SPLICE = "splice"
STAGE = "stage"
SPOT = "spot"
LINK = "link"
COPY_IN = "copy-in"
EXEC = "exec"
COPY_OUT = "copy-out"
REPACK = "repack"
COPY_STEPS = (MATERIALIZE, SPLICE, STAGE, COPY_IN, COPY_OUT, REPACK)


@dataclass(frozen=True)
class Step:
    """One instruction of a plan; src and dst are relative to the run directory.

      view         unpack partition_id, the primary one, of image into dst
      materialize  unpack partition_id of image into the shared directory dst,
                   which a link reads
      splice       read the headers of partition_id of image and keep its
                   entries under dst, unpacked nowhere: the repack whose src
                   is dst streams their verified contents into its commit
      stage        unpack partition_id of image into the staging directory dst
      spot         create the empty writable directory dst
      link         point the symlink dst at the directory inner under src
      copy-in      copy the directory inner under src to dst
      exec         run application component in its view dst with argv
      copy-out     copy the directory inner under src to dst
      repack       replace the subtree inner of partition_id of image with src

    An unpack (view, materialize, stage) writes each file as the partition
    streams through its checksum, and leaves no tree at dst if the
    partition or its archive turns out bad.
    """

    op: str
    component: str          # the bound source, the application, or the output
    image: str = ""
    partition_id: int = 0
    src: str = ""
    dst: str = ""
    inner: str = ""
    argv: tuple[str, ...] = ()


@dataclass(frozen=True)
class MountPlan:
    """The program of one run: its steps in order and the images they name, by path."""

    label: str
    mode: str
    steps: tuple[Step, ...]
    bindings_used: tuple[str, ...]
    images: dict[str, BoxImage]

    @property
    def copy_events(self) -> int:
        """Whole-payload copies: materialize, splice, stage, copy-in, copy-out, repack."""
        return sum(step.op in COPY_STEPS for step in self.steps)


def _backing_partition(image: BoxImage, role: str) -> int:
    """Pick the partition a component exposes: data for data components,
    the primary system partition for applications."""
    wanted = PART_SYSTEM_PRIMARY if role == ROLE_APPLICATION else PART_DATA
    found = image.find(parttype=wanted)
    if len(found) != 1:
        kind = "primary" if role == ROLE_APPLICATION else "data"
        raise WrongPartitionType(
            f"{image.name}: expected exactly one {kind} partition, found {len(found)}")
    return found[0].partition_id


def plan_mounts(spec: WorkflowSpec, mode: str = ZERO_COPY) -> MountPlan:
    """Compile a workflow into the steps that run it in the given mode; each
    image they name is opened once, and each partition picked, before any app runs."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    validate_spec(spec)

    images: dict[str, BoxImage] = {}

    def backing(comp: Component) -> int:
        if comp.image not in images:
            images[comp.image] = BoxImage.open(comp.image)
        return _backing_partition(images[comp.image], comp.role)

    steps: list[Step] = []
    repacks: list[Step] = []
    shared: dict[str, str] = {}     # zero-copy: readable component -> its directory
    staged = 0
    for index, invocation in enumerate(spec.invocations):
        app = spec.component(invocation.app)
        view = f"views/{index}"
        steps.append(Step(VIEW, app.id, app.image, backing(app), dst=view))
        copy_outs: list[Step] = []
        for binding in sorted((b for b in spec.bindings if b.target == app.id),
                              key=lambda b: b.target_path):
            source = spec.component(binding.source)
            pid = backing(source)
            spot = f"{view}/{binding.target_path}"
            if source.role == ROLE_OUTPUT:
                # validate_spec lets one invocation write an output: no shared spot
                steps.append(Step(SPOT, source.id, dst=spot))
                result = spot
                if mode == TWO_COPY:
                    result = f"staging/{staged}"
                    staged += 1
                    copy_outs.append(Step(COPY_OUT, app.id, src=view, dst=result,
                                          inner=binding.target_path))
                repacks.append(Step(REPACK, source.id, source.image, pid,
                                    src=result, inner=binding.source_path))
            elif mode == ZERO_COPY:
                if source.id not in shared:
                    shared[source.id] = f"shared/{len(shared)}"
                    steps.append(Step(MATERIALIZE, source.id, source.image, pid,
                                      dst=shared[source.id]))
                steps.append(Step(LINK, source.id, src=shared[source.id], dst=spot,
                                  inner=binding.source_path))
            else:
                stage = f"staging/{staged}"
                staged += 1
                steps.append(Step(STAGE, source.id, source.image, pid, dst=stage))
                steps.append(Step(COPY_IN, source.id, src=stage, dst=spot,
                                  inner=binding.source_path))
        steps.append(Step(EXEC, app.id, dst=view, argv=invocation.argv))
        steps.extend(copy_outs)

    used = tuple(b.label() for invocation in spec.invocations
                 for b in spec.bindings if b.target == invocation.app)
    return MountPlan(spec.label, mode, (*steps, *repacks), used, images)


# --- execution --------------------------------------------------------------------

@dataclass(frozen=True)
class InvocationRecord:
    """What actually ran: the runscript-relative argv, wall time, exit status."""

    component_id: str
    argv: tuple[str, ...]
    started_ns: int
    finished_ns: int
    exit_status: int
    stderr_tail: str = ""


@dataclass(frozen=True)
class OutputWrite:
    component_id: str
    partition_ids: tuple[int, ...]


@dataclass(frozen=True)
class TrailWrite:
    component_id: str
    partition_id: int


@dataclass
class ExecutionReport(Document):
    label: str
    mode: str
    invocations: list[InvocationRecord]
    copy_events: int
    outputs_written: list[OutputWrite]
    bindings_used: list[str]
    trails_attached: list[TrailWrite] = field(default_factory=list)


def _make_run_dir() -> Path:
    base = Path(os.environ.get(SANDBOX_ENV) or tempfile.gettempdir())
    # Absolute, because runscripts are executed by path with cwd set to the view.
    run_dir = base.absolute() / f"boxi-run-{uuidlib.uuid4().hex[:12]}"
    try:
        run_dir.mkdir(parents=True, exist_ok=False)
    except OSError as exc:
        raise SandboxError(f"cannot create sandbox at {run_dir}: {exc}") from exc
    return run_dir


def _snapshot(root: Path) -> list[tuple[str, int, int, int, int]]:
    """Path, mode, size, mtime and inode of root and of every entry under it.

    No file is read: a write changes the size, mtime or inode of what it
    touches, or the mtime of the directory it adds to or removes from.
    """
    try:
        top = root.stat()  # follows a link mount to its shared directory
    except OSError:
        return []
    found = [(str(root), top.st_mode, top.st_size, top.st_mtime_ns, top.st_ino)]
    for dirpath, dirnames, filenames in os.walk(root):
        for name in dirnames + filenames:
            path = os.path.join(dirpath, name)
            entry = os.lstat(path)
            found.append((path, entry.st_mode, entry.st_size,
                          entry.st_mtime_ns, entry.st_ino))
    return sorted(found)


def _execute(view: Path, app_id: str, argv: tuple[str, ...],
             run_dir: Path) -> InvocationRecord:
    """Run an application's runscript in its view. Its stderr goes to an
    unnamed file in run_dir, of which only the last STDERR_TAIL_CHARS
    characters are read back, so a noisy application costs no memory."""
    manifest_file = view / MANIFEST_PATH
    if not manifest_file.is_file():
        raise NoRunscript(f"application {app_id!r} ships no {MANIFEST_PATH}")
    manifest = SoftwareManifest.from_json(manifest_file.read_bytes())
    script = view / manifest.runscript
    if not script.is_file():
        raise NoRunscript(f"application {app_id!r}: runscript {manifest.runscript!r} missing")
    if not os.access(script, os.X_OK):
        raise NoRunscript(f"application {app_id!r}: runscript is not executable")
    env = dict(os.environ)
    env.update(manifest.environment)
    started = time.time_ns()
    try:
        with tempfile.TemporaryFile(dir=run_dir) as stderr:
            proc = subprocess.run(
                [str(script), *argv],
                cwd=view, env=env,
                stdout=subprocess.DEVNULL, stderr=stderr,
            )
            finished = time.time_ns()
            # A character is at most 4 bytes, and UTF-8 decoding falls back
            # into step within 3, so these bytes end in the same characters
            # as the whole stream.
            size = stderr.seek(0, os.SEEK_END)
            stderr.seek(max(0, size - 4 * STDERR_TAIL_CHARS - 3))
            tail = stderr.read().decode("utf-8", errors="replace")[-STDERR_TAIL_CHARS:]
    except OSError as exc:
        raise SandboxError(f"cannot execute {script}: {exc}") from exc
    return InvocationRecord(
        component_id=app_id,
        argv=(manifest.runscript, *argv),
        started_ns=started,
        finished_ns=finished,
        exit_status=proc.returncode,
        stderr_tail=tail,
    )


def _run_plan(plan: MountPlan, spec: WorkflowSpec | None = None) -> ExecutionReport:
    """Run every step of a plan in a fresh run directory, removed at the end.

    The steps read and write only the plan's images, which are closed at
    the end. A view, materialize or stage step extracts its partition's
    stream, so a bad partition fails that step, leaving no tree, before any
    later exec. A splice step reads its partition's headers and keeps the
    entries under its dst; the repack whose src is that dst packs them,
    reading the partition's verified stream inside the commit, and any other
    repack scans its directory. Repack steps run last, each output's through
    one graft of its old payload's stream and one commit, which also stores
    the output's trail for spec when one is given; each output's trail
    partition id is checked before anything runs. The link and copy-in
    mounts of a view are snapshot before and after its exec; a difference
    raises SandboxError. Otherwise the report is returned even when
    applications exit nonzero; only infrastructure failures raise.
    """
    repacks = [step for step in plan.steps if step.op == REPACK]
    if spec is not None:
        for step in repacks:
            plan.images[step.image].metadata_partition_id()
    run_dir = _make_run_dir()
    records: list[InvocationRecord] = []
    spliced: dict[str, list[archive.ArchiveEntry]] = {}  # splice dst -> its entries
    try:
        for step in plan.steps:
            source, dst = run_dir / step.src / step.inner, run_dir / step.dst
            if step.op in (VIEW, MATERIALIZE, STAGE):
                archive.extract_dir(
                    plan.images[step.image].stream_partition(step.partition_id), dst)
            elif step.op == SPLICE:
                image = plan.images[step.image]
                with image.raw_payload(step.partition_id) as (fd, offset, size):
                    spliced[step.dst] = archive.splice(
                        fd, offset, size, image.stream_partition(step.partition_id))
            elif step.op == EXEC:
                readable = [run_dir / mount.dst for mount in plan.steps
                            if mount.op in (LINK, COPY_IN)
                            and mount.dst.startswith(step.dst + "/")]
                before = [_snapshot(path) for path in readable]
                records.append(_execute(dst, step.component, step.argv, run_dir))
                for path, snapshot in zip(readable, before):
                    if _snapshot(path) != snapshot:
                        raise SandboxError(
                            f"application {step.component!r} wrote into its "
                            f"readable mount /{path.relative_to(dst)}")
            elif step.op != REPACK:
                try:
                    if dst.exists() or dst.is_symlink():
                        raise SandboxError(
                            f"mount point {step.dst} collides with a tree in the sandbox")
                    dst.parent.mkdir(parents=True, exist_ok=True)
                    if step.op == SPOT:
                        dst.mkdir()
                    elif not source.is_dir():
                        raise SandboxError(
                            f"{step.component}: bound path /{step.inner} is not a directory")
                    elif step.op == LINK:
                        os.symlink(source, dst, target_is_directory=True)
                    else:
                        shutil.copytree(source, dst, symlinks=False)
                except OSError as exc:
                    raise SandboxError(f"{step.op} {step.dst}: {exc}") from exc

        for step in repacks:
            if step.src not in spliced and not (run_dir / step.src).is_dir():
                raise SandboxError(f"{step.component}: {step.src} is gone before repack")
        report = ExecutionReport(
            label=plan.label,
            mode=plan.mode,
            invocations=records,
            copy_events=plan.copy_events,
            outputs_written=[OutputWrite(step.component, (step.partition_id,))
                             for step in repacks],
            bindings_used=list(plan.bindings_used),
        )
        for step in repacks:
            image = plan.images[step.image]
            tree = (spliced[step.src] if step.src in spliced
                    else archive.scan_dir(run_dir / step.src))
            # the old payload is verified as it streams; only the kept entries are held
            pieces = archive.encode_pieces(archive.graft(
                image.stream_partition(step.partition_id), step.inner, tree))
            if spec is None:
                image.update_partition(step.partition_id, pieces)
            else:
                trail = assemble_record_trail(spec, report, step.component, plan.images)
                pid = attach_metadata(image, trail, {step.partition_id: pieces})
                report.trails_attached.append(TrailWrite(step.component, pid))
        return report
    finally:
        for image in plan.images.values():
            image.close()
        shutil.rmtree(run_dir, ignore_errors=True)
        if run_dir.exists():  # a directory without write permission kept its entries
            _open_up(run_dir)
            shutil.rmtree(run_dir, ignore_errors=True)


def _open_up(root: Path) -> None:
    """Give root and every directory below it mode 0o700, so that it can be
    removed; a symlink is never followed, wherever it points."""
    stack = [str(root)]
    while stack:
        path = stack.pop()
        with suppress(OSError):
            os.chmod(path, 0o700)
            with os.scandir(path) as entries:
                stack.extend(entry.path for entry in entries
                             if entry.is_dir(follow_symlinks=False))


def run_workflow(spec: WorkflowSpec, mode: str = ZERO_COPY,
                 trail: bool = False) -> ExecutionReport:
    """Execute every invocation, repack written outputs, report what happened.

    Each written output is rewritten once. With trail set, its record
    trail of the images the run opened is its metadata partition in that
    same rewrite, stored by provenance.attach_metadata; an output with no
    partition id left raises NoFreePartitionId before any app runs.

    The report is returned even when applications exit nonzero. Only
    infrastructure failures raise, and so does an application that changes
    a readable mount: SandboxError, before anything is repacked.
    """
    return _run_plan(plan_mounts(spec, mode), spec if trail else None)


# --- direct transfers -----------------------------------------------------------

def _plan_transfer(mode: str, src_image: Path | str, src_partition: int,
                   dst_image: Path | str, dst_inner_path: str) -> MountPlan:
    """Plan moving a data partition's tree under dst_inner_path of the
    destination's data partition."""
    inner = _inner(dst_inner_path, "transfer destination", InvalidName)
    src = BoxImage.open(src_image)
    if src.descriptor(src_partition).parttype != PART_DATA:
        raise WrongPartitionType(
            f"{src.name}: partition {src_partition} is not a data partition")
    dst = BoxImage.open(dst_image)
    dst_pid = _backing_partition(dst, ROLE_OUTPUT)
    if mode == ZERO_COPY:
        moves = (Step(SPLICE, src.name, str(src.path), src_partition, dst="spliced"),)
    else:
        moves = (Step(STAGE, src.name, str(src.path), src_partition, dst="staging/0"),
                 Step(COPY_IN, src.name, src="staging/0", dst="view"),
                 Step(COPY_OUT, src.name, src="view", dst="staging/1"))
    repack = Step(REPACK, dst.name, str(dst.path), dst_pid, src=moves[-1].dst, inner=inner)
    return MountPlan(f"{mode}-transfer", mode, (*moves, repack),
                     (f"{src.name}:{src_partition} -> {dst.name}:/{inner}",),
                     {str(src.path): src, str(dst.path): dst})


def zero_copy_transfer(src_image: Path | str, src_partition: int,
                       dst_image: Path | str, dst_inner_path: str) -> ExecutionReport:
    """Move a data partition's tree under dst_inner_path of the destination.

    A splice step and a repack: no tree is extracted or rescanned and no
    payload is held whole. The splice's header pass over the source learns
    the tree to graft. The repack streams the destination's old payload
    through its checksum, keeping only what lies outside dst_inner_path,
    then reads the source's verified stream into the destination's commit,
    every header checked against that pass. A checksum or structure error
    found partway fails the commit, and the destination keeps its bytes.
    Two copy events, no staging, an empty run directory.
    """
    return _run_plan(_plan_transfer(ZERO_COPY, src_image, src_partition,
                                    dst_image, dst_inner_path))


def two_copy_transfer(src_image: Path | str, src_partition: int,
                      dst_image: Path | str, dst_inner_path: str) -> ExecutionReport:
    """Same result as zero_copy_transfer, staging through host directories.

    Stage, copy into a view, copy back out to staging, repack the
    destination partition: four copy events.
    """
    return _run_plan(_plan_transfer(TWO_COPY, src_image, src_partition,
                                    dst_image, dst_inner_path))
