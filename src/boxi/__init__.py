"""Partitioned single-file workflow images with record trails.

Workflow components (input data, applications, outputs) live in individual
image files, get connected through declared bindings, run in a sandbox, and
every written output ends up carrying a metadata partition describing
exactly which components produced it.
"""

from .archive import ArchiveEntry, decode, encode_entries, extract_dir
from .bench import (
    EMPTY_DATA_IMAGE_BYTES,
    SpaceOverheadReport,
    TimeOverheadReport,
    TransferReport,
    bench_space,
    bench_time,
    bench_transfer,
    make_synthetic_tree,
)
from .errors import BoxiError
from .image import BoxImage, NewPartition, PartitionDescriptor
from .packager import (
    Recipe,
    SoftwareManifest,
    build_app_image,
    pack_data_dir,
    pack_empty_output,
    parse_recipe,
)
from .provenance import (
    ComponentRecord,
    RecordTrail,
    assemble_record_trail,
    attach_metadata,
    capture_static_metadata,
    read_trail,
)
from .runtime import (
    Binding,
    Component,
    ExecutionReport,
    Invocation,
    MountPlan,
    WorkflowSpec,
    load_workflow,
    plan_mounts,
    run_workflow,
    two_copy_transfer,
    validate_spec,
    workflow_from_mapping,
    zero_copy_transfer,
)

__version__ = "0.1.0"

__all__ = [
    "ArchiveEntry", "decode", "encode_entries", "extract_dir",
    "EMPTY_DATA_IMAGE_BYTES", "SpaceOverheadReport", "TimeOverheadReport",
    "TransferReport", "bench_space", "bench_time", "bench_transfer",
    "make_synthetic_tree",
    "BoxiError",
    "BoxImage", "NewPartition", "PartitionDescriptor",
    "Recipe", "SoftwareManifest", "build_app_image", "pack_data_dir",
    "pack_empty_output", "parse_recipe",
    "ComponentRecord", "RecordTrail", "assemble_record_trail",
    "attach_metadata", "capture_static_metadata", "read_trail",
    "Binding", "Component", "ExecutionReport", "Invocation", "MountPlan",
    "WorkflowSpec", "load_workflow", "plan_mounts", "run_workflow",
    "two_copy_transfer", "validate_spec", "workflow_from_mapping",
    "zero_copy_transfer",
    "__version__",
]
