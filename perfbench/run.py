"""boxi's benchmark: one workload, its set-up, timed operations and checks.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports boxi from src/. It builds
the workload's inputs from the seed under .perfbench_work/ and times the
packager calls that turn them into images, several times over (setup_s).
A fresh worker process then runs the operations for S seconds and checks
every output (worker.py). With --trace 0 it prints the end-to-end metrics,
with --trace 1 the per-layer ones, whose spans it writes to
.perfbench_out/. Human-readable lines come first; the last line is one
JSON object. The exit code is nonzero when an output check failed.

--smoke shrinks every input, sets up once and measures one operation; the
smoke test in this directory uses it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"
MiB = 1 << 20

# Set-ups per run; setup_s is their median. Small workloads pack in
# milliseconds, so they repeat more often.
SETUP_REPS = {"scenarios": 20, "bulk-run": 5, "transfer": 5, "smallfiles-two-copy": 20}
# Operations run, untimed, before measuring; file-system and page-cache
# state settle over the first few operations of a fresh work directory.
WARMUP = {"scenarios": 3, "bulk-run": 2, "transfer": 2, "smallfiles-two-copy": 3}
# Floor on measured operations, so the medians rest on enough samples.
MIN_OPS = 5


def _spec() -> dict:
    return json.loads((CHECKOUT / "BENCHMARK.json").read_text())


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest nearest-rank
    percentile that leaves at least ten samples beyond it. With fewer than
    twenty samples that would fall below the median, so the median rank is
    the floor."""
    ordered = sorted(values)
    rank = max(len(ordered) - 10, (len(ordered) + 1) // 2)
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered) - rank


def fs_type(path: Path) -> str:
    """File-system type of the mount that holds path."""
    best, kind = "", "unknown"
    real = str(path.resolve())
    with open("/proc/self/mountinfo") as fh:
        for line in fh:
            fields = line.split()
            mount, after = fields[4], fields[fields.index("-") + 1]
            if (real == mount or real.startswith(mount.rstrip("/") + "/")) \
                    and len(mount) >= len(best):
                best, kind = mount, after
    return kind


def host_speed() -> float:
    """SHA-256 throughput of this host in MiB/s, median of three passes.

    Printed before and after the operations as context: on a shared host
    it drifts by tens of percent over minutes, and it moves every timing
    metric with it.
    """
    block = bytes(16 * MiB)
    passes = []
    for _ in range(3):
        started = time.perf_counter()
        hashlib.sha256(block).digest()
        passes.append(16 / (time.perf_counter() - started))
    return statistics.median(passes)


def set_up(workload, work: Path, reps: int, trace: bool, smoke: bool):
    """Generate the inputs once, then pack them reps times; keep the last."""
    from tracing import Tracer
    data_dir = work / "data"
    data_dir.mkdir(parents=True)
    workload.generate(data_dir, smoke)
    tracer = Tracer().add_packager()
    if trace:
        tracer.add_layers()
    root = None
    for rep in range(reps):
        if root is not None:
            shutil.rmtree(root)
        root = work / f"setup{rep}"
        tracer.op = rep
        tracer.install()
        try:
            workload.pack(root, data_dir)
        finally:
            tracer.uninstall()
    return root, data_dir, tracer


def run_worker(config: dict, work: Path, timeout: float) -> dict:
    config_path = work / "worker.json"
    config_path.write_text(json.dumps(config))
    env = dict(os.environ, BOXI_SANDBOX=str(work / "sandbox"))
    subprocess.run([sys.executable, str(HERE / "worker.py"), str(config_path)],
                   env=env, check=True, timeout=timeout)
    return json.loads(Path(config["result_path"]).read_text())


def end_to_end(result: dict, setup_s: list[float]) -> dict[str, float]:
    ok = [s for s in result["samples"] if "error" not in s and not s["traced"]]
    value, _, _ = tail([s["wall_s"] for s in ok])
    med = lambda key: statistics.median(s[key] for s in ok)  # noqa: E731
    return {
        "setup_s": statistics.median(setup_s),
        "op_s.p50": med("wall_s"),
        "op_s.tail": value,
        "boxi_cpu_s.p50": med("cpu_s"),
        "read_bytes": med("read_bytes"),
        "write_bytes": med("write_bytes"),
        "peak_rss_mb": result["peak_rss_kib"] / 1024,
        "stored_overhead_bytes": med("stored_overhead_bytes"),
    }


def per_layer(result: dict, setup_tracer, names: list[str]) -> dict[str, float]:
    from tracing import median_by_key
    ok = [s for s in result["samples"] if "error" not in s]
    traced = [s for s in ok if s["traced"]]
    plain = [s for s in ok if not s["traced"]]
    rows = [result["layers"].get(str(i), {})
            for i, s in enumerate(result["samples"]) if s["traced"] and "error" not in s]
    for row, sample in zip(rows, traced):
        row["runtime.exec.s"] = sample["exec_s"]
        row["runtime.copy_events"] = sample["copy_events"]
    metrics = median_by_key(rows, [n for n in names
                                   if not n.startswith(("packager.", "trace.", "boxi."))])
    setup_rows = list(setup_tracer.per_op().values())
    metrics.update(median_by_key(setup_rows, [n for n in names if n.startswith("packager.")]))
    traced_p50 = statistics.median(s["wall_s"] for s in traced)
    metrics["boxi.cpu_s.p50"] = statistics.median(s["cpu_s"] for s in plain)
    metrics["trace.op_s.p50"] = traced_p50
    metrics["trace.overhead_s"] = traced_p50 - statistics.median(s["wall_s"] for s in plain)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "boxi" / "__init__.py").is_file():
        print(f"perfbench: no boxi sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in workloads.NAMES:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2
    spec = _spec()
    trace = bool(args.trace)

    work = CHECKOUT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    spans_path = CHECKOUT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
    try:
        workload = workloads.make(args.workload, args.seed)
        root, data_dir, setup_tracer = set_up(
            workload, work, 1 if args.smoke else SETUP_REPS[args.workload], trace, args.smoke)
        single = 2 if trace else 1
        speed_before = host_speed()
        result = run_worker({
            "src": str(SRC), "workload": args.workload, "seed": args.seed,
            "root": str(root), "data_dir": str(data_dir), "trace": trace,
            "seconds": args.seconds,
            "warmup": 0 if args.smoke else WARMUP[args.workload],
            "min_ops": single if args.smoke else MIN_OPS,
            "max_ops": single if args.smoke else 1_000_000,
            "spans_path": str(spans_path), "result_path": str(work / "result.json"),
        }, work, timeout=args.seconds + 150)
        speed_after = host_speed()
        fs = fs_type(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = result["warmup"] + result["samples"]
    failed = sum(1 for s in ops if "error" in s)
    ok_samples = [s for s in result["samples"] if "error" not in s]
    plain = [s["wall_s"] for s in ok_samples if not s["traced"]]
    context = {
        "workload": args.workload, "mode": workload.mode, "seed": args.seed,
        "trace": args.trace, "smoke": args.smoke,
        "payload_bytes": result["payload_bytes"], "files": result["files"],
        "setup_reps": len(setup_tracer.setup_seconds()),
        "warmup_ops": len(result["warmup"]), "measured_ops": len(result["samples"]),
        "seconds": args.seconds, "work_fs": fs, "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "host_sha256_mib_s": [round(speed_before), round(speed_after)],
    }
    print("context " + json.dumps(context))

    metrics: dict[str, float] = {}
    if plain and (not trace or len(plain) < len(ok_samples)):
        if trace:
            wanted = spec["per_layer"]
            values = per_layer(result, setup_tracer, [m["name"] for m in wanted])
            print(f"spans written to {spans_path.relative_to(CHECKOUT)}")
        else:
            wanted = spec["end_to_end"]
            values = end_to_end(result, setup_tracer.setup_seconds())
        for m in wanted:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
            print(f"{m['name']:<44} {values[m['name']]:>16.6f} {m['unit']}")
        if not trace:
            print(f"{'boxi_cpu_s.p50':<44} {values['boxi_cpu_s.p50']:>16.6f} s "
                  "(not gated; see boxi.cpu_s.p50 in the traced run)")
            _, pct, beyond = tail(plain)
            print(f"op_s.tail is p{pct:.1f} of {len(plain)} operations, {beyond} beyond it")
            print("op_s in order: " + " ".join(f"{v:.3f}" for v in plain))
            print(f"read_bytes and write_bytes are per operation, "
                  f"on a payload of {result['payload_bytes']} bytes")
    error_rate = failed / len(ops)
    print(f"{'error_rate':<44} {error_rate:>16.6f} ratio ({failed} of {len(ops)} failed)")

    correct = failed == 0 and len(metrics) == len(spec["per_layer" if trace else "end_to_end"])
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
