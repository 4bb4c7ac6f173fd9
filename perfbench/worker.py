"""Run one workload's operations in a fresh process and record each one.

Started by run.py after set-up, with the path of a JSON config as its only
argument. A fresh process makes its peak RSS that of the operations alone.
It warms up, then runs operations in a closed loop (one client, no think
time) until the measured time is spent. Around each operation it records
wall time, its own CPU time, and the rchar and wchar deltas of
/proc/self/io, which include the application subprocesses it reaped. Every
output is checked after its operation, outside the timed region. In a
traced run, traced and untraced operations alternate, so the difference of
their medians is the tracing overhead. Results go to the config's result
path as JSON.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def main(config_path: str) -> int:
    config = json.loads(Path(config_path).read_text())
    sys.path.insert(0, config["src"])
    import workloads
    from tracing import Tracer, io_counters

    workload = workloads.make(config["workload"], config["seed"])
    expected = workload.expect(Path(config["root"]), Path(config["data_dir"]))
    tracer = Tracer().add_layers() if config["trace"] else None

    def run_one(index: int, traced: bool) -> dict:
        if traced:
            tracer.op = index
            tracer.install()
        rchar, wchar = io_counters()
        cpu = time.process_time()
        started = time.perf_counter()
        try:
            facts = workload.op(expected)
            error = None
        except Exception:  # an operation that raises counts as failed
            facts, error = None, traceback.format_exc(limit=3)
        finally:
            wall = time.perf_counter() - started
            cpu = time.process_time() - cpu
            rchar_end, wchar_end = io_counters()
            if traced:
                tracer.uninstall()
        sample = {"traced": traced, "wall_s": wall, "cpu_s": cpu,
                  "read_bytes": rchar_end - rchar, "write_bytes": wchar_end - wchar}
        if facts is not None:
            try:
                sample["stored_overhead_bytes"] = workload.check(expected, facts)
                sample.update(copy_events=sum(facts["copy_events"]),
                              exec_s=facts["exec_ns"] / 1e9)
            except Exception:  # a wrong or unreadable output counts as failed
                error = traceback.format_exc(limit=3)
        if error is not None:
            sample["error"] = error
            print(f"perfbench: operation {index} failed:\n{error}", file=sys.stderr)
        return sample

    warmup = [run_one(-1 - i, False) for i in range(config["warmup"])]
    samples: list[dict] = []
    deadline = time.monotonic() + config["seconds"]
    while len(samples) < config["min_ops"] or (
            time.monotonic() < deadline and len(samples) < config["max_ops"]):
        index = len(samples)
        samples.append(run_one(index, tracer is not None and index % 2 == 0))

    layers = {}
    if tracer is not None:
        tracer.write(Path(config["spans_path"]))
        layers = {str(op): row for op, row in tracer.per_op().items()}
    Path(config["result_path"]).write_text(json.dumps({
        "warmup": warmup,
        "samples": samples,
        "layers": layers,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "payload_bytes": expected["payload_bytes"],
        "files": expected["files"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
