"""Self-contained stand-in applications used by fixtures and benchmarks.

Each constant is the full source of a small python3 program that needs
nothing outside the standard library, so application images stay hermetic.
The plotter fills in for gnuplot; the two regressors fill in for the
k-nearest-neighbour and random-forest programs of the prediction workflow.
All of them are deterministic for a given input tree.
"""

from __future__ import annotations

from pathlib import Path

PLOTTER = '''#!/usr/bin/env python3
"""Render every *.txt data file in a directory as an SVG polyline."""
import sys
from pathlib import Path


def render(points):
    coords = " ".join(f"{x:g},{y:g}" for x, y in points)
    return (
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 100 100">\\n'
        f'  <polyline fill="none" stroke="black" points="{coords}"/>\\n'
        "</svg>\\n"
    )


def main():
    if len(sys.argv) != 3:
        print("usage: plot.py INPUT_DIR OUTPUT_DIR", file=sys.stderr)
        return 2
    src, dst = Path(sys.argv[1]), Path(sys.argv[2])
    for data_file in sorted(src.glob("*.txt")):
        points = []
        for line in data_file.read_text().splitlines():
            fields = line.split()
            if len(fields) >= 2:
                points.append((float(fields[0]), float(fields[1])))
        stem = data_file.stem
        name = "plot" + stem[4:] if stem.startswith("text") else stem + "-plot"
        (dst / (name + ".svg")).write_text(render(points))
    return 0


if __name__ == "__main__":
    sys.exit(main())
'''

NEAREST_NEIGHBOR = '''#!/usr/bin/env python3
"""Predict with the single nearest training row (1-NN regression)."""
import csv
import sys


def rows(path):
    with open(path, newline="") as fh:
        return [[float(cell) for cell in row] for row in csv.reader(fh) if row]


def main():
    if len(sys.argv) != 4:
        print("usage: predict_nn.py TRAIN EVAL OUT", file=sys.stderr)
        return 2
    train, points = rows(sys.argv[1]), rows(sys.argv[2])
    lines = []
    for point in points:
        best = min(train, key=lambda r: sum((a - b) ** 2
                                            for a, b in zip(r[:-1], point)))
        lines.append(f"{best[-1]:.6f}")
    with open(sys.argv[3], "w") as fh:
        fh.write("\\n".join(lines) + "\\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
'''

KNN_MEAN = '''#!/usr/bin/env python3
"""Predict with the mean label of the five nearest training rows."""
import csv
import sys


def rows(path):
    with open(path, newline="") as fh:
        return [[float(cell) for cell in row] for row in csv.reader(fh) if row]


def main():
    if len(sys.argv) != 4:
        print("usage: predict_knn_mean.py TRAIN EVAL OUT", file=sys.stderr)
        return 2
    train, points = rows(sys.argv[1]), rows(sys.argv[2])
    lines = []
    for point in points:
        ranked = sorted(train, key=lambda r: sum((a - b) ** 2
                                                 for a, b in zip(r[:-1], point)))
        nearest = ranked[:5]
        lines.append(f"{sum(r[-1] for r in nearest) / len(nearest):.6f}")
    with open(sys.argv[3], "w") as fh:
        fh.write("\\n".join(lines) + "\\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
'''

IDENTITY = '''#!/usr/bin/env python3
"""Copy the input directory tree into the output directory unchanged."""
import shutil
import sys

if len(sys.argv) != 3:
    print("usage: copy.py SRC_DIR DST_DIR", file=sys.stderr)
    sys.exit(2)
shutil.copytree(sys.argv[1], sys.argv[2], dirs_exist_ok=True)
sys.exit(0)
'''

SLEEPER = '''#!/usr/bin/env python3
"""Stand-in computation: hold the CPU slot for a fixed wall-clock time."""
import sys
import time

time.sleep(float(sys.argv[1]) if len(sys.argv) > 1 else 0.0)
sys.exit(0)
'''

PROBE = '''#!/usr/bin/env python3
"""Exit 0 only if the given path is readable from the working directory."""
import sys
from pathlib import Path

try:
    Path(sys.argv[1]).read_bytes()
except (OSError, IndexError):
    sys.exit(1)
sys.exit(0)
'''

FAILER = '''#!/usr/bin/env python3
"""Write a marker into the output directory, then exit with the given code."""
import sys
from pathlib import Path

if len(sys.argv) > 2:
    Path(sys.argv[2], "before-failure.txt").write_text("written before exit\\n")
code = int(sys.argv[1]) if len(sys.argv) > 1 else 1
print(f"failing with exit {code}", file=sys.stderr)
sys.exit(code)
'''


def write_script(path: Path | str, source: str) -> Path:
    """Write a stand-in program to disk with the executable bit set."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    path.chmod(0o755)
    return path
