#!/usr/bin/env python3
"""Print each end-to-end benchmark metric across the committed BENCH_*.json.

    python3 scripts/bench_trend.py [--root DIR]

Every change that matters for performance commits a BENCH_<n>.json with the
medians of its runs of `perfbench/run.py` (see BENCHMARK.json), measured at
its parent commit and at the change itself:

    {"workloads": {"<workload>": {"parent": {"<metric>": median, ...},
                                  "change": {"<metric>": median, ...}}}, ...}

For every workload and every end-to-end metric named in BENCHMARK.json this
prints one row per file, in order of <n>: the parent median, the change
median and their ratio.  Files without a "workloads" object (such as the
Google Benchmark pins in BENCH_baseline.json) are listed as skipped.

Only the Python standard library is used.
"""

import argparse
import json
import re
import sys
from pathlib import Path


def bench_files(root):
    """BENCH_<n>.json in numeric order of <n>, then any others by name."""
    def key(path):
        m = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
        return (0, int(m.group(1)), "") if m else (1, 0, path.name)
    return sorted(root.glob("BENCH_*.json"), key=key)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent)
    args = parser.parse_args()

    spec = json.loads((args.root / "BENCHMARK.json").read_text())
    metrics = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    workloads = [w["name"] for w in spec["workloads"]]

    rows = {}  # (workload, metric) -> [(file, parent, change)]
    for path in bench_files(args.root):
        data = json.loads(path.read_text())
        if "workloads" not in data:
            print(f"skipped {path.name}: no per-workload medians")
            continue
        for workload, sides in data["workloads"].items():
            for name, _, _ in metrics:
                parent = sides.get("parent", {}).get(name)
                change = sides.get("change", {}).get(name)
                if parent is None and change is None:
                    continue
                rows.setdefault((workload, name), []).append(
                    (path.stem, parent, change))

    if not rows:
        print("no BENCH_<n>.json with per-workload medians found")
        return 1
    fmt = "{:<18} {:>12} {:>12} {:>8}"
    for workload in workloads + sorted({w for w, _ in rows} - set(workloads)):
        print(f"\n== {workload}")
        for name, unit, better in metrics:
            entries = rows.get((workload, name))
            if not entries:
                continue
            print(f"{name} ({unit}, {better} is better)")
            print("  " + fmt.format("file", "parent", "change", "ratio"))
            for stem, parent, change in entries:
                ratio = (f"{change / parent:.3f}"
                         if parent and change is not None else "-")
                print("  " + fmt.format(
                    stem,
                    "-" if parent is None else f"{parent:.4g}",
                    "-" if change is None else f"{change:.4g}",
                    ratio))
    return 0


if __name__ == "__main__":
    sys.exit(main())
