#!/usr/bin/env python3
"""Print line counts (as `wc -l` counts them) of the C++ sources under src/.

    python3 scripts/loc.py [--root DIR]

One row per group of `*.cpp`/`*.hpp` files: the minimpi core (the files
directly in src/minimpi), each subdirectory of src/minimpi, then every other
directory of src/ (mph, util, proto, ...).  Totals follow: all of
src/minimpi, and all of src/.

Only the Python standard library is used.
"""

import argparse
import sys
from pathlib import Path

SUFFIXES = (".cpp", ".hpp")


def lines(path):
    """Newline count of one file, the number `wc -l` prints for it."""
    return path.read_bytes().count(b"\n")


def count(directory, recursive):
    files = directory.rglob("*") if recursive else directory.iterdir()
    picked = [p for p in files if p.is_file() and p.suffix in SUFFIXES]
    return len(picked), sum(lines(p) for p in picked)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=Path(__file__).resolve().parent.parent,
                        type=Path, help="repository root (default: this repo)")
    args = parser.parse_args()
    src = args.root / "src"
    if not src.is_dir():
        sys.exit(f"loc.py: no src/ under {args.root}")

    minimpi = src / "minimpi"
    rows = [("minimpi (core)", count(minimpi, recursive=False))]
    rows += [(f"minimpi/{d.name}", count(d, recursive=True))
             for d in sorted(minimpi.iterdir()) if d.is_dir()]
    rows += [(d.name, count(d, recursive=True))
             for d in sorted(src.iterdir()) if d.is_dir() and d != minimpi]
    rows += [("total src/minimpi", count(minimpi, recursive=True)),
             ("total src", count(src, recursive=True))]

    width = max(len(name) for name, _ in rows)
    print(f"{'directory':<{width}}  {'files':>5}  {'lines':>6}")
    for name, (files, total) in rows:
        print(f"{name:<{width}}  {files:>5}  {total:>6}")


if __name__ == "__main__":
    main()
