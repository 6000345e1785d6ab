#!/usr/bin/env python3
"""Prints the workspace's production line counts, per crate and in total.

A production line is a line of a `.rs` file under `crates/*/src` or
`src/` that comes before the file's first `#[cfg(test)]`. The count
reports only; it gates nothing.

Usage: python3 scripts/prod_lines.py
"""

import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def production_lines(path):
    lines = 0
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip().startswith("#[cfg(test)]"):
            break
        lines += 1
    return lines


def main():
    sources = {"astra-sim2 (src/)": ROOT / "src"}
    for src in sorted(ROOT.glob("crates/*/src")):
        sources[src.parent.name] = src
    total = 0
    for name, src in sources.items():
        lines = sum(production_lines(p) for p in sorted(src.rglob("*.rs")))
        total += lines
        print(f"{name:<20} {lines:>7}")
    print(f"{'total':<20} {total:>7}")


if __name__ == "__main__":
    main()
