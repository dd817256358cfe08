#!/usr/bin/env python3
"""Print non-test source lines per crate and in total.

Usage:
  nontest_loc.py [REPO_ROOT]

For every `crates/*/src/**/*.rs` file, count the lines before the
file's first top-level `#[cfg(test)]` (one starting in column 0; all
lines when it has none): unit tests sit at the bottom of each file in
this workspace, so what precedes them is the crate's shipped code,
docs and comments included. An indented `#[cfg(test)]` gates a single
item inside shipped code and does not end the count. A file that is
all tests but carries no marker of its own (`crates/parser/src/tests.rs`)
counts in full; the rule stays one line of logic.

The output is informational: one `<crate> <lines>` row per crate in
name order, then `total <lines>`.
"""

import pathlib
import sys


def nontest_lines(path: pathlib.Path) -> int:
    count = 0
    with path.open(encoding="utf-8") as f:
        for line in f:
            if line.startswith("#[cfg(test)]"):
                break
            count += 1
    return count


def main() -> int:
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".")
    per_crate = {}
    for src in sorted(root.glob("crates/*/src")):
        per_crate[src.parent.name] = sum(nontest_lines(p) for p in src.rglob("*.rs"))
    if not per_crate:
        print(f"no crates/*/src under {root}", file=sys.stderr)
        return 1
    width = max(len(name) for name in per_crate)
    for name, lines in per_crate.items():
        print(f"{name:<{width}} {lines:>7,}")
    print(f"{'total':<{width}} {sum(per_crate.values()):>7,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
