#!/usr/bin/env python3
"""Regenerate the recorded-output section of EXPERIMENTS.md.

The scorecard header is maintained by hand (it interprets the results);
the recorded output below it is machine-generated from a fresh run of
every experiment and the recorded workload-plan captures.  Run from the
repository root:

    python scripts/regenerate_experiments_md.py           # rewrite
    python scripts/regenerate_experiments_md.py --check   # diff only

``--check`` rewrites nothing: it prints a unified diff and exits 1 when
the recorded output differs from a fresh run.
"""

import argparse
import difflib
import sys
from pathlib import Path

from repro.experiments.report import generate_report

MARKER = "## Recorded output (seed 42 campaign)"


def regenerated(text: str) -> str:
    """``text`` with everything after MARKER replaced by a fresh run."""
    head = text.split(MARKER)[0]
    body = generate_report(title="ignored")
    lines = []
    for line in body.splitlines():
        if line.startswith("# "):
            continue
        lines.append(line.replace("## ", "### ", 1)
                     if line.startswith("## ") else line)
    rendered = "\n".join(lines).strip()
    return head + MARKER + "\n\n" + rendered + "\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="diff against EXPERIMENTS.md; exit 1 on any "
                             "difference, rewrite nothing")
    args = parser.parse_args()
    path = Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"
    text = path.read_text(encoding="utf-8")
    if MARKER not in text:
        raise SystemExit(f"{path} is missing the marker {MARKER!r}")
    fresh = regenerated(text)
    if args.check:
        diff = list(difflib.unified_diff(
            text.splitlines(keepends=True), fresh.splitlines(keepends=True),
            fromfile=f"{path.name} (recorded)",
            tofile=f"{path.name} (regenerated)"))
        if diff:
            sys.stdout.writelines(diff)
            print(f"{path.name}: recorded output is stale "
                  f"({len(diff)} diff lines)")
            return 1
        print(f"{path.name}: recorded output matches a fresh run")
        return 0
    path.write_text(fresh, encoding="utf-8")
    print(f"rewrote {path} ({len(fresh.splitlines())} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
