#!/usr/bin/env python3
"""Non-test lines of code in crates/*/src, the size metric tracked next to
throughput.

A line counts when it is neither blank nor a `//` comment (doc comments
included) and comes before the file's first `#[cfg(test)]`. Prints one
line per crate and the total; with $GITHUB_STEP_SUMMARY set, also appends
a Markdown table there.

    python3 ci/nontest_loc.py
"""

import os
from pathlib import Path

root = Path(__file__).resolve().parent.parent
per_crate = {}
for path in sorted(root.glob("crates/*/src/**/*.rs")):
    count = 0
    for line in path.read_text().splitlines():
        line = line.strip()
        if line.startswith("#[cfg(test)]"):
            break
        if line and not line.startswith("//"):
            count += 1
    crate = path.relative_to(root).parts[1]
    per_crate[crate] = per_crate.get(crate, 0) + count
total = sum(per_crate.values())

for crate, count in per_crate.items():
    print(f"{crate:10} {count:6}")
print(f"{'total':10} {total:6}")

summary = os.environ.get("GITHUB_STEP_SUMMARY")
if summary:
    with open(summary, "a") as out:
        out.write("### Non-test lines in crates/*/src\n\n| crate | lines |\n|---|---:|\n")
        for crate, count in per_crate.items():
            out.write(f"| {crate} | {count} |\n")
        out.write(f"| **total** | **{total}** |\n")
