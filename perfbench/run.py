#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <null_csv|zoo_sweep> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `perfbench` package (a Cargo
package of its own, with a path dependency on crates/core) into
$CARGO_TARGET_DIR, or .bench_build when that is unset, then runs it. The
last line of standard output is the result: one JSON object with the keys
correct, attempted, failed and metrics. The same result, labelled with the
source it measured, the CPU count and the seed, is appended to
.bench_out/results.jsonl. See perfbench/README.md for the workloads and
metrics.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
WORKLOADS = ("null_csv", "zoo_sweep")


def source_digest():
    """SHA-256 over the sources that were built, so a result names what it measured."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ("crates", "perfbench"):
        files += sorted(
            p
            for p in (ROOT / top).rglob("*")
            if p.is_file() and (p.suffix == ".rs" or p.name == "Cargo.toml")
        )
    for p in files:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
    )
    return done.stdout.strip() or None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        parser.error("--seed must be >= 0 and --seconds in 1..120")

    if not (ROOT / "crates" / "core" / "Cargo.toml").is_file():
        print("perfbench: crates/core is missing; run from a full checkout", file=sys.stderr)
        return 2

    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build")))
    if not target.is_absolute():
        target = ROOT / target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    command = [
        str(target / "release" / "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        print(f"perfbench: exited with {run.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])

    labelled = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "source_digest": source_digest(),
        "nproc": os.cpu_count(),
        "result": result,
    }
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    with open(out / "results.jsonl", "a") as f:
        f.write(json.dumps(labelled) + "\n")

    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
