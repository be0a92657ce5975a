#!/usr/bin/env python3
"""Builds the benchmark against this checkout and runs one workload.

    python3 perfbench/run.py --workload pairwise --seed 1 --seconds 10 --trace 0

Run it from the root of the checkout. The Rust package in this directory is
built with `cargo build --release --offline` into `$CARGO_TARGET_DIR`
(default `.bench_build`); the first call compiles, later calls reuse the
build. The benchmark process's standard output is passed through unchanged:
its last line is the JSON result. The exit status is the benchmark's own
(0 clean, 1 delivery check failed, 2 usage or environment error).
"""

import argparse
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["pairwise", "backlog", "channel-rtt", "sharded-pairwise"]
BUILD_TIMEOUT_S = 850
RUN_LIMIT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def target_dir():
    return Path(os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")))


def cas2_sites_in_rbx(binary):
    """CAS2 inline-assembly sites whose operands were allocated to rbx/bl.

    The library's `lock cmpxchg16b` wrapper swaps its low word through rbx,
    so a pointer or result the compiler placed in rbx is clobbered (a crash,
    a hang or a wrong CAS2 result, depending on the site). wCQ functions are
    listed apart: the benchmark never runs them. Returns None without
    objdump.
    """
    if shutil.which("objdump") is None:
        return None
    dis = subprocess.run(
        ["objdump", "-d", "--no-show-raw-insn", "-C", str(binary)],
        capture_output=True, text=True, timeout=300, check=True,
    ).stdout.splitlines()
    func, hits = "?", []
    for i, line in enumerate(dis):
        if line.endswith(">:"):
            func = line.split("<", 1)[-1].rstrip(">:")
        elif "cmpxchg16b" in line:
            after = dis[i + 1] if i + 1 < len(dis) else ""
            if re.search(r"cmpxchg16b\s+(0x0)?\(%rbx\)", line) or re.search(r"sete\s+%bl$", after):
                hits.append(func)
    return hits


def build():
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        fail(f"library sources not found next to {HERE.name}/ (expected Cargo.toml and crates/)")
    if shutil.which("cargo") is None:
        fail("cargo not found")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if done.returncode != 0:
        fail("build failed")
    binary = target_dir() / "release" / "lcrq-perfbench"
    stamp = binary.with_name("lcrq-perfbench.cas2-scan")
    if not stamp.exists() or stamp.stat().st_mtime < binary.stat().st_mtime:
        hits = cas2_sites_in_rbx(binary)
        if hits is not None:
            live = sorted({h for h in hits if "wcq::" not in h})
            if live:
                fail("CAS2 asm operands landed in rbx/bl in " + "; ".join(live)
                     + " (library defect, see perfbench/README.md)")
            if hits:
                print(f"perfbench: note: {len(hits)} CAS2 sites with rbx operands, "
                      "all in wCQ code the benchmark does not run", file=sys.stderr)
        stamp.write_text("checked\n")
    return binary


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--plant", default="none", choices=["none", "slow", "lossy"],
                    help="test-only wrapper proving the benchmark catches a "
                         "slowdown (slow) or a lost value (lossy)")
    args = ap.parse_args()
    if not 1 <= args.seconds <= 120:
        fail("--seconds must be within 1..120")

    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace, "--plant", args.plant,
           "--trace-dir", str(target_dir() / "perfbench-trace")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_LIMIT_S} s")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
