#!/usr/bin/env python3
"""Planted-bug twins: proves the benchmark catches a slowdown and a loss.

    python3 perfbench/selftest.py

From the root of the checkout, runs `pairwise` through run.py:
  * alternately clean and with `--plant slow` (a fixed extra spin before
    every call); the slow median of throughput_mops must be worse than the
    clean median by more than the metric's bound in BENCHMARK.json;
  * once with `--plant lossy` (one enqueued value in 10^6 dropped); the run
    must exit non-zero and report correct=false with failed > 0.
Exits 0 when both twins are caught.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# Clean/slow pairs and seconds per run: the twin's drop is far past any
# bound, so short runs suffice.
RUNS = 3
SECONDS = 3


def run(plant, seed, seconds):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "pairwise", "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0", "--plant", plant],
        capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    return done.returncode, (json.loads(lines[-1]) if lines else None)


def main():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "throughput_mops")

    clean, slow = [], []
    for k in range(RUNS):
        order = ["none", "slow"] if k % 2 == 0 else ["slow", "none"]
        for plant in order:
            code, res = run(plant, 100 + k, SECONDS)
            if code != 0 or res is None:
                print(f"{plant} run failed with exit {code}")
                sys.exit(1)
            (clean if plant == "none" else slow).append(res["metrics"]["throughput_mops"]["value"])
    c, s = statistics.median(clean), statistics.median(slow)
    drop = (c - s) / c
    slow_caught = drop > bound
    print(f"slow twin: clean {c:.4f} vs slow {s:.4f} Mops/s, drop {drop:.1%} "
          f"vs bound {bound:.0%}: {'caught' if slow_caught else 'MISSED'}")

    code, res = run("lossy", 200, SECONDS)
    lossy_caught = code != 0 and res is not None and not res["correct"] and res["failed"] > 0
    detail = f"exit {code}, correct={res and res['correct']}, failed={res and res['failed']}"
    print(f"lossy twin: {detail}: {'caught' if lossy_caught else 'MISSED'}")
    sys.exit(0 if slow_caught and lossy_caught else 1)


if __name__ == "__main__":
    main()
