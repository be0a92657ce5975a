#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, judged against their bounds.

    python3 perfbench/spread.py [--runs 10] [--workloads pairwise,backlog]
                                [--out spread.json]

Runs each workload `--runs` times through run.py (untraced, run_seconds from
BENCHMARK.json, one seed per run) from the root of the checkout. For every
end-to-end metric it prints the median and the interquartile range as a
share of the median (quartiles as `statistics.quantiles(values, n=4)` gives
them), next to the metric's bound and a third of it. Exits 1 when a spread,
`setup_s` excepted, exceeds its bound or a run fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--out", help="also write every value here as JSON")
    args = ap.parse_args()

    ok, values = True, {}
    for w in args.workloads.split(","):
        runs = []
        for k in range(args.runs):
            seed = k + 1
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True,
            )
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{w} seed {seed}: exit {done.returncode}\n{done.stderr}")
                ok = False
                continue
            runs.append(json.loads(lines[-1])["metrics"])
        values[w] = {m["name"]: [r[m["name"]]["value"] for r in runs] for m in spec["end_to_end"]}
        print(f"{w}: {len(runs)} runs")
        for m in spec["end_to_end"]:
            v = values[w][m["name"]]
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            share = (q3 - q1) / med
            verdict = "ok" if share <= m["bound"] / 3 else "WIDE" if share <= m["bound"] else "OVER"
            if verdict == "OVER" and m["name"] != "setup_s":
                ok = False
            print(f"  {m['name']:16s} median {med:14.6g} {m['unit']:7s} iqr/median {share:7.4f}"
                  f"  bound {m['bound']:.2f} (third {m['bound'] / 3:.4f})  {verdict}")
    if args.out:
        Path(args.out).write_text(json.dumps(values, indent=1))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
