#!/usr/bin/env python3
"""Run one workload on several seeds and report each metric's median and
run-to-run spread (interquartile range over the median, as Python's
statistics.quantiles(values, n=4) gives the quartiles).

    python3 hullbench/spread.py <workload> <seed>... [--trace] [--save runs.json]

Run from the repository root. --save writes the per-seed values. The rule
that judges a change against its parent lives in one place, src/stats.rs
(regressed), where the sensitivity self-test exercises it.
"""

import json
import statistics
import subprocess
import sys


def main() -> int:
    args = sys.argv[1:]
    trace = "--trace" in args
    save = args[args.index("--save") + 1] if "--save" in args else None
    skip = {save, "--trace", "--save"}
    workload, seeds = args[0], [a for a in args[1:] if a not in skip]
    bench = json.load(open("BENCHMARK.json"))
    values: dict[str, list[float]] = {}
    for seed in seeds:
        cmd = bench["command"] + [
            "--workload", workload, "--seed", seed,
            "--seconds", str(bench["run_seconds"]), "--trace", "1" if trace else "0",
        ]
        out = subprocess.run(cmd, capture_output=True, text=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: exit {out.returncode}, correct {result['correct']}, "
              f"failed {result['failed']} of {result['attempted']}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    if save:
        json.dump(values, open(save, "w"), indent=1)
    for name, v in values.items():
        med = statistics.median(v)
        line = f"{name:32} median {med:<14.6g}"
        if len(v) >= 2 and med:
            q1, _, q3 = statistics.quantiles(v, n=4)
            line += f" spread {(q3 - q1) / abs(med):.4f}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
