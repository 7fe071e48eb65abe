#!/usr/bin/env python3
"""Run a workload once per seed and report each end-to-end metric's median
and spread (quartile distance over median) against its bound.

    python3 perfbench/spread.py --workload desk_high --seeds 1 2 3 4 5
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    values: dict[str, list[float]] = {}
    ok = True
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok &= result["correct"] and result["failed"] == 0
        line = []
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            line.append(f"{name}={m['value']:.6g}")
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} "
              + " ".join(line), flush=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name, vals in values.items():
        spread = stats.relative_iqr(vals) if len(vals) >= 2 and stats.median(vals) else 0.0
        verdict = "ok" if spread <= bounds[name] else "OVER"
        print(f"{name:<44} median {stats.median(vals):<14.6g} spread {spread:.4f}  "
              f"bound {bounds[name]}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
