"""Run one workload once in this fresh interpreter and write ``result.json``.

Started by ``run.py``; not meant to be run by hand. Set-up (interpreter
start, imports, config load) ends at the first timed call, whose
``CLOCK_MONOTONIC`` reading is reported so the parent can measure set-up from
the moment it started this process. With ``--trace 1`` the fond layers are
wrapped for the whole run and the per-layer summary is added to the result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def file_digest(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--inputs", type=Path, required=True,
                        help="directory holding the run's generated inputs")
    parser.add_argument("--work", type=Path, required=True,
                        help="directory for this process's outputs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    from fond import cli, config

    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    args.work.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    with tracer or contextlib.nullcontext():
        cfg_path, overrides = workload.config_args(ROOT, args.inputs)
        cfg = config.load_config(cfg_path, overrides)
        first, cpu_first = clock(), time.process_time()
        commands = workload.commands(ROOT, args.inputs, args.work, args.seed, cfg)
        exit_codes = []
        for command in commands:
            try:
                exit_codes.append(cli.main(command.argv))
            except Exception:     # a crash fails the command, not the run
                traceback.print_exc()
                exit_codes.append(-1)
        end, cpu_end = clock(), time.process_time()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "first_call_clock": first,
        "wall_s": end - first,
        "cpu_s": cpu_end - cpu_first,
        "peak_rss_mb": peak_rss_mb,
        "logical_steps": workload.logical_steps(cfg),
        "commands": [],
        "linked_acc": None,
    }
    for command, code in zip(commands, exit_codes):
        failed = command.operations if code != 0 else workload.check(command, cfg)
        result["commands"].append({
            "name": command.name, "exit_code": code, "operations": command.operations,
            "failed": failed,
            "digests": {a: file_digest(command.out / a) for a in command.artifacts},
        })
        if code == 0 and failed == 0:
            acc = workload.linked_acc(command)
            if acc is not None:
                result["linked_acc"] = acc
    if tracer is not None:
        result["per_layer"] = tracer.summary()
        result["spans"] = tracer.span_table()
    (args.work / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0




if __name__ == "__main__":
    sys.exit(main())
