#!/usr/bin/env python3
"""Benchmark one workload of the fond harness.

    python3 perfbench/run.py --workload desk_high --seed 1 --seconds 52 --trace 0

Untraced (``--trace 0``): fresh child processes that each run the whole
workload once, as many as the workload's nominal length fits into
``--seconds`` (at least one). Every end-to-end metric is the median over
the children.

Traced (``--trace 1``): one untraced and one traced child on the same seed.
Prints the per-layer metrics of the traced child plus the tracing overhead
(traced minus untraced wall time).

Both modes check every output (see ``workloads.py``) and compare artifact
digests between children, with the traced child, and with
``digests.json`` when the seed is the recorded one. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``. Lines before it give the metrics with units, the
environment stamp and the raw samples.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

import stats
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# BLAS is pinned so the load comes from one thread of one process.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 150.0
DIGESTS = HERE / "digests.json"


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class ChildFailed(RuntimeError):
    pass


def run_child(workload: str, seed: int, inputs: Path, work: Path, trace: bool) -> dict:
    """Start ``child.py``, wait for it, and return its result together with
    its set-up time: from just before the start to its first timed call."""
    work.mkdir(parents=True)
    argv = [sys.executable, str(HERE / "child.py"), "--workload", workload,
            "--seed", str(seed), "--inputs", str(inputs), "--work", str(work),
            "--trace", "1" if trace else "0"]
    env = dict(os.environ, **{k: BLAS_THREADS for k in BLAS_ENV})
    with open(work / "stdout.txt", "wb") as out, open(work / "stderr.txt", "wb") as err:
        start = clock()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.returncode is None:      # timed out or interrupted
                proc.kill()
                proc.wait()
    if code != 0:
        tail = (work / "stderr.txt").read_text(errors="replace")[-2000:]
        raise ChildFailed(f"{workload} child exited {code}:\n{tail}")
    result = json.loads((work / "result.json").read_text(encoding="utf-8"))
    result["setup_s"] = result["first_call_clock"] - start
    return result


def account(children: list[dict], recorded: dict | None) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over all children's operations.

    A command's operations all fail when it exited nonzero, when its
    artifacts differ from the first child's, or when the seed is the
    recorded one and they differ from the recorded digests.
    """
    attempted = failed = 0
    problems = []
    reference = {c["name"]: c["digests"] for c in children[0]["commands"]}
    for k, child in enumerate(children):
        for cmd in child["commands"]:
            attempted += cmd["operations"]
            bad = cmd["failed"]
            if cmd["exit_code"] != 0:
                problems.append(f"child {k}: {cmd['name']} exited {cmd['exit_code']}")
            elif bad:
                problems.append(f"child {k}: {cmd['name']}: {bad} operations failed checks")
            for against, label in ((reference.get(cmd["name"]), "the first child"),
                                   ((recorded or {}).get(cmd["name"]), "digests.json")):
                if against is None:
                    continue
                diff = sorted(a for a in cmd["digests"] if cmd["digests"][a] != against.get(a))
                if diff:
                    problems.append(f"child {k}: {cmd['name']}: {', '.join(diff)} "
                                    f"differ from {label}")
                    bad = cmd["operations"]
            failed += bad
    return attempted, failed, problems


def recorded_digests(workload: str, seed: int) -> dict | None:
    doc = json.loads(DIGESTS.read_text(encoding="utf-8"))
    entry = doc["workloads"].get(workload)
    if entry is None or entry["seed"] != seed:
        return None
    return entry["commands"]


def environment() -> dict:
    """Where the numbers were measured."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": git_commit(ROOT),
    }


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout from ``.git`` alone; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def timed_run(name: str, seed: int, seconds: float, inputs: Path, work: Path) -> dict:
    # The child count follows from the budget and the workload's nominal
    # length, not from the measured speed, so every commit gets the same
    # number of samples.
    count = max(1, int(seconds // workloads.WORKLOADS[name].nominal_s))
    children = [run_child(name, seed, inputs, work / f"child{k}", False)
                for k in range(count)]
    samples = {key: [c[key] for c in children]
               for key in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")}
    metrics = {key: stats.median(values) for key, values in samples.items()}
    metrics["steps_per_s"] = children[0]["logical_steps"] / metrics["wall_s"]
    return {"children": children, "metrics": metrics, "samples": samples}


def traced_run(name: str, seed: int, inputs: Path, work: Path) -> dict:
    plain = run_child(name, seed, inputs, work / "untraced", False)
    traced = run_child(name, seed, inputs, work / "traced", True)
    layers = dict(traced["per_layer"])
    layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    layers["evalsel.linked_acc"] = plain["linked_acc"]
    return {"children": [plain, traced], "metrics": layers, "spans": traced["spans"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time of an untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fond" / "cli.py").is_file():
        print(f"no fond sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    workload = workloads.WORKLOADS[args.workload]

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload.prepare(work, args.seed)
        if args.trace:
            record = traced_run(args.workload, args.seed, work, work)
        else:
            record = timed_run(args.workload, args.seed, args.seconds, work, work)
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    children = record["children"]
    attempted, failed, problems = account(children, recorded_digests(args.workload, args.seed))
    accs = {c["linked_acc"] for c in children}
    if len(accs) != 1:
        problems.append(f"linked accuracy differs between children: {sorted(accs, key=str)}")
    for problem in problems:
        print("FAIL " + problem, file=sys.stderr)

    metrics = {m["name"]: {"value": record["metrics"][m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"children {len(children)}  operations {attempted}")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']!r:>24} {m['unit']}")
    if not args.trace:
        print(f"  {'linked_acc':<44} {children[0]['linked_acc']!r:>24} share")
        print(f"  {'fail_share':<44} {failed / attempted!r:>24} share")
    print("record " + json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "env": environment(), "samples": record.get("samples"),
        "spans": record.get("spans"), "linked_acc": children[0]["linked_acc"],
        "digests": {c["name"]: c["digests"] for c in children[0]["commands"]},
        "problems": problems}, sort_keys=True))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
