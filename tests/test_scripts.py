"""The bundled scripts that the README tells users to run."""

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TINY = ROOT / "configs" / "tiny_benchmark.json"


def run_script(name, *args):
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, timeout=300)


def test_tiny_benchmark_writes_every_cell(tmp_path):
    proc = run_script("run_tiny_benchmark.py", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    lines = (tmp_path / "results.csv").read_text().splitlines()
    assert lines[0].startswith("# provenance: ")
    assert len(lines[2:]) == 6 * 2   # variants x settings, one repetition


def test_desk_benchmark_reports_per_rep_wins(tmp_path):
    proc = run_script("run_desk_benchmark.py", "--config", str(TINY), "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert re.search(r"^fond improves linked-class accuracy in [01]/1 repetitions$",
                     proc.stdout, re.MULTILINE), proc.stdout


def test_bench_step_times_every_piece():
    # 96 rows exceed one 64-row block of xdom_loss; 16 fit in one
    proc = run_script("bench_step.py", "--config", str(TINY), "--set", "trainer.dropout=0.1",
                      "--set", "dataset.synthetic.samples_per_cell=40",
                      "--batch-sizes", "16", "96", "--repeat", "1", "--number", "2")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    common = {"dropout_stream", "forward_pass", "fond_loss", "backward_pass",
              "grad_norm", "step", "step_unlogged"}
    assert list(doc["batch_sizes"]) == ["16", "96"]
    for timed in doc["batch_sizes"].values():
        assert set(timed["erm"]) == common
        assert set(timed["fond"]) == common | {"xdom_loss"}
        assert all(us > 0 for variant in ("erm", "fond") for us in timed[variant].values())
    assert set(doc["optimizer_step"]) == {"sgd", "momentum", "adam"}
    assert all(us > 0 for us in doc["optimizer_step"].values())
    assert doc["evaluate"]["rows"] > 96 and doc["evaluate"]["us"] > 0
    assert doc["float_rows"]["rows"] == doc["evaluate"]["rows"]
    assert doc["float_rows"]["us"] > 0 and doc["float_rows"]["repr_us"] > 0
    assert doc["ingest_csv"]["rows"] == 5 * 4 * 40 and doc["ingest_csv"]["us"] > 0
    assert {"python", "numpy", "blas", "blas_threads"} <= set(doc["host"])

    proc = run_script("bench_step.py", "--config", str(TINY), "--batch-sizes", "100000")
    assert proc.returncode == 2 and "exceed" in proc.stderr
