"""The bundled scripts that the README tells users to run."""

import json
import re
import subprocess
import sys
from pathlib import Path

from fond import trainer

ROOT = Path(__file__).resolve().parents[1]
TINY = ROOT / "configs" / "tiny_benchmark.json"


def run_script(name, *args):
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, timeout=300)


def test_readme_names_exactly_the_bundled_scripts():
    named = set(re.findall(r"\bscripts/(\w+\.py)\b", (ROOT / "README.md").read_text()))
    assert named == {path.name for path in (ROOT / "scripts").glob("*.py")}


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
    assert set(doc["optimizer_step"]) == set(trainer.OPTIMIZERS)
    assert all(us > 0 for us in doc["optimizer_step"].values())
    assert doc["evaluate"]["rows"] > 96
    assert all(doc["evaluate"][key] > 0 for key in ("us", "predict_us", "score_us"))
    assert doc["read_outs_us"] > 0
    assert doc["float_rows"]["rows"] == doc["evaluate"]["rows"]
    assert doc["float_rows"]["us"] > 0 and doc["float_rows"]["repr_us"] > 0
    assert doc["ingest_csv"]["rows"] == 5 * 4 * 40 and doc["ingest_csv"]["us"] > 0
    assert {"python", "numpy", "blas", "blas_threads"} <= set(doc["host"])

    proc = run_script("bench_step.py", "--config", str(TINY), "--batch-sizes", "100000")
    assert proc.returncode == 2 and "exceed" in proc.stderr
