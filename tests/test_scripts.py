"""The bundled scripts that the README tells users to run."""

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
