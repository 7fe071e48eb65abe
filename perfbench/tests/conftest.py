import sys
from pathlib import Path

# the benchmark modules and the fond sources, as run.py and child.py see them
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parents[1] / "src")]
