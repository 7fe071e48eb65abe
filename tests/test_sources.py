"""Rules about the program's source text itself."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# "ROADMAP item 6", "ROADMAP 13", "ROADMAP.md items 3", also across a
# line break in a comment or docstring
ROADMAP_NUMBER = re.compile(r"ROADMAP(?:\.md)?(?:'s)?[\s#]+(?:items?[\s#]+)?\d")


def test_no_source_cites_a_roadmap_item_number():
    # the ROADMAP renumbers its items whenever it is revised, so a number in
    # code goes stale; cite the item by what it is about instead
    sources = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "scripts").rglob("*.py"))
    assert sources
    cited = [f"{path.relative_to(ROOT)}: {match.group(0)!r}"
             for path in sources
             for match in ROADMAP_NUMBER.finditer(path.read_text(encoding="utf-8"))]
    assert cited == []
