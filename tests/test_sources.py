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


CSV_IMPORT = re.compile(r"^\s*(?:import\s+csv\b|from\s+csv\s+import\b)", re.MULTILINE)


def test_one_csv_writer_for_every_output_table():
    # output tables go through datagen.write_table, so their quoting, line
    # ends and cell format are set in one place
    sources = {path.relative_to(ROOT / "src").as_posix(): path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "src").rglob("*.py"))}
    assert sorted(name for name, text in sources.items() if CSV_IMPORT.search(text)) \
        == ["fond/datagen.py"]
    assert sum(text.count("csv.writer(") for text in sources.values()) == 1
