"""The line budget of `src/`: the package's Python lines, counted as
`tools/pairs.py` counts them, may not grow past a recorded count.

`SRC_LINES` is the count the last change left.  A change that cuts lines
lowers it to the new count; a change that must add lines raises it and
says why in CHANGES.md.
"""

from pathlib import Path

SRC_LINES = 3547


def test_src_stays_within_its_line_budget():
    package = Path(__file__).resolve().parent.parent / "src" / "pushdp"
    lines = sum(len(path.read_text().splitlines()) for path in package.glob("*.py"))
    assert lines <= SRC_LINES, f"src/pushdp has {lines} lines, over its budget of {SRC_LINES}"
