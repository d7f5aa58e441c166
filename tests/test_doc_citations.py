"""Every docs/decisions.md citation in the package names a heading of that
file, so a renamed or merged section cannot leave a comment pointing nowhere."""
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CITATION = re.compile(r'docs/decisions\.md, "([^"]+)"')


def _headings():
    text = (ROOT / "docs" / "decisions.md").read_text(encoding="utf-8")
    return {line.lstrip("#").strip() for line in text.splitlines() if line.startswith("#")}


def _citations():
    """(file name, cited title) for every citation under src/casvolt; a title
    may wrap across comment or docstring lines."""
    for path in sorted((ROOT / "src" / "casvolt").glob("*.py")):
        # each line break, with the indent and comment marker after it, is one space
        text = re.sub(r"\s*\n\s*(#\s*)?", " ", path.read_text(encoding="utf-8"))
        for match in CITATION.finditer(text):
            yield path.name, match.group(1)


def test_every_decisions_citation_names_a_heading():
    citations = list(_citations())
    assert len(citations) >= 4
    headings = _headings()
    assert [(name, title) for name, title in citations if title not in headings] == []
