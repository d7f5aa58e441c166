"""Every docs/decisions.md citation in the package names a heading of that
file, so a renamed or merged section cannot leave a comment pointing nowhere;
and every module.name citation in that file names something the module
defines, so a removed name cannot stay described as current code."""
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CITATION = re.compile(r'docs/decisions\.md, "([^"]+)"')
MODULES = sorted(path.stem for path in (ROOT / "src" / "casvolt").glob("*.py")
                 if not path.stem.startswith("_"))
# module.name, not a file name such as cli.py and not a dotted benchmark
# metric such as oracle.quad.ms
MODULE_CITATION = re.compile(rf"\b({'|'.join(MODULES)})\.(\w+)\b(?!\.\w)")
# the tables that list what went keep the names they list
HISTORY_TABLES = ("Names that went", "Options that became constants")


def _decisions() -> str:
    return (ROOT / "docs" / "decisions.md").read_text(encoding="utf-8")


def _headings():
    return {line.lstrip("#").strip() for line in _decisions().splitlines() if line.startswith("#")}


def _citations():
    """(file name, cited title) for every citation under src/casvolt; a title
    may wrap across comment or docstring lines."""
    for path in sorted((ROOT / "src" / "casvolt").glob("*.py")):
        # each line break, with the indent and comment marker after it, is one space
        text = re.sub(r"\s*\n\s*(#\s*)?", " ", path.read_text(encoding="utf-8"))
        for match in CITATION.finditer(text):
            yield path.name, match.group(1)


def _module_citations():
    """(line number, module, name) for every module.name in docs/decisions.md
    outside the rows of the history tables."""
    history = False
    for number, line in enumerate(_decisions().splitlines(), 1):
        if line.startswith("#"):
            history = line.lstrip("#").strip() in HISTORY_TABLES
        elif not (history and line.startswith("|")):
            for match in MODULE_CITATION.finditer(line):
                if match.group(2) != "py":
                    yield number, *match.groups()


def test_every_decisions_citation_names_a_heading():
    citations = list(_citations())
    assert len(citations) >= 4
    headings = _headings()
    assert [(name, title) for name, title in citations if title not in headings] == []


def test_every_module_citation_in_decisions_names_a_definition():
    citations = list(_module_citations())
    assert len(citations) >= 50
    modules = {module: importlib.import_module(f"casvolt.{module}") for module in MODULES}
    assert [(number, f"{module}.{name}") for number, module, name in citations
            if not hasattr(modules[module], name)] == []
