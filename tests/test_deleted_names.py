"""The deleted-name guard: no pattern of ``tests/deleted_names.txt``
matches a line of ``src/``.  CI runs the same patterns through ``grep
-rnE``; this test applies them with ``re`` and names each hit."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def deleted_names() -> list[str]:
    """The list's patterns: every line but comments and blank lines."""
    lines = (ROOT / "tests" / "deleted_names.txt").read_text().splitlines()
    return [line for line in lines if line and not line.startswith("#")]


def hits(patterns, root):
    """``path:line: pattern`` for each line of a file under ``root`` that
    some pattern matches, as ``grep -rnE`` reports them."""
    compiled = [re.compile(p) for p in patterns]
    found = []
    for path in sorted(root.rglob("*")):
        if path.is_dir() or "__pycache__" in path.parts:
            continue
        for n, line in enumerate(path.read_text(errors="replace").splitlines(), 1):
            where = path.relative_to(root.parent)
            found += [f"{where}:{n}: {c.pattern}" for c in compiled if c.search(line)]
    return found


def test_no_deleted_name_is_back_in_src():
    patterns = deleted_names()
    assert patterns and len(set(patterns)) == len(patterns)
    assert hits(patterns, ROOT / "src") == []


def test_the_guard_names_a_name_put_back(tmp_path):
    """A deleted name put back is a hit, named by file, line and pattern."""
    src = tmp_path / "src"
    src.mkdir()
    (src / "mod.py").write_text("x = 1\ndef _with_cost(scenario, cost):\n")
    assert hits(deleted_names(), src) == ["src/mod.py:2: def _with_cost"]
