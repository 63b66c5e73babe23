"""Every .py file under src/, bench/ and tests/ parses under the oldest
Python that pyproject.toml's `requires-python` admits, checked without
that interpreter."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_sources_parse_at_the_python_floor():
    floor = re.search(r'requires-python = ">=(\d+)\.(\d+)"',
                      (ROOT / "pyproject.toml").read_text())
    version = (int(floor[1]), int(floor[2]))
    assert version == (3, 10)
    failures = []
    for path in sorted(p for top in ("src", "bench", "tests") for p in (ROOT / top).rglob("*.py")):
        try:
            ast.parse(path.read_text(), filename=str(path), feature_version=version)
        except SyntaxError as e:
            failures.append(f"{path.relative_to(ROOT)}:{e.lineno}: {e.msg}")
    assert not failures, failures
