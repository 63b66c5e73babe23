"""Every .py file under src/, bench/ and tests/ parses under the oldest
Python that pyproject.toml's `requires-python` admits, checked without
that interpreter; and the tier-1 workflow runs that Python and names
only test paths that exist, checked by reading it as text."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def python_floor() -> tuple[int, int]:
    floor = re.search(r'requires-python = ">=(\d+)\.(\d+)"',
                      (ROOT / "pyproject.toml").read_text())
    return int(floor[1]), int(floor[2])


def test_sources_parse_at_the_python_floor():
    version = python_floor()
    assert version == (3, 10)
    failures = []
    for path in sorted(p for top in ("src", "bench", "tests") for p in (ROOT / top).rglob("*.py")):
        try:
            ast.parse(path.read_text(), filename=str(path), feature_version=version)
        except SyntaxError as e:
            failures.append(f"{path.relative_to(ROOT)}:{e.lineno}: {e.msg}")
    assert not failures, failures


def test_workflow_runs_the_floor_and_existing_test_paths():
    # The workflow runs only where it is pushed; this guards it locally.
    text = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    matrix = re.search(r"python-version: \[([^\]]*)\]", text)
    assert matrix, "no python-version matrix in the workflow"
    versions = re.findall(r'"(\d+)\.(\d+)"', matrix[1])
    assert python_floor() in {(int(a), int(b)) for a, b in versions}, versions
    paths = re.findall(r"\btests/[\w./-]+", text)
    assert paths
    missing = [p for p in paths if not (ROOT / p).exists()]
    assert not missing, missing
