"""The package runs on the oldest Python that `pyproject.toml` declares
(`requires-python >= 3.10`): every module under `src/hotgames` parses
with the 3.10 grammar."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hotgames"


def test_package_parses_as_python_3_10():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    for path in modules:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
