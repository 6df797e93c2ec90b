"""Static checks on the package source: no asserts, no runtime deps.

Asserts vanish under ``python -O``, so invariants must raise instead; and
the package promises pure Python, so every absolute import must name a
standard-library module.
"""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent
                  / "src" / "pigraphs").glob("*.py"))


def _absolute_imports(node):
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module]
    return []


def test_no_asserts_and_only_stdlib_or_relative_imports():
    assert len(SOURCES) >= 10
    problems = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                problems.append(f"{path.name}:{node.lineno}: assert")
            problems.extend(
                f"{path.name}:{node.lineno}: imports {name}"
                for name in _absolute_imports(node)
                if name.split(".")[0] not in sys.stdlib_module_names)
    assert problems == []
