"""The layout of the test suite itself."""

import ast
from pathlib import Path


def test_no_test_module_imports_another():
    # shared test code lives in reference.py, which pytest does not collect
    imported = []
    for path in sorted(Path(__file__).parent.glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text(), path.name)):
            if isinstance(node, ast.Import):
                imported += [(path.name, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported += [(path.name, node.module or alias.name)
                             for alias in node.names]
    assert [(name, module) for name, module in imported
            if any(part.startswith("test_") for part in module.split("."))] == []
