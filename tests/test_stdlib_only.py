"""The package stays standard-library only."""

import ast
import pathlib
import sys

import rsrepair


def test_imports_are_relative_or_stdlib():
    files = sorted(pathlib.Path(rsrepair.__file__).parent.glob("*.py"))
    assert len(files) > 10
    outside = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []
