"""Every function in the package is named somewhere in it, or pinned here."""

import ast
import pathlib

import rsrepair

# functions and methods that no identifier in the package names, each with
# the reason it stays
PINNED = {
    "basis.BasisPair.phi_table": "named by the benchmark's layer tracer",
    "cli._Parser.error": "called by argparse on a usage error",
    "constructions.QPolynomial.image": "the tests' oracle for a q-polynomial's image",
    "linalg.solve": "named by the benchmark's layer tracer",
    "scheme.AccessCounter.total_accessed": "read by bench/run.py and the tests",
    "scheme.AccessCounter.total_transmitted": "read by bench/run.py and the tests",
    "subspace.rank_over_subfield": "named by the benchmark's layer tracer",
}


def _unreferenced(package: pathlib.Path) -> list[str]:
    """module.Class.name of every def whose name no Name, attribute or
    imported alias in the package reads; dunders are called implicitly."""
    defined, named = {}, set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))

        def visit(node, owner):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    defined[f"{path.stem}.{owner}{child.name}"] = child.name
                visit(child, f"{owner}{child.name}." if isinstance(child, ast.ClassDef) else owner)

        visit(tree, "")
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    return sorted(key for key, name in defined.items()
                  if name not in named and not (name.startswith("__") and name.endswith("__")))


def test_every_function_is_named_or_pinned():
    assert _unreferenced(pathlib.Path(rsrepair.__file__).parent) == sorted(PINNED)
