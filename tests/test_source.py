"""Source-level checks on the package modules."""

import ast
import pathlib

import pblock

# Imported for its span test in bench/test_bench.py, not used in the module.
KEPT = {("cli", "mullineux_image")}


def test_modules_use_every_name_they_import():
    unused = []
    for path in sorted(pathlib.Path(pblock.__file__).parent.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [(path.stem, name, line) for name, line in imported.items()
                   if name not in used and (path.stem, name) not in KEPT]
    assert not unused
