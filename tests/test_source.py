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


# One message per rule for p, for a block index i, for a bead count r and for a block
# weight; each must be raised from exactly one place.
P_RULES = ("p must be an integer at least 2, got", "the test needs an odd prime p",
           "p must be a prime, got", "p must be a prime at least 5, got",
           "out of range for p=", "bead count must be an integer at least",
           "block weight must be an integer at least 0, got")


def test_each_rule_for_p_is_raised_from_one_place():
    raises = []
    for path in sorted(pathlib.Path(pblock.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        raises += [(path.stem, ast.unparse(node)) for node in ast.walk(tree) if isinstance(node, ast.Raise)]
    for message in P_RULES:
        places = [module for module, text in raises if message in text]
        assert len(places) == 1, (message, places)


def _decorator_name(node):
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def test_the_package_keeps_one_memo():
    # The per-prime principal-block table is the only memo; everything else is recomputed.
    memos, mentions = [], 0
    for path in sorted(pathlib.Path(pblock.__file__).parent.glob("*.py")):
        text = path.read_text()
        mentions += text.count("lru_cache")
        memos += [(path.stem, node.name) for node in ast.walk(ast.parse(text))
                  if isinstance(node, ast.FunctionDef)
                  and any(_decorator_name(d) in ("lru_cache", "cache") for d in node.decorator_list)]
    assert memos == [("verify", "_principal_table")]
    assert mentions == 1


def test_only_the_abacus_shifts_bits():
    # Only abacus places beads: every other module asks its kernels instead of reading a bead mask.
    found = []
    for path in sorted(pathlib.Path(pblock.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, (ast.LShift, ast.RShift))
                    or isinstance(node, ast.Attribute) and node.attr == "bit_count"):
                found.append(path.stem)
    assert found and set(found) == {"abacus"}
