import ast
import collections
import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "ytl"


def test_no_assert_statements_in_src():
    # python -O strips assert statements, so no check in the library may
    # rely on one
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append("%s:%d" % (path.name, node.lineno))
    assert not found, found


# Definitions that nothing in the library or the benchmark calls, kept on
# purpose: each is public API that only users and the tests call.
UNCALLED = {
    "basis_element": "the paper's explicit basis of the quotients, as algebra "
                     "elements (the CLI prints only the block descriptors)",
    "as_laurent": "the checked exit from RatFunc to its Laurent numerator",
}


def _names_used(tree):
    """Every identifier a module reads: names, attributes, imported names,
    and identifiers inside string literals (the benchmark traces functions
    by name), but not docstrings or comments."""
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                  and node.body and isinstance(node.body[0], ast.Expr)}
    used = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.append(node.id)
        elif isinstance(node, ast.Attribute):
            used.append(node.attr)
        elif isinstance(node, ast.alias):
            used.append(node.name.split(".")[-1])
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            used.extend(re.findall(r"[A-Za-z_]\w*", node.value))
    return used


def _definitions(tree):
    """Top-level functions and classes, and their non-dunder methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if (isinstance(sub, ast.FunctionDef)
                        and not (sub.name.startswith("__") and sub.name.endswith("__"))):
                    yield sub


# The int encoding of an element (its layout, the one encoding an element
# keeps, the packer, the packed product, its decoder and decode loop) is known
# to yokonuma alone: the other modules multiply elements and read their
# character sums.
ENCODING_HELPERS = {"_coded", "_code", "_int_product", "_decode", "_pack", "_emit"}


def test_only_yokonuma_names_the_encoding():
    found = []
    for path in sorted(SRC.glob("*.py")):
        names = set(_names_used(ast.parse(path.read_text(), str(path))))
        if path.name == "yokonuma.py":
            assert ENCODING_HELPERS <= names, ENCODING_HELPERS - names
        else:
            found.extend("%s: %s" % (path.name, name)
                         for name in sorted(ENCODING_HELPERS & names))
    assert not found, found


def test_every_definition_is_used():
    # a definition counts as used when src/ytl or perfbench/ names it
    # outside its own body
    paths = sorted(SRC.glob("*.py")) + sorted((SRC.parent.parent / "perfbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in paths}
    used = collections.Counter()
    for tree in trees.values():
        used.update(_names_used(tree))
    unused = []
    for path, tree in trees.items():
        if path.parent != SRC:
            continue
        for node in _definitions(tree):
            own = _names_used(node).count(node.name)
            if used[node.name] == own and node.name not in UNCALLED:
                unused.append("%s:%d %s" % (path.name, node.lineno, node.name))
    assert not unused, unused
    assert all(used[name] == 0 for name in UNCALLED), \
        [name for name in UNCALLED if used[name]]
