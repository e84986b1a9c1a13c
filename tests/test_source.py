import ast
import pathlib

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
