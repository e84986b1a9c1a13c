import ast
import collections
import importlib
import pathlib
import re
import sys

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


# Coefficients become ints in one place: _encoding brings the distinct
# values of a term list over one denominator and encodes them as int rows.
# _coded keeps that pass on an element; the product, the character sums and
# their inverse read an element's rows, and the seminormal image hands the
# pass its character sums and its word denominators as plain term lists.
def test_only_coded_encodes_coefficients():
    tree = ast.parse((SRC / "yokonuma.py").read_text())
    named = [node.name for node in _definitions(tree)
             if "over_one_denominator" in _names_used(node)]
    assert named == ["_encoding"], named
    # once imported, once called
    assert _names_used(tree).count("over_one_denominator") == 2
    assert "_encode_rows" not in _names_used(tree)
    assert "_encode_rows" not in {node.name for node in _definitions(tree)}
    coded = next(node for node in _definitions(tree) if node.name == "_coded")
    assert "_encoding" in _names_used(coded)


# The seminormal image builds no temporary element: its sums and word
# denominators go to the encoding pass as term lists.
def test_seminormal_image_builds_no_element():
    tree = ast.parse((SRC / "yokonuma.py").read_text())
    image = next(node for node in _definitions(tree) if node.name == "seminormal_image")
    found = {"YElement", "_trusted", "_sorted"} & set(_names_used(image))
    assert not found, found


# The block layout of a composition (Composition.offsets, where each part's
# positions start) is read in permutations alone: the other modules split an
# element of a Young subgroup with factor_in_young and join one with
# join_young.
def test_only_permutations_reads_block_offsets():
    found = []
    for path in sorted(SRC.glob("*.py")):
        names = set(_names_used(ast.parse(path.read_text(), str(path))))
        if path.name == "permutations.py":
            assert "offsets" in names
        elif "offsets" in names:
            found.append(path.name)
    assert not found, found


# The block of a composition (coset representative pi_k and character chi_k,
# read at index k - 1) is built in permutations alone, by coset_system and
# block_characters; no module keeps a record of it or a second way to the
# k-th character.
RETIRED_BLOCK_NAMES = ("CosetSystem", "staircase_exponents", "character_exponents",
                       "_character_lookup")


def test_only_permutations_builds_a_block():
    defined, found = [], []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        defined.extend(path.name for node in ast.walk(ast.parse(text, str(path)))
                       if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                       and node.name == "block_characters")
        found.extend("%s: %s" % (path.name, name)
                     for name in RETIRED_BLOCK_NAMES if name in text)
    assert defined == ["permutations.py"], defined
    assert not found, found


# The canonical RatFunc form (a Laurent numerator over an exponent vector of
# F_j, kept canonical by trial division) is built, factored and evaluated in
# scalars alone, through one trial-division loop. No other module reads it:
# yokonuma passes RatFuncs to scalars.over_one_denominator and gets term
# tuples back, and names neither an exponent vector nor a numerator object.
FORM_HELPERS = {"_normalize", "_divide_out", "_rows_quotient", "_den_factor", "_dense_rows",
                "_factor_den", "_lift", "_den_terms"}


def _calls_ratfunc_raw(tree):
    return any(isinstance(node, ast.Attribute) and node.attr == "_raw"
               and isinstance(node.value, ast.Name) and node.value.id == "RatFunc"
               for node in ast.walk(tree))


def test_only_scalars_builds_the_canonical_form():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "scalars.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        names = set(_names_used(tree))
        found.extend("%s: %s" % (path.name, name) for name in sorted(FORM_HELPERS & names))
        if _calls_ratfunc_raw(tree):
            found.append("%s: RatFunc._raw" % path.name)
        if "den_exps" in names:
            found.append("%s: den_exps" % path.name)
        if any(isinstance(node, ast.Attribute) and node.attr == "num"
               for node in ast.walk(tree)):
            found.append("%s: .num" % path.name)
    assert not found, found
    tree = ast.parse((SRC / "scalars.py").read_text())
    names = set(_names_used(tree))
    assert FORM_HELPERS <= names, FORM_HELPERS - names
    loops = [node.name for node in _definitions(tree)
             if node.name != "_rows_quotient" and "_rows_quotient" in _names_used(node)]
    assert loops == ["_divide_out"], loops


def test_one_q_scalar_type():
    # a Laurent polynomial is a RatFunc with den_exps == (): no module
    # defines, binds or reads a second q-scalar type
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        defined = [node.name for node in ast.walk(tree)
                   if isinstance(node, (ast.ClassDef, ast.FunctionDef))]
        if "Laurent" in defined or "Laurent" in _names_used(tree):
            found.append(path.name)
    assert not found, found


# The Temperley-Lieb reduction acts by g_k on Jones coordinates, with Perm
# and RatFunc alone: no function of the Jones section of isomaps builds an
# algebra element, multiplies one or searches a word for a braid.
HECKE_PRODUCT_NAMES = {"YElement", "g_block", "hecke_term", "_braid_split"}


def test_jones_reduction_builds_no_hecke_products():
    text = (SRC / "isomaps.py").read_text()
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines, 1)
                 if line.startswith("# Temperley-Lieb reduction"))
    end = next(i for i, line in enumerate(lines, 1) if i > start and line.startswith("# ---"))
    section = [node for node in ast.parse(text).body
               if isinstance(node, ast.FunctionDef) and start < node.lineno < end]
    assert {"_jones_index", "_rho_perm", "rho_reduce"} <= {node.name for node in section}
    found = ["%s: %s" % (node.name, name) for node in section
             for name in sorted(HECKE_PRODUCT_NAMES & set(_names_used(node)))]
    assert not found, found


PERFBENCH = SRC.parent.parent / "perfbench"


def test_traced_names_resolve():
    # the benchmark's traced run finds library functions by name, so a
    # renamed one would only make its metric read 0. scalars._laurent_gcd is
    # the one known dead counter; it goes when the benchmark drops it
    sys.path.insert(0, str(PERFBENCH))
    try:
        tracing = importlib.import_module("tracing")
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))
    lib = workloads.load_ytl()
    names = (list(tracing.TIMED_CALLS) + list(tracing.COUNTED_CALLS.values())
             + [tuple(name.split(".", 1)) for name in tracing.HIT_RATIOS.values()])
    assert ("scalars", "RatFunc._normalize") in names
    assert ("scalars", "Cyclotomic.__mul__") in names
    unresolved = {"%s.%s" % name for name in names if tracing.resolve(lib, *name) is None}
    assert unresolved == {"scalars._laurent_gcd"}


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
