"""Source-layout guards: what the library defines, the library uses."""
import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "adiclab"

# Reached only by tests, on purpose: each is the independent route that an
# acceptance criterion compares the library against.
TEST_ONLY = {
    "koszul_route_cc",  # criterion 7: telescope route against Koszul route
    "image_coker",      # criterion 6a: kernel/image/cokernel by enumeration
}


def _loads(node):
    """Names that Name or Attribute loads inside `node` read.  Imports
    bind names without loading them, so they add nothing."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))
            and isinstance(n.ctx, ast.Load)}


def test_library_definitions_have_library_callers():
    # one entry per top-level statement of the library
    statements = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            statements.append((path.name, node, _loads(node)))
    defs = [(fname, node) for fname, node, _ in statements
            if fname != "__init__.py"
            and isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name not in TEST_ONLY]
    uncalled = [f"{fname}:{node.name}" for fname, node in defs
                if not any(node.name in loads
                           for _, other, loads in statements
                           if other is not node)]
    assert not uncalled, "no caller in src/adiclab: " + ", ".join(uncalled)


def test_adic_and_derived_decide_presentations_only():
    # the anomalous example's module and its readers live in `theorems`;
    # the deciders take modules and complexes as presented
    for name in ("adic.py", "derived.py"):
        assert "DecayModule" not in (SRC / name).read_text(encoding="utf-8")


def test_only_adic_reads_the_chain_profile():
    # the deciders in `adic` are the one reader of the chain analysis;
    # elsewhere only the independent routes that tests compare may load it
    readers = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "adic.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if ("chain_profile" in _loads(node)
                    and getattr(node, "name", None) not in TEST_ONLY):
                readers.append(f"{path.name}:{getattr(node, 'name', '?')}")
    assert not readers, "chain_profile read outside adic: " + ", ".join(
        readers)


def test_no_library_line_mutates_element_terms_in_place():
    # ring elements share term dicts (each ring's one zero, and terms
    # passed on without normalization), so no library line may change a
    # `.terms` dict after construction
    mutators = {"pop", "popitem", "update", "setdefault", "clear"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Subscript)
                    and not isinstance(node.ctx, ast.Load)):
                target = node.value
            elif (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in mutators):
                target = node.func.value
            else:
                continue
            if isinstance(target, ast.Attribute) and target.attr == "terms":
                found.append(f"{path.name}:{node.lineno}")
    assert not found, "in-place change of .terms: " + ", ".join(found)
