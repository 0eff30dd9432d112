"""The package surface is what the program calls.

The package root holds only its docstring, and every public function, class
and method defined in `src/midconvex/` is named somewhere outside its own
definition: elsewhere in `src/`, in the benchmark's modules (whose traced
names `tracing.SPANNED` and `tracing.COUNTED` list as strings), or in the
README's library example. A public method counts as named only through an
attribute access (`.name`) or a traced string, since a bare variable that
shares its name calls nothing. A name that only tests call belongs in the tests.
Likewise every dataclass field is read as an attribute somewhere in `src/`,
the benchmark's modules or the library example.
"""

import ast
import pathlib
import re
from collections import defaultdict

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "midconvex"


def named(tree):
    """(name, line, is an attribute) for every name, attribute and imported name the tree mentions."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, True
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno, False


def traced_names(tree):
    """The strings listed in the tracer's SPANNED and COUNTED tables."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) in ("SPANNED", "COUNTED") for t in node.targets):
            for leaf in ast.walk(node.value):
                if isinstance(leaf, ast.Constant) and isinstance(leaf.value, str):
                    yield leaf.value


def public_definitions(tree):
    """(name, first line, last line) of each public top-level def or class and public method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.lineno, item.end_lineno


def dataclass_fields(tree):
    """(class.field, line) of each annotated field of each top-level @dataclass class."""
    for node in tree.body:
        decorators = [d.func if isinstance(d, ast.Call) else d for d in getattr(node, "decorator_list", ())]
        if isinstance(node, ast.ClassDef) and any(getattr(d, "id", None) == "dataclass" for d in decorators):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield f"{node.name}.{item.target.id}", item.lineno


def outside_names():
    """(names, attribute names) that the benchmark's modules and the README's library example mention.

    A traced string counts as both.
    """
    anywhere, as_attribute = set(), set()
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    example = re.search(r"## Library example\n\n```python\n(.*?)```", readme, re.S).group(1)
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(ROOT.glob("bench/*.py"))]
    for tree in [*trees, ast.parse(example)]:
        for name, _, attribute in named(tree):
            anywhere.add(name)
            if attribute:
                as_attribute.add(name)
        traced = set(traced_names(tree))
        anywhere |= traced
        as_attribute |= traced
    return anywhere, as_attribute


def test_the_package_root_holds_only_its_docstring():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert len(tree.body) == 1 and ast.get_docstring(tree), ast.dump(tree)


def test_every_public_name_is_called_outside_the_tests():
    # names met outside src/ at all, and those met as attributes or traced strings
    anywhere, as_attribute = outside_names()
    sources = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    mentions = defaultdict(list)
    for file, tree in sources.items():
        for name, line, attribute in named(tree):
            mentions[name].append((file, line, attribute))
    unused = []
    for file, tree in sources.items():
        for qualname, first, last in public_definitions(tree):
            name = qualname.rpartition(".")[2]
            method = "." in qualname
            calls = [(f, line) for f, line, attribute in mentions[name] if attribute or not method]
            outside = as_attribute if method else anywhere
            if name not in outside and all(f == file and first <= line <= last for f, line in calls):
                unused.append(f"{file}:{qualname}")
    assert not unused, " ".join(unused)


def test_every_dataclass_field_is_read():
    # a field is read through an attribute access; the AnnAssign that defines it is a bare name
    read = outside_names()[1]
    sources = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    for tree in sources.values():
        read |= {name for name, _, attribute in named(tree) if attribute}
    fields = {
        f"{file}:{line}:{qualname}": qualname for file, tree in sources.items() for qualname, line in dataclass_fields(tree)
    }
    assert "RationalDecomposition.depth" in fields.values()
    unread = [where for where, qualname in fields.items() if qualname.rpartition(".")[2] not in read]
    assert not unread, " ".join(unread)


def test_the_membership_rule_lives_in_rationals():
    # coprime_part derives membership; RationalGroupDescriptor.modulus is its one use outside the constructor
    where = defaultdict(list)
    for path in sorted(PACKAGE.glob("*.py")):
        for name, line, _ in named(ast.parse(path.read_text(encoding="utf-8"))):
            if name in ("coprime_part", "_halving_modulus"):
                where[name].append(f"{path.name}:{line}")
    assert not where["_halving_modulus"], where["_halving_modulus"]
    assert {site.partition(":")[0] for site in where["coprime_part"]} == {"rationals.py"}, where["coprime_part"]


def test_sweep_columns_stay_integers():
    # sampled columns are drawn whole and lemma 1 masks them, so no digit
    # string is formatted or joined on the way, and engine needs no itemgetter
    trees = {name: ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8")) for name in ("harness", "engine")}
    for module, function in (("harness", "_subset_columns"), ("engine", "lemma1_failures")):
        (body,) = [node for node in trees[module].body if getattr(node, "name", None) == function]
        used = {name for name, _, _ in named(body)}
        assert not used & {"format", "join"}, f"{module}.{function}"
    assert "itemgetter" not in {name for name, _, _ in named(trees["engine"])}


def test_only_the_sweep_driver_records_sweep_mismatches():
    # the three sweeps hand _sweep a reading, and _sweep alone turns the
    # difference of two words into records; the other campaigns record their own
    tree = ast.parse((PACKAGE / "harness.py").read_text(encoding="utf-8"))
    recorders = {
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and any(isinstance(leaf, ast.Attribute) and leaf.attr == "add_mismatch" for leaf in ast.walk(node))
    }
    sweeps = {"exhaustive_theorem2", "exhaustive_theorem1", "exhaustive_lemma1"}
    assert sweeps <= {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert recorders == {"_sweep", "sample_two_purity", "roundtrip_theorem3", "conjecture_hull_check"}, recorders


def test_sweep_kernels_keep_their_words_nonnegative():
    # a negative operand sends a big-int AND, OR or XOR through CPython's
    # two's-complement path, so the kernels complement within the subset
    # count (full ^ x) and start their ANDs from a nonnegative word: no ~
    # and no negative integer literal
    kernels = (
        ("engine", "midconvex_bits"), ("engine", "theorem1_bits"), ("engine", "lemma1_failures"),
        ("harness", "_odd_coset_bits"),
    )
    trees = {name: ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8")) for name in ("harness", "engine")}
    for module, function in kernels:
        (body,) = [node for node in trees[module].body if getattr(node, "name", None) == function]
        unary = [node for node in ast.walk(body) if isinstance(node, ast.UnaryOp)]
        inverts = [node.lineno for node in unary if isinstance(node.op, ast.Invert)]
        negatives = [node.lineno for node in unary if isinstance(node.op, ast.USub) and isinstance(node.operand, ast.Constant)]
        assert not inverts and not negatives, (f"{module}.{function}", inverts, negatives)


def test_the_list_reader_runs_no_python_step_per_member():
    # the JSON scanner and set(map(...)) passes read every member in C, so the
    # reader holds no loop and no comprehension
    tree = ast.parse((PACKAGE / "dsl.py").read_text(encoding="utf-8"))
    (body,) = [node for node in tree.body if getattr(node, "name", None) == "_read_list"]
    loops = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    found = [(type(node).__name__, node.lineno) for node in ast.walk(body) if isinstance(node, loops)]
    assert not found, found
