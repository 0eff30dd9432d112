"""The package surface is what the program calls.

The package root holds only its docstring, and every public function, class
and method defined in `src/midconvex/` is named somewhere outside its own
definition: elsewhere in `src/`, in the benchmark's modules (whose traced
names `tracing.SPANNED` and `tracing.COUNTED` list as strings), or in the
README's library example. A name that only tests call belongs in the tests.
"""

import ast
import pathlib
import re
from collections import defaultdict

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "midconvex"


def named(tree):
    """(name, line) for every name, attribute and imported name the tree mentions."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno


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


def test_the_package_root_holds_only_its_docstring():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert len(tree.body) == 1 and ast.get_docstring(tree), ast.dump(tree)


def test_every_public_name_is_called_outside_the_tests():
    outside = set()
    for path in sorted(ROOT.glob("bench/*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        outside.update(name for name, _ in named(tree))
        outside.update(traced_names(tree))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    example = re.search(r"## Library example\n\n```python\n(.*?)```", readme, re.S).group(1)
    outside.update(name for name, _ in named(ast.parse(example)))

    sources = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    mentions = defaultdict(list)
    for file, tree in sources.items():
        for name, line in named(tree):
            mentions[name].append((file, line))
    unused = []
    for file, tree in sources.items():
        for qualname, first, last in public_definitions(tree):
            name = qualname.rpartition(".")[2]
            if name not in outside and all(f == file and first <= line <= last for f, line in mentions[name]):
                unused.append(f"{file}:{qualname}")
    assert not unused, " ".join(unused)
