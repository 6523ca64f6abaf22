"""The package's interface as written: every parameter is read, and the
README's library code runs.

A parameter that the body never reads repeats something the caller already
passes another way, or is left over from an older signature. Each module of
``src/fairpc`` is parsed with ``ast``; module-level functions and the
methods of module-level classes are checked, nested closures are not.
``self``, ``cls`` and ``_``-prefixed names are exempt.
"""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "fairpc"
MODULES = sorted(SRC.glob("*.py"))


def checked_functions(tree):
    """The module-level functions and the methods of module-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item


def unread_parameters(fn):
    args = fn.args
    params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
    read = {node.id for stmt in fn.body for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [p for p in params
            if p not in ("self", "cls") and not p.startswith("_") and p not in read]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_parameter_is_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    unread = [f"{name}({param})" for name, fn in checked_functions(tree)
              for param in unread_parameters(fn)]
    assert unread == [], f"{path.name}: parameters never read: {', '.join(unread)}"


def test_the_check_sees_an_unread_parameter():
    tree = ast.parse("def f(a, b, _c):\n    return a\n"
                     "class K:\n    def g(self, d):\n        def inner(e):\n"
                     "            return 0\n        return inner(d)\n")
    assert {name: unread_parameters(fn) for name, fn in checked_functions(tree)} == {
        "f": ["b"], "K.g": []}


def test_the_readme_library_code_runs(capsys):
    # every python block under "Library use", in order, in one namespace
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, flags=re.S | re.M)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 3
    assert printed[0].endswith("certified: the run stopped once g-f <= 3*eps*n")
