"""Every function, class and method in src/triqubit has a caller outside the tests.

Routes that only the tests call belong in tests/oracles.py. A name counts as
called when something outside the tests reaches it: the package's own
module-level code, bench/gate.py, bench/tracer.py, scripts/ and
tests/test_acceptance.py are the roots, and a definition reached from them
reaches every name its body uses. Names are matched by spelling alone, so a
method counts as reached when any reached code reads an attribute of that
name. A string that spells a name counts as a reference too (cli._SWEEPS
names the sweep drivers by string), unless it is passed straight to a call
other than getattr, where it is a label or a message. Imports are not uses:
the triqubit exports keep nothing alive.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "triqubit"
CALLERS = [ROOT / "bench" / "gate.py", ROOT / "bench" / "tracer.py",
           *sorted((ROOT / "scripts").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]

_BY_NAME = {"getattr", "hasattr", "setattr"}


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _docstrings(tree):
    """ids of the docstring nodes of a module, its classes and functions."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                out.add(id(body[0].value))
    return out


def _labels(tree):
    """ids of the string constants passed straight to a call other than getattr."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in _BY_NAME:
                continue
            for arg in [*node.args, *(k.value for k in node.keywords)]:
                for sub in ast.walk(arg):
                    if isinstance(sub, ast.Constant):
                        out.add(id(sub))
    return out


def _references(nodes, skip):
    """Names read, attributes read and identifier strings in nodes."""
    out = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and node.value.isidentifier() and id(node) not in skip):
                out.add(node.value)
    return out


def _file_references(path):
    tree = _parse(path)
    return _references([tree], _docstrings(tree) | _labels(tree))


def _definitions():
    """{qualified name: (plain name, references of its def)} of src/triqubit,
    and the references of its module-level code and class bodies."""
    defs, module_level = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _parse(path)
        skip = _docstrings(tree) | _labels(tree)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs[f"{path.stem}.{node.name}"] = (node.name, _references([node], skip))
            elif isinstance(node, ast.ClassDef):
                defs[f"{path.stem}.{node.name}"] = (node.name, set())
                module_level |= _references(node.decorator_list + node.bases, skip)
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        defs[f"{path.stem}.{node.name}.{item.name}"] = (
                            item.name, _references([item], skip))
                    else:  # fields, defaults and enum members
                        module_level |= _references([item], skip)
            else:
                module_level |= _references([node], skip)
    return defs, module_level


def unreached_definitions():
    """Qualified names in src/triqubit that nothing outside the tests reaches.

    Dunder methods count as reached: Python calls them itself.
    """
    defs, reached = _definitions()
    for path in CALLERS:
        reached |= _file_references(path)
    reached |= {name for name, _ in defs.values() if name.startswith("__") and name.endswith("__")}
    live = set()
    while True:
        new = {q for q, (name, _) in defs.items() if name in reached and q not in live}
        if not new:
            break
        live |= new
        for q in new:
            reached |= defs[q][1]
    return sorted(q for q in defs if q not in live)


def test_every_definition_has_a_caller_outside_the_tests():
    unreached = unreached_definitions()
    assert not unreached, "no caller outside the tests: " + ", ".join(unreached)
