"""The package's public surface: README's library example runs as printed,
every module-level import and `__all__` entry names something real, every
definition has a user, and no property is a second name for another object's
attribute."""

import ast
import importlib
import re
from collections import Counter
from pathlib import Path

import ultradiff

PACKAGE = Path(ultradiff.__file__).resolve().parent
README = PACKAGE.parents[1] / "README.md"
PERFBENCH = PACKAGE.parents[1] / "perfbench"


def test_readme_library_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## Library\n"):]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    # the values the block's comments promise
    assert lines[0] == "CONTROLLABLE"
    assert lines[-1] == "True"


def _module_all(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def test_no_unused_module_level_imports():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= _module_all(tree)
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert not unused


def test_every_all_entry_is_defined():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            defined |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.Assign):
            defined |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
    exported = _module_all(tree)
    assert exported
    assert not exported - defined, sorted(exported - defined)


def _is_forwarding_property(node: ast.AST) -> bool:
    """A @property or @cached_property whose body, past its docstring, only
    returns self.<attr>.<attr>: a second name for another object's value."""
    if not isinstance(node, ast.FunctionDef) or not any(
            (d.id if isinstance(d, ast.Name) else getattr(d, "attr", None))
            in ("property", "cached_property") for d in node.decorator_list):
        return False
    body = node.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    if len(body) != 1 or not isinstance(body[0], ast.Return):
        return False
    value = body[0].value
    return (isinstance(value, ast.Attribute) and isinstance(value.value, ast.Attribute)
            and isinstance(value.value.value, ast.Name) and value.value.value.id == "self")


def test_no_property_only_forwards_an_attribute_of_an_attribute():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [f"{path.name}:{node.lineno} {node.name}"
                  for node in ast.walk(tree) if _is_forwarding_property(node)]
    assert not found, found


def _names_read(node: ast.AST) -> Counter:
    """Every name `node` reads: bare names, attribute names and imported names."""
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            names[sub.name.split(".")[-1]] += 1
    return names


def _definitions(tree: ast.Module):
    """(class or None, definition node) for each module-level function and
    class and each method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield None, node
        if isinstance(node, ast.ClassDef):
            yield from ((node, item) for item in node.body
                        if isinstance(item, ast.FunctionDef))


def _overrides(module: str, cls: ast.ClassDef, name: str) -> bool:
    """Whether method `name` of `cls` overrides one of a base class."""
    live = getattr(importlib.import_module(f"ultradiff.{module}"), cls.name)
    return any(name in vars(base) for base in live.__mro__[1:])


def test_every_definition_has_a_user():
    """A function, class or method of the package is read by package code
    outside its own definition, exported in `ultradiff.__all__`, a dunder,
    an override of a base-class method, or imported by perfbench: no verb
    carries code that only the tests call."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    read = sum((_names_read(tree) for tree in trees.values()), Counter())
    kept = set(ultradiff.__all__)
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        kept |= {alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)
                 and (node.module or "").startswith("ultradiff")
                 for alias in node.names}
    unused = []
    for module, tree in trees.items():
        for cls, node in _definitions(tree):
            name = node.name
            if (read[name] > _names_read(node)[name] or name in kept
                    or (name.startswith("__") and name.endswith("__"))
                    or (cls is not None and _overrides(module, cls, name))):
                continue
            owner = f"{cls.name}." if cls is not None else ""
            unused.append(f"{module}.py:{node.lineno} {owner}{name}")
    assert not unused, unused
