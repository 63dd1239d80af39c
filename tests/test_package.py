"""The package's public surface: README's library example runs as printed,
every module-level import and `__all__` entry names something real, and no
property is a second name for another object's attribute."""

import ast
import re
from pathlib import Path

import ultradiff

PACKAGE = Path(ultradiff.__file__).resolve().parent
README = PACKAGE.parents[1] / "README.md"


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
