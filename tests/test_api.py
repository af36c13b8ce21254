"""Every public name of ``src/dsproc`` has a user in ``src/dsproc``.

A public top-level function, class or constant, or a public method, that no
other place in the package names, as a name, an attribute or an import, is
API that only tests call, or nothing does: it goes, and its tests move to
the code that uses it. The names below are used from outside the package.
"""

import ast
from collections import Counter

from conftest import FIXTURES

SRC = FIXTURES.resolve().parent.parent / "src" / "dsproc"

EXEMPT = {
    "cli.main": "the console script of pyproject.toml's [project.scripts]",
    "domain.serialize_domain": "the writer of the domain language, whose round trip "
                               "through parse_domain the property tests pin",
    "process.serialize_process": "the writer of the process language, whose round trip "
                                 "through parse_process the property tests pin",
}


def _definitions(tree):
    """``(qualified name, node)`` of each public top-level function, class and
    constant of a module, and of each public method of its classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def _names(node):
    """Each name that ``node`` reads, as a name, an attribute or an import."""
    for each in ast.walk(node):
        if isinstance(each, ast.Name) and not isinstance(each.ctx, ast.Store):
            yield each.id
        elif isinstance(each, ast.Attribute):
            yield each.attr
        elif isinstance(each, ast.alias):
            yield each.name.rpartition(".")[2]


def test_every_public_name_of_dsproc_has_a_user_in_dsproc():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in sorted(SRC.glob("*.py"))}
    uses = Counter(name for tree in trees.values() for name in _names(tree))
    defined, unused = set(), []
    for module, tree in trees.items():
        for qualname, node in _definitions(tree):
            name = qualname.rpartition(".")[2]
            defined.add(f"{module}.{qualname}")
            if name.startswith("_") or f"{module}.{qualname}" in EXEMPT:
                continue
            # a use inside the definition itself, such as a recursive call, is no user
            if uses[name] == sum(used == name for used in _names(node)):
                unused.append(f"{module}.{qualname}")
    assert unused == []
    assert set(EXEMPT) <= defined  # no exemption outlives its name
