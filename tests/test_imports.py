"""Every name a ``ramloci`` module imports is used there, and no module
builds records with a factory of its own.

A name counts as used when the module reads it (annotations included,
also those written as strings), when the module's ``__all__`` exports
it, or when ``ALLOWED`` names it with a reason.  Records derive from
``numeric.Value`` like every other value type, so ``NamedTuple``,
``namedtuple`` and ``dataclasses`` appear in no module.
"""

import ast
from pathlib import Path

import pytest

import ramloci

SRC = Path(ramloci.__file__).resolve().parent

RECORD_FACTORIES = {"NamedTuple", "namedtuple", "dataclass", "dataclasses"}

# (module, name) -> why the module imports a name it does not use
ALLOWED = {
    ("curves", "bareiss_det"): "perfbench/tracer.py looks the wronskian's Bareiss layer up "
    "as curves.bareiss_det",
}


def _imported(tree):
    """The names the module's import statements bind, by line."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
    return out


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree):
    """The names the module reads, including those inside string annotations."""
    trees = [tree]
    for annotation in _annotations(tree):
        for node in ast.walk(annotation) if annotation is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                trees.append(ast.parse(node.value, mode="eval"))
    return {n.id for t in trees for n in ast.walk(t) if isinstance(n, ast.Name)}


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree) | _exported(tree)
    unused = [
        f"{path.name}:{line} imports {name}"
        for name, line in _imported(tree).items()
        if name not in used and (path.stem, name) not in ALLOWED
    ]
    assert not unused, "\n".join(unused)


def test_allowlist_names_only_unused_imports():
    # an entry whose name the module has come to use, or no longer
    # imports, is stale
    for module, name in ALLOWED:
        tree = ast.parse((SRC / f"{module}.py").read_text())
        assert name in _imported(tree) and name not in _used(tree) | _exported(tree)


def test_check_sees_a_string_annotation_and_an_unused_import():
    tree = ast.parse("import os\nfrom x import A, B\ndef f(a: 'A') -> None: pass\n")
    assert set(_imported(tree)) - _used(tree) == {"os", "B"}


def _record_factories(tree):
    """The record factories the module imports, or reads off a module."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            found.update([(node.module or "").split(".")[0], *(a.name for a in node.names)])
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found & RECORD_FACTORIES


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_records_have_no_factory_besides_value(path):
    found = _record_factories(ast.parse(path.read_text(), filename=str(path)))
    assert not found, f"{path.name} uses {sorted(found)}; derive records from numeric.Value"


@pytest.mark.parametrize(
    "source",
    [
        "from typing import Mapping, NamedTuple",
        "import typing\nclass R(typing.NamedTuple): pass",
        "from collections import namedtuple",
        "import dataclasses",
        "from dataclasses import dataclass, field",
    ],
)
def test_record_factory_check_sees_each_spelling(source):
    assert _record_factories(ast.parse(source))
    assert not _record_factories(ast.parse("from typing import Mapping\nimport collections"))
