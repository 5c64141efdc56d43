"""Every name a library or test module imports at module level is used in that module.

No linter ships with the project, so this stands in for three checks of
one: an import left behind when the code that needed it goes fails
here, in the package and in the tests, and so do a private module-level
function or class that its own library module no longer references and
an export in ``ssnnls.__all__`` that no longer resolves.  ``__init__.py``
is exempt from the first, since its imports are the package's exports.
"""

import ast
from pathlib import Path

import pytest

import ssnnls

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ssnnls"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


def _unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds "a"; "import a.b as c" and "from a import b as c" bind "c"
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def _unreferenced_private_defs(source: str):
    """Module-level ``_name`` functions and classes that nothing in the module names."""
    tree = ast.parse(source)
    defined = {node.name: node.lineno for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.startswith("__")}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    return sorted((line, name) for name, line in defined.items() if name not in used)


def test_the_check_finds_an_unused_import():
    source = "import os\nimport scipy.linalg\nfrom typing import List as L, Dict\nx: L = scipy\n"
    assert _unused_imports(source) == [(1, "os"), (3, "Dict")]
    assert len(MODULES) > 5 and len(TESTS) > 5  # the globs found the package and the tests


@pytest.mark.parametrize("path", MODULES + TESTS,
                         ids=lambda p: p.name if p.parent == PACKAGE else f"tests/{p.name}")
def test_module_uses_every_import(path):
    assert _unused_imports(path.read_text()) == []


def test_the_check_finds_an_unreferenced_private_def():
    source = ("def _used():\n    pass\n\n\ndef _gone():\n    pass\n\n\n"
              "class _Left:\n    def _method(self):\n        pass\n\n\n"
              "def public():\n    return _used()\n")
    assert _unreferenced_private_defs(source) == [(5, "_gone"), (9, "_Left")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_references_every_private_def(path):
    assert _unreferenced_private_defs(path.read_text()) == []


def test_every_exported_name_resolves():
    assert ssnnls.__all__ and [n for n in ssnnls.__all__ if not hasattr(ssnnls, n)] == []
