"""Imports, by ast scans: every imported name is used, in the package and
the tests, and no package module imports another module's private name.

No linter ships with the project, so this stands in for the unused-import
rule.  ``__init__.py`` is skipped there: its imports are the public
re-exports.  The private-name scan covers it too, so each kernel is read
only through its owner module's public names.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "belyi_forge").glob("*.py"))
SOURCES = sorted(
    p for p in [*PACKAGE, *(ROOT / "tests").glob("*.py")] if p.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_scan_flags_an_unused_import():
    assert unused_imports("import os\nimport sys\nprint(sys.argv)\n") == ["os (line 1)"]
    assert unused_imports("from a import b as c\nc()\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def private_imports(source: str) -> list[str]:
    """Imported names with a leading underscore in any dotted part."""
    return sorted(
        f"{alias.name} (line {node.lineno})"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
        if any(part.startswith("_") for part in alias.name.split("."))
    )


def test_scan_flags_a_private_import():
    source = "from __future__ import annotations\nfrom .a import _b, c\nimport d._e\n"
    assert private_imports(source) == ["_b (line 2)", "d._e (line 3)"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_private_imports_across_modules(path):
    assert private_imports(path.read_text()) == []


def test_the_nodal_u_census_is_the_paired_one():
    import belyi_forge
    from belyi_forge import arrangement_jd, belyi_numeric

    # The nodal surface reads U from the Chebyshev path like any paired
    # surface, so the U census and its type are belyi_numeric's alone.
    for name in ("UCensus", "vertex_u_census", "chebyshev_solution"):
        assert getattr(belyi_forge, name) is getattr(belyi_numeric, name)
    assert not hasattr(arrangement_jd, "UCensus")
    # The axis census and its error type are gone.
    for name in ("nodal_u_census", "DegenerateAxisError"):
        assert not hasattr(arrangement_jd, name) and not hasattr(belyi_forge, name)