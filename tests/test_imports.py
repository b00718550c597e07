"""The two routes stay independent: an import scan of the package and the oracles.

The series side and the enumeration side check each other, so neither may be
built from the other, and the test oracles may use only the public API.
"""

import ast
from pathlib import Path

import lagrange_forest

PACKAGE = Path(lagrange_forest.__file__).parent
HELPERS = Path(__file__).with_name("helpers.py")


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def imports(path: Path) -> list[tuple[set[str], bool]]:
    """(dotted targets, under TYPE_CHECKING) for every import statement.

    Relative imports are resolved against the package, and ``from m import x``
    targets both ``m`` and ``m.x``, so a submodule import is seen either way.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    guarded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and _is_type_checking(node.test):
            for child in node.body:
                guarded.update(id(sub) for sub in ast.walk(child))
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.append(({alias.name for alias in node.names}, id(node) in guarded))
        elif isinstance(node, ast.ImportFrom):
            base = "lagrange_forest" if node.level else ""
            module = ".".join(part for part in (base, node.module) if part)
            targets = {module} | {f"{module}.{alias.name}" for alias in node.names}
            out.append((targets, id(node) in guarded))
    return out


def test_series_and_inversion_import_nothing_from_combinat():
    for module in ("series", "inversion"):
        for targets, _ in imports(PACKAGE / f"{module}.py"):
            assert "lagrange_forest.combinat" not in targets, module


def test_combinat_imports_series_only_for_type_checking():
    series_imports = [
        guarded
        for targets, guarded in imports(PACKAGE / "combinat.py")
        if "lagrange_forest.series" in targets
    ]
    assert series_imports, "the KernelFamily annotation import is expected"
    assert all(series_imports)


def test_helpers_import_no_private_library_name():
    for targets, _ in imports(HELPERS):
        for target in targets:
            parts = target.split(".")
            if parts[0] == "lagrange_forest":
                assert not any(part.startswith("_") for part in parts), target
