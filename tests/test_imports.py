"""Import scans: the two routes stay independent, and the surface stays small.

The series side and the enumeration side check each other, so neither may be
built from the other, and the test oracles may use only public names. The
package exports exactly ``__all__``, and it defines no public function or
class that nothing in it calls.
"""

import ast
import importlib.util
from pathlib import Path
from types import ModuleType

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


def test_inversion_imports_only_series_and_errors_from_the_package():
    # the identity checks and their reports live in harness, so the two
    # routes build on the series layer alone
    modules = {
        target.split(".")[1]
        for targets, _ in imports(PACKAGE / "inversion.py")
        for target in targets
        if target.startswith("lagrange_forest.")
    }
    assert modules == {"series", "errors"}
    assert importlib.util.find_spec("lagrange_forest.reports") is None


def test_combinat_imports_series_only_for_type_checking():
    series_imports = [
        guarded
        for targets, guarded in imports(PACKAGE / "combinat.py")
        if "lagrange_forest.series" in targets
    ]
    assert series_imports, "the FamilySeries annotation import is expected"
    assert all(series_imports)


def _names(tree: ast.AST) -> set[str]:
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def test_tree_route_and_combinat_never_reach_the_query_exponential():
    # the per-key box kernel belongs to the determinant route's queries; the
    # tree side of lagrange-good must not be built from it
    helpers = {"_box", "_box_exponential", "_query"}
    tree = ast.parse((PACKAGE / "inversion.py").read_text(encoding="utf-8"))
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert helpers <= set(defs)
    reached, todo = set(), ["solve_tree_fixed_point"]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(_names(defs[name]) & set(defs))
    assert not helpers & reached, sorted(reached)
    combinat = ast.parse((PACKAGE / "combinat.py").read_text(encoding="utf-8"))
    assert not helpers & _names(combinat)


def test_helpers_import_no_private_library_name():
    for targets, _ in imports(HELPERS):
        for target in targets:
            parts = target.split(".")
            if parts[0] == "lagrange_forest":
                assert not any(part.startswith("_") for part in parts), target


# ---------------------------------------------------------------------------
# the public surface

PUBLIC = [
    # the README's library sketch
    "ColorSet",
    "make_kernel_family",
    "solve_tree_fixed_point",
    "fredholm_determinant",
    "inverse_via_determinant",
    # imported by the acceptance suite
    "EnrichedMap",
    "enumerate_crowns",
    "enumerate_enriched_maps",
    "set_partitions",
    "tree_coefficient",
    "SuiteConfig",
    "run_suite",
    # errors
    "LagrangeForestError",
    "UnknownColor",
    "DuplicateKey",
    "KeyTooLarge",
    "OrderMismatch",
    "ColorSetMismatch",
    "NonzeroConstantTerm",
    "TooManyPins",
    "BlockTooLarge",
    "EmptySubset",
    "SizeCapExceeded",
    "UnknownSuite",
]


def test_public_surface_is_all():
    assert lagrange_forest.__all__ == PUBLIC
    exported = {
        name
        for name, value in vars(lagrange_forest).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert exported == set(PUBLIC)


def test_acceptance_imports_only_public_names():
    acceptance = Path(__file__).with_name("test_acceptance.py")
    tree = ast.parse(acceptance.read_text(encoding="utf-8"))
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "lagrange_forest"
        for alias in node.names
    }
    assert imported
    assert imported <= set(lagrange_forest.__all__)


def test_every_public_definition_has_a_caller():
    # a public top-level def or class must be named somewhere in the package
    # besides its own definition; cli.main is the command's entry point
    sources = {
        path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")
    }
    defined = {
        (module, node.name)
        for module, tree in sources.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    # a re-export in __init__ is an import, not a Name, so it does not count
    used = set().union(*(_names(tree) for tree in sources.values()))
    unused = sorted(
        f"{module}.{name}"
        for module, name in defined
        if name not in used and (module, name) != ("cli", "main")
    )
    assert not unused, unused
