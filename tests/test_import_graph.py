"""The package's modules import one another without a cycle.

Every import of a strandtrace module counts, at module level or inside a
function, since a function-local import hides a cycle rather than breaking
it."""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import strandtrace

PACKAGE = Path(strandtrace.__file__).parent
MODULES = {path.stem: path for path in PACKAGE.glob("*.py")}


def imported_modules(source):
    """The strandtrace modules that ``source`` imports; a name imported from
    the package itself counts as its module when there is one, else as
    ``__init__``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module == "strandtrace":
                names = ["strandtrace." + alias.name for alias in node.names]
            else:
                names = [node.module]
        else:
            continue
        for name in names:
            head, _, rest = name.partition(".")
            if head == "strandtrace":
                module = rest.split(".")[0]
                found.add(module if module in MODULES else "__init__")
    return found


def import_graph():
    return {name: imported_modules(path.read_text()) for name, path in MODULES.items()}


def test_the_import_graph_has_no_cycle():
    graph = import_graph()
    try:
        order = list(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        raise AssertionError("import cycle: %s" % " -> ".join(exc.args[1])) from None
    assert set(order) == set(MODULES)


def test_strands_is_a_leaf():
    assert import_graph()["strands"] == set()


def test_imports_inside_functions_count():
    source = "def f():\n    from strandtrace.orders import x\n    import strandtrace.oracle\n"
    assert imported_modules(source) == {"orders", "oracle"}
    assert imported_modules("from strandtrace import kernels, __version__") == {
        "kernels", "__init__"
    }
