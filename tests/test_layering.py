"""The package's modules import each other as a layered graph.

Every import of a possum module, wherever it sits in a file (inside a
function or an ``if TYPE_CHECKING:`` block too), is an edge of the
import graph.  The graph must be acyclic, and every such import must
sit at module level, so the graph read from the source is the one that
runs.
"""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import possum
from possum import engine
from possum.dsl import load_kb, load_world
from possum.revision import DependencyTracker

PACKAGE = Path(possum.__file__).parent


def _module_name(path: Path) -> str:
    parts = ("possum",) + path.relative_to(PACKAGE).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


MODULES = {_module_name(path): path for path in sorted(PACKAGE.rglob("*.py"))}


def _targets(module: str, node: ast.Import | ast.ImportFrom) -> list[str]:
    """The possum modules one import statement names."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names if alias.name.split(".")[0] == "possum"]
    if node.level == 0:
        base = node.module or ""
        if base.split(".")[0] != "possum":
            return []
    else:
        package = module if MODULES[module].name == "__init__.py" else module.rsplit(".", 1)[0]
        base = package.rsplit(".", node.level - 1)[0]
        if node.module:
            base = f"{base}.{node.module}"
    # ``from . import x`` names the submodule x when there is one.
    submodules = [f"{base}.{alias.name}" for alias in node.names]
    return [name for name in submodules if name in MODULES] or [base]


def _imports() -> list[tuple[str, str, ast.AST, bool]]:
    """(importer, imported, node, at module level) for every package import."""
    found = []
    for module, path in MODULES.items():
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        top_level = {id(node) for node in tree.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for target in _targets(module, node):
                    found.append((module, target, node, id(node) in top_level))
    return found


def test_every_module_is_parsed():
    assert {"possum", "possum.knowledge", "possum.cbr", "possum.engine"} <= MODULES.keys()


def test_imports_resolve_to_package_modules():
    unknown = [(src, dst) for src, dst, _, _ in _imports() if dst not in MODULES]
    assert unknown == []


def test_import_graph_is_acyclic():
    graph: dict[str, set[str]] = {module: set() for module in MODULES}
    for src, dst, _, _ in _imports():
        graph[src].add(dst)
    try:
        list(TopologicalSorter(graph).static_order())
    except CycleError as err:
        raise AssertionError(f"import cycle: {' -> '.join(err.args[1])}") from None


def test_package_imports_sit_at_module_level():
    nested = [
        f"{src} imports {dst} at line {node.lineno}"
        for src, dst, node, top in _imports()
        if not top
    ]
    assert nested == []


# The benchmark's tracer (perfbench/tracing.py) wraps these names, and
# skips a missing one without a word: a rename would zero its per-layer
# figures and fail nothing else.
TRACED_ENGINE_NAMES = ["antecedent_eval", "detach", "aggregate", "consensus", "substitute", "assert_evidence"]
TRACED_TRACKER_METHODS = ["on_update", "recompute", "track", "query"]


def test_the_names_the_tracer_wraps_exist():
    assert [name for name in TRACED_ENGINE_NAMES if not callable(getattr(engine, name, None))] == []
    missing = [name for name in TRACED_TRACKER_METHODS if not callable(getattr(DependencyTracker, name, None))]
    assert missing == []


def test_saturation_detaches_through_the_engine_name_once_per_fired_instance(monkeypatch):
    data = PACKAGE / "data"
    kb, world = load_kb(data / "demo.kb"), load_world(data / "m1.world")
    session = engine.QuerySession(kb, world.copy())
    session.saturate()
    fired = {
        id(path)
        for node in session._goals.values()
        for top in node.children
        for path in (top.children if top.kind == "precedent" else (top,))
        if path.kind in ("rule-instance", "case-instance")
    }
    calls = []
    detach = engine.detach

    def counting(*args):
        calls.append(args)
        return detach(*args)

    monkeypatch.setattr(engine, "detach", counting)
    engine.forward_saturate(kb, world.copy())
    assert len(fired) > 1
    assert len(calls) == len(fired)
