"""The package's modules form layers: their imports of one another make
no cycle, sit at module level, and take no private name."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "reldistill"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def _sibling_imports(tree):
    """(module, imported names, whether inside a function) of each import
    of a sibling module: `from .x import ...`, `from reldistill.x import
    ...`, `from . import x` and `import reldistill.x`."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    inside = set()
    for node in ast.walk(tree):
        if isinstance(node, functions):
            inside.update(id(n) for n in ast.walk(node) if n is not node)
    for node in ast.walk(tree):
        nested = id(node) in inside
        if isinstance(node, ast.ImportFrom):
            names = [a.name for a in node.names]
            if node.level == 1 and node.module is None:
                for name in names:
                    yield name, [], nested
            elif (node.level == 1 and node.module) or (
                node.level == 0 and (node.module or "").startswith("reldistill.")
            ):
                yield node.module.rsplit(".", 1)[-1], names, nested
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("reldistill."):
                    yield alias.name.rsplit(".", 1)[-1], [], nested


def _imports():
    return {
        name: list(_sibling_imports(ast.parse((PACKAGE / f"{name}.py").read_text())))
        for name in MODULES
    }


def _cycle(graph):
    """One import cycle of `graph` (module -> the modules it imports) as a
    list of modules ending where it starts, or None."""
    state = {}  # module -> "open" while on the stack, "done" after

    def visit(module, path):
        state[module] = "open"
        for dep in sorted(graph[module]):
            if state.get(dep) == "open":
                return path[path.index(dep):] + [dep]
            if dep not in state:
                found = visit(dep, path + [dep])
                if found:
                    return found
        state[module] = "done"
        return None

    for module in sorted(graph):
        if module not in state:
            found = visit(module, [module])
            if found:
                return found
    return None


def test_the_scan_sees_the_package():
    imports = _imports()
    assert {"mentions", "pipeline", "propagation"} <= set(MODULES)
    assert "propagation" in {module for module, _, _ in imports["mentions"]}


def test_sibling_imports_form_no_cycle():
    graph = {name: {module for module, _, _ in deps} for name, deps in _imports().items()}
    cycle = _cycle(graph)
    assert cycle is None, " -> ".join(cycle)


def test_no_module_imports_a_sibling_inside_a_function():
    nested = [
        f"{name} imports {module} in a function"
        for name, deps in _imports().items()
        for module, _, inside in deps
        if inside
    ]
    assert nested == []


def test_no_module_imports_a_private_name_of_a_sibling():
    private = [
        f"{name} imports {module}.{imported}"
        for name, deps in _imports().items()
        for module, names, _ in deps
        for imported in names
        if imported.startswith("_")
    ]
    assert private == []


def test_cycle_finder_reports_a_cycle():
    assert _cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert _cycle({"a": {"b"}, "b": set()}) is None
