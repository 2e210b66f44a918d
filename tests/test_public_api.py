"""The public API: each name is declared once, and the library uses each one."""

import ast
import builtins
import importlib
import pathlib
import pkgutil

import esjs
from esjs import ConvergenceError

PACKAGE = pathlib.Path(esjs.__file__).parent
PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"

# Public names that nothing in the library calls, kept for their users and
# checked by the tests: survival_entropy is the paper's entropy of an empirical
# survival, which acceptance criterion 7 checks and the README lists.  The
# order-statistics form of the divergence, which combines three such
# entropies, is a test oracle (conftest.esjs_spacings), and model densities
# and survivals come from scipy.stats (conftest.scipy_distribution).
TEST_REFERENCES = {"survival_entropy"}


def _modules():
    return [importlib.import_module(f"esjs.{m.name}") for m in pkgutil.iter_modules(esjs.__path__)]


def _top_level_definitions(module) -> set[str]:
    tree = ast.parse(pathlib.Path(module.__file__).read_text())
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def _names_used(path: pathlib.Path) -> set[str]:
    """Names read in ``path``, bare or as an attribute, outside the body of a
    top-level definition of the same name; imports and ``__all__`` strings are
    no use."""
    used = set()
    for top in ast.parse(path.read_text()).body:
        own = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            if name != own:
                used.add(name)
    return used


def test_each_public_name_is_declared_once_in_its_own_module():
    declared: dict[str, list[str]] = {}
    for module in _modules():
        defined = _top_level_definitions(module)
        assert [n for n in module.__all__ if n not in defined] == [], module.__name__
        for name in module.__all__:
            declared.setdefault(name, []).append(module.__name__)
    assert len(set(esjs.__all__)) == len(esjs.__all__)
    assert {n: declared.get(n, []) for n in esjs.__all__ if len(declared.get(n, [])) != 1} == {}
    # the package gathers the modules' lists and writes no name itself
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    written = {node.value for node in ast.walk(init) if isinstance(node, ast.Constant)}
    written |= {node.name for node in ast.walk(init) if isinstance(node, ast.alias)}
    assert written & set(esjs.__all__) == set()


def test_each_public_name_has_a_caller():
    files = sorted(PACKAGE.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))
    used = set().union(*(_names_used(path) for path in files))
    public = set(esjs.__all__)
    assert public - used - TEST_REFERENCES == set()
    # a name leaves the list once the library calls it
    assert TEST_REFERENCES <= public
    assert TEST_REFERENCES & used == set()


def _unread_imports(path: pathlib.Path) -> set[str]:
    """Names that ``path`` imports, anywhere in it, and never reads."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return imported - read - {"*"}


def test_each_imported_name_is_read():
    unread = {path.name: _unread_imports(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: names for name, names in unread.items() if names} == {}


def test_the_kernel_alone_sizes_its_chunks():
    # callers hand the kernel a workspace, and it takes its chunk buffers from there
    modules = _modules()
    readers = [m.__name__ for m in modules if "_CHUNK" in _names_used(pathlib.Path(m.__file__))]
    owners = [m.__name__ for m in modules if "_Workspace" in _top_level_definitions(m)]
    assert readers == owners == ["esjs.divergence"]


def test_the_divergence_module_owns_the_replicate_score():
    # gof hands the bootstrap divergence._resampled_esjs, so the packed counts'
    # layout, the workspace and the snapping to bin edges stay behind it
    modules = _modules()
    for name in ("_step_sum", "_Workspace"):
        readers = [m.__name__ for m in modules if name in _names_used(pathlib.Path(m.__file__))]
        assert readers == ["esjs.divergence"], name
    gof = ast.parse((PACKAGE / "gof.py").read_text())
    from_survival = [alias.name for node in ast.walk(gof)
                     if isinstance(node, ast.ImportFrom) and node.module == "survival"
                     for alias in node.names]
    assert "SortedSample" in from_survival  # the relative import this looks for
    assert [name for name in from_survival if name.startswith("_")] == []
    # replicates run on plain threads, not on an executor
    imported = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module)
    assert "threading" in imported
    assert [m for m in imported if m.split(".")[0] == "concurrent"] == []


def test_one_newton_loop_reads_the_iteration_cap():
    # every iterative fit runs distributions._newton, and a loop of its own
    # would read the cap too; a read in a nested function counts for the
    # top-level function around it
    readers = []
    for module in _modules():
        for top in ast.parse(pathlib.Path(module.__file__).read_text()).body:
            reads = (
                (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                 and node.id == "_MAX_ITER")
                or (isinstance(node, ast.Attribute) and node.attr == "_MAX_ITER")
                for node in ast.walk(top)
            )
            if any(reads):
                readers.append(f"{module.__name__}.{getattr(top, 'name', '<module>')}")
    assert readers == ["esjs.distributions._newton"]


def _resolve(node, namespace):
    """The object that a name or dotted attribute denotes in a module's namespace."""
    if isinstance(node, ast.Attribute):
        return getattr(_resolve(node.value, namespace), node.attr)
    return namespace[node.id] if node.id in namespace else getattr(builtins, node.id)


def test_no_except_tuple_lists_a_class_and_its_base():
    # a numerical failure is one class: ConvergenceError is an ArithmeticError,
    # so a handler that lists both names one of them for nothing
    assert issubclass(ConvergenceError, ArithmeticError)
    handlers = 0
    for module in _modules():
        for node in ast.walk(ast.parse(pathlib.Path(module.__file__).read_text())):
            if isinstance(node, ast.ExceptHandler) and isinstance(node.type, ast.Tuple):
                handlers += 1
                classes = [_resolve(member, vars(module)) for member in node.type.elts]
                assert [(a.__name__, b.__name__) for a in classes for b in classes
                        if a is not b and issubclass(a, b)] == [], (module.__name__, node.lineno)
    assert handlers >= 3  # the tuples in cli and distributions that this reads
