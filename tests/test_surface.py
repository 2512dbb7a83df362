"""Lints of the surface of ``src/bolab`` against its callers: ``src/bolab``
itself and ``perfbench/*.py``, what a command or a benchmark workload runs.
What only the tests call, the acceptance criteria included, belongs with
them, in ``tests/oracles.py``: a criterion measures with the code that a
command runs.

* Every top-level function and class, and every method of a top-level class
  (dunder methods aside, which Python calls), has a caller: a name or
  attribute reference to it somewhere outside its own definition.
* Every defaulted parameter of a function or method is passed by some call
  of that name: by keyword, or by position (a method's ``self`` is not
  passed, and ``__init__`` is called by its class's name), or through
  ``*args`` or ``**kwargs``.
* Dually, every defaulted parameter is omitted by some call of that name in
  ``src/bolab``, ``perfbench`` or ``tests``: a default that every call
  overrides is a required parameter.  A call through ``*args`` or
  ``**kwargs`` may pass it, so it omits nothing.

* The package's imports form a DAG: one edge per relative import, function-
  local ones included, and no cycle.

* A run is one process: no module imports ``pickle``, ``signal`` or
  ``multiprocessing``, or calls or imports ``os.fork``, ``os.pipe``,
  ``os.kill`` or ``os.waitpid``.

* The package ships no test code: no module imports ``tests``, ``oracles``
  or ``conftest``.

The first three checks are name-level.  Any reference or call of the same
name counts, so they cannot see a function whose name is also used for
something else.  Nor can the second see a default that every caller only
forwards unchanged: a ``cutoffs`` parameter threaded from
``normal_form.transform`` down to ``spectral.lp_values`` would pass, since
each call in the chain passes it on, though no outermost caller sets it.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "bolab").glob("*.py"))
CALLERS = sorted((ROOT / "perfbench").glob("*.py"))
#: the callers that may omit a default: every test, not only the acceptance run
ALL_CALLERS = sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def _trees(callers=CALLERS) -> dict:
    return {path: ast.parse(path.read_text()) for path in SOURCES + callers}


def _references(tree: ast.AST) -> Counter:
    """How often each name is referenced in ``tree``, as a name or an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))


def _definitions(tree: ast.Module):
    """(qualified name, node) for each top-level function and class of
    ``tree`` and each method of its classes but the dunder ones."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, ast.FunctionDef) and not method.name.startswith("__"):
                    yield f"{node.name}.{method.name}", method


def _unreferenced(checked, callers) -> list[str]:
    trees = _trees(callers)
    total = sum((_references(tree) for tree in trees.values()), Counter())
    return [
        f"{path.stem}.{name}"
        for path in checked
        for name, node in _definitions(trees[path])
        if total[node.name] == _references(node)[node.name]
    ]


def test_every_top_level_name_and_method_has_a_caller():
    assert _unreferenced(SOURCES, CALLERS) == []


def _defaulted_parameters(tree: ast.AST):
    """(name, parameter, position) for each defaulted parameter of a function
    or method in ``tree``: ``name`` is the one its calls use, ``position``
    the index of the positional argument of a call that reaches it, None for
    a keyword-only parameter."""
    owner = {id(node): cls for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
             for node in cls.body}
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        cls = owner.get(id(node))
        static = any(getattr(d, "id", "") == "staticmethod" for d in node.decorator_list)
        skipped = int(cls is not None and not static)
        name = cls.name if cls is not None and node.name == "__init__" else node.name
        positional = node.args.posonlyargs + node.args.args
        first = len(positional) - len(node.args.defaults)
        for i, arg in enumerate(positional[first:], start=first):
            yield name, arg.arg, i - skipped
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if default is not None:
                yield name, arg.arg, None


def _call_name(call: ast.Call) -> str | None:
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _passes(call: ast.Call, parameter: str, position: int | None) -> bool:
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if any(k.arg in (None, parameter) for k in call.keywords):
        return True
    return position is not None and len(call.args) > position


def _calls(trees: dict) -> dict:
    """The calls in ``trees`` by the name they call."""
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls.setdefault(_call_name(node), []).append(node)
    return calls


def _never_passed(checked, callers) -> list[str]:
    trees = _trees(callers)
    calls = _calls(trees)
    return [
        f"{name}({parameter})"
        for path in checked
        for name, parameter, position in _defaulted_parameters(trees[path])
        if not any(_passes(call, parameter, position) for call in calls.get(name, []))
    ]


def _always_passed(checked, callers) -> list[str]:
    trees = _trees(callers)
    calls = _calls(trees)
    return [
        f"{name}({parameter})"
        for path in checked
        for name, parameter, position in _defaulted_parameters(trees[path])
        if all(_passes(call, parameter, position) for call in calls.get(name, []))
    ]


def test_every_defaulted_parameter_is_passed_by_some_call():
    assert _never_passed(SOURCES, CALLERS) == []


def test_every_defaulted_parameter_is_omitted_by_some_call():
    assert _always_passed(SOURCES, ALL_CALLERS) == []


def _imports(path: Path) -> set:
    """The modules of ``src/bolab`` that the module ``path`` imports relatively,
    inside functions too: ``from .x import y`` and ``from . import x``."""
    names = {source.stem for source in SOURCES}
    edges = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is not None:
                edges.add(node.module.split(".")[0])
            else:
                edges.update(alias.name for alias in node.names if alias.name in names)
    return edges - {path.stem}


def _cycles(graph: dict) -> list[list]:
    """One cycle, as the modules along it back to the first, per back edge of a
    depth-first search of ``graph``; none when ``graph`` is a DAG."""
    cycles, state = [], {}

    def visit(node, path):
        state[node] = "open"
        for succ in sorted(graph.get(node, ())):
            if state.get(succ) == "open":
                cycles.append(path[path.index(succ):] + [succ])
            elif succ not in state:
                visit(succ, path + [succ])
        state[node] = "done"

    for node in sorted(graph):
        if node not in state:
            visit(node, [node])
    return cycles


def test_package_imports_form_a_dag():
    graph = {path.stem: _imports(path) for path in SOURCES}
    cycles = _cycles(graph)
    assert not cycles, "import cycles: " + "; ".join(" -> ".join(c) for c in cycles)


PROCESS_MODULES = {"pickle", "signal", "multiprocessing"}
PROCESS_CALLS = {"fork", "pipe", "kill", "waitpid"}


def _process_machinery(path: Path) -> list[str]:
    """Each import of a module of PROCESS_MODULES and each use of an ``os``
    function of PROCESS_CALLS in the module ``path``, as ``file:line name``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        names = []
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names
                     if alias.name.split(".")[0] in PROCESS_MODULES]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module.split(".")[0] in PROCESS_MODULES:
                names = [node.module]
            elif node.module == "os":
                names = [f"os.{a.name}" for a in node.names if a.name in PROCESS_CALLS]
        elif (isinstance(node, ast.Attribute) and node.attr in PROCESS_CALLS
              and isinstance(node.value, ast.Name) and node.value.id == "os"):
            names = [f"os.{node.attr}"]
        found += [f"{path.name}:{node.lineno} {name}" for name in names]
    return found


def test_the_package_runs_in_one_process():
    found = [hit for path in SOURCES for hit in _process_machinery(path)]
    assert found == []


TEST_MODULES = {"tests", "oracles", "conftest"}


def _test_imports(path: Path) -> list[str]:
    """Each import of a module of TEST_MODULES in the module ``path``, as
    ``file:line name``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names = [node.module]
        else:
            continue
        found += [f"{path.name}:{node.lineno} {name}" for name in names
                  if name.split(".")[0] in TEST_MODULES]
    return found


def test_the_package_imports_no_test_module(tmp_path):
    scratch = tmp_path / "scratch.py"
    scratch.write_text("import numpy, oracles\nfrom tests.oracles import rhs\n"
                       "from conftest import HERE\nfrom .grid import Grid\n")
    assert _test_imports(scratch) == ["scratch.py:1 oracles", "scratch.py:2 tests.oracles",
                                      "scratch.py:3 conftest"]
    assert [hit for path in SOURCES for hit in _test_imports(path)] == []
