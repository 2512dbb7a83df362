"""Every top-level function and class of ``src/bolab`` (``testing.py``
aside, which holds the shared test helpers and oracles) has a caller: a name
or attribute reference to it somewhere in ``src/bolab`` outside its own
definition, in ``perfbench/*.py`` or in ``tests/test_acceptance.py``.

The check is name-level.  Any reference of the same name counts, so it
cannot see a function whose name is also used for something else, such as
a function kept as a documented oracle: ``solver.rhs``, the oracle of
``solver.step``, passes through the local ``rhs`` of
``normal_form.Bundle.right_side``.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "bolab").glob("*.py"))
CALLERS = sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]


def _references(tree: ast.AST) -> Counter:
    """How often each name is referenced in ``tree``, as a name or an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))


def test_every_top_level_name_has_a_caller():
    trees = {path: ast.parse(path.read_text()) for path in SOURCES + CALLERS}
    total = sum((_references(tree) for tree in trees.values()), Counter())
    unreferenced = [
        f"{path.stem}.{node.name}"
        for path in SOURCES if path.name != "testing.py"
        for node in trees[path].body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and total[node.name] == _references(node)[node.name]
    ]
    assert unreferenced == []
