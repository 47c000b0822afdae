"""LCK helpers: ``@requires_lock`` introspection."""

import ast

from repro.analysis.lck import method_lock_requirements


def test_method_lock_requirements_introspection(load_fixture):
    context, _source = load_fixture("lck_good.py", "repro/serve/lck_good.py")
    class_node = next(node for node in ast.walk(context.tree)
                      if isinstance(node, ast.ClassDef))
    assert method_lock_requirements(class_node) == [
        ("_evict", "_lock"),
        ("compact", "_lock"),
    ]
