"""Rules checked on the package source itself."""

import ast
import importlib
import pathlib

import dualalg


def test_no_assert_in_package():
    # python -O strips assert statements, so no check may rest on one
    files = sorted(pathlib.Path(dualalg.__file__).parent.glob("*.py"))
    assert files
    found = []
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _dualalg_names(node):
    """(local name, object) for each name a dualalg import binds."""
    if isinstance(node, ast.Import):
        out = []
        for a in node.names:
            if a.name.split(".")[0] == "dualalg":
                mod = importlib.import_module(a.name)
                out.append((a.asname, mod) if a.asname else ("dualalg", dualalg))
        return out
    if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dualalg":
        mod = importlib.import_module(node.module)
        out = []
        for a in node.names:
            obj = getattr(mod, a.name, None)
            if obj is None:
                obj = importlib.import_module(f"{node.module}.{a.name}")
            out.append((a.asname or a.name, obj))
        return out
    return []


def _resolve(node, bound):
    """The object an attribute chain rooted at a bound name reaches, or
    AttributeError naming the first missing link."""
    if isinstance(node, ast.Name):
        return bound[node.id]
    return getattr(_resolve(node.value, bound), node.attr)


def _root(node):
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def test_benchmark_hooks_resolve():
    # the trace harness and the set-up probe reach into dualalg by name (the
    # TRACED pairs, CHECKS, the patched OrbitCache.orbit/height and
    # BContext.cover, the probe's imports); a rename must fail here instead
    # of silently breaking trace mode
    resolved = 0
    for script in ("tracer.py", "setup_probe.py"):
        tree = ast.parse((PERFBENCH / script).read_text(), filename=script)
        bound = {}
        for node in ast.walk(tree):
            bound.update(_dualalg_names(node))
        assert bound, script
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and _root(node) in bound:
                _resolve(node, bound)
                resolved += 1
            elif isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
                target = node.targets[0].id
                if target == "TRACED":
                    pairs = [(e.elts[0], e.elts[1].value) for e in node.value.elts]
                    assert len(pairs) > 10
                    for mod, name in pairs:
                        assert callable(getattr(_resolve(mod, bound), name)), name
                        resolved += 1
                elif target == "CHECKS":
                    names = ast.literal_eval(node.value)
                    assert len(names) > 5
                    for name in names:
                        assert callable(getattr(bound["verification"], name)), name
                        resolved += 1
    # 17 traced functions, 7 checks and the patched class attributes
    assert resolved > 30
