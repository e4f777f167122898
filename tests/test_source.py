"""Rules checked on the package source itself."""

import argparse
import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys

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


def test_imports_at_module_level():
    # a module's dependencies are read off its head: no import hides in a
    # function, class or conditional body
    files = sorted(pathlib.Path(dualalg.__file__).parent.glob("*.py"))
    found = []
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        top = {id(node) for node in tree.body}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top]
    assert found == []


def test_every_import_is_read():
    # a module-level import that its module never reads is left over from
    # code that has gone; a name listed in __all__ is read by the star import,
    # and `from __future__ import annotations` by the compiler
    files = sorted(pathlib.Path(dualalg.__file__).parent.glob("*.py"))
    unread = []
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and [getattr(t, "id", None) for t in node.targets] == ["__all__"]):
                read |= set(ast.literal_eval(node.value))
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound = [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [a.asname or a.name for a in node.names]
            else:
                continue
            unread += [f"{path.name}:{node.lineno} {name}" for name in bound if name not in read]
    assert unread == []


def test_exports_resolve():
    # a name dropped from a module but left in __all__ breaks the star import
    missing = [name for name in dualalg.__all__ if not hasattr(dualalg, name)]
    assert missing == []
    assert len(set(dualalg.__all__)) == len(dualalg.__all__)
    namespace = {}
    exec("from dualalg import *", namespace)
    assert set(dualalg.__all__) <= set(namespace)


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


def _perfbench_run(script, *args):
    """Run a perfbench script as the harness does: a fresh process with
    PYTHONPATH=src."""
    root = PERFBENCH.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
    return subprocess.run([sys.executable, *script, *args], cwd=root, env=env,
                          capture_output=True, text=True, timeout=300)


def test_benchmark_harness_runs(tmp_path):
    # the set-up probe and the trace harness run end to end on the current
    # source, so an API change that breaks setup_s or --trace fails here
    src = (PERFBENCH.parent / "src").resolve()
    for workload in ("structure", "count", "verify"):
        res = _perfbench_run([str(PERFBENCH / "setup_probe.py")], workload)
        assert res.returncode == 0, (workload, res.stderr)
        assert src in pathlib.Path(res.stdout.strip()).resolve().parents, res.stdout
    for argv in (["verify", "--group", "GL", "--n", "2", "--q", "3", "--fast"],
                 ["verify", "--group", "SO", "--n", "4", "--q", "3", "--fast"]):
        summary = tmp_path / "summary.json"
        traced = _perfbench_run([str(PERFBENCH / "tracer.py"), str(summary)], *argv)
        plain = _perfbench_run(["-m", "dualalg.cli"], *argv)
        assert (traced.returncode, traced.stdout) == (plain.returncode, plain.stdout), argv
        assert "cli.main" in json.loads(summary.read_text())["spans"], argv


# definitions that no module of the package reads, each with the file that
# reaches it from outside: argparse.ArgumentParser calls error on a usage
# error, and the trace harness wraps the others by name
UNREAD_OK = {
    "cli._Parser.error": pathlib.Path(argparse.__file__),
    "intlinalg.in_image": PERFBENCH / "tracer.py",
    "intlinalg.kernel_basis": PERFBENCH / "tracer.py",
    "intlinalg.reduce_mod_lattice": PERFBENCH / "tracer.py",
    "balgebra.reducedness_certificate": PERFBENCH / "tracer.py",
    "orbitring.InvariantElement.is_zero": PERFBENCH / "tracer.py",
}


def _references(tree):
    """(kind, name, line) for each attribute and loaded name in tree; string
    constants do not count, so neither does __all__."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            yield "attr", node.attr, node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield "name", node.id, node.lineno


def test_every_definition_is_named_elsewhere():
    # nothing stays in the package that the package itself does not read:
    # every module-level function and class, and every non-dunder method, is
    # named in src/ outside its own definition (a method only as an
    # attribute, so that a local variable of the same name does not count).
    # Tests and the benchmark are not readers; the few definitions reached
    # only from outside are listed, and each entry must still be named by its
    # file, as an attribute, a name or a string
    src = pathlib.Path(dualalg.__file__).parent
    files = sorted(src.glob("*.py"))
    trees = {f: ast.parse(f.read_text(), filename=str(f)) for f in files}
    refs = {f: list(_references(tree)) for f, tree in trees.items()}
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    unnamed = []
    for path in files:
        found = []
        for node in trees[path].body:
            if isinstance(node, defs):
                found.append((node.name, node, ("attr", "name")))
            if isinstance(node, ast.ClassDef):
                found += [(f"{node.name}.{item.name}", item, ("attr",)) for item in node.body
                          if isinstance(item, defs[:2])
                          and not (item.name.startswith("__") and item.name.endswith("__"))]
        for qual, node, kinds in found:
            inside = range(node.lineno, node.end_lineno + 1)
            if not any(n == node.name and k in kinds and (f != path or line not in inside)
                       for f, rows in refs.items() for k, n, line in rows):
                unnamed.append(f"{path.stem}.{qual}")
    assert sorted(set(unnamed) - set(UNREAD_OK)) == []
    assert sorted(set(UNREAD_OK) - set(unnamed)) == []
    for qual, reader in UNREAD_OK.items():
        name = qual.rsplit(".", 1)[1]
        tree = ast.parse(reader.read_text(), filename=str(reader))
        strings = {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)}
        assert name in strings | {n for _, n, _ in _references(tree)}, qual


SRC_LINES_FIXTURE = '''"""Module docstring,
over two lines."""

# a comment
import os  # a trailing comment does not hide code


def f(x):
    """Docstring."""
    s = """a string,
not a docstring"""
    return (x +
            1)


class C:
    """One-line docstring."""

    y = 1
'''


def test_src_lines_counts_code_without_comments_or_docstrings(tmp_path):
    # tools/src_lines.py: physical lines, and code lines with blank lines,
    # comments and docstrings left out; a multi-line string that is not a
    # docstring counts on both of its lines
    (tmp_path / "mod.py").write_text(SRC_LINES_FIXTURE)
    (tmp_path / "__init__.py").write_text("")
    script = PERFBENCH.parent / "tools" / "src_lines.py"
    res = subprocess.run([sys.executable, str(script), str(tmp_path)],
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    rows = [line.split() for line in res.stdout.splitlines()]
    assert rows == [["module", "physical", "code"], ["__init__.py", "0", "0"],
                    ["mod.py", "19", "8"], ["total", "19", "8"]]
