"""Checks on the package source: no asserts, no runtime deps, a strict
module layering, front ends that use only public names, no public
definition, private helper or imported name that nothing uses, the
same verdicts under ``python -O``, sources that parse at the declared
Python floor, a package the benchmark's span recorder
(``perfbench/spans.py``) still installs over, and no floating point in
``spectral.py``.

Asserts vanish under ``python -O``, so invariants must raise instead; the
package promises pure Python, so every absolute import must name a
standard-library module; and every relative import, function-level ones
included, must name a module of an earlier layer.  The front ends reach
the layers only through public names, so each layer has one way in.
"""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
SOURCES = sorted((SRC / "pigraphs").glob("*.py"))


def _absolute_imports(node):
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module]
    return []


def test_no_asserts_and_only_stdlib_or_relative_imports():
    assert len(SOURCES) >= 10
    problems = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                problems.append(f"{path.name}:{node.lineno}: assert")
            problems.extend(
                f"{path.name}:{node.lineno}: imports {name}"
                for name in _absolute_imports(node)
                if name.split(".")[0] not in sys.stdlib_module_names)
    assert problems == []


# every module of the package, each importing only modules before it
LAYERS = ("errors", "graphs", "semigroups", "families", "green", "skeletal",
          "pig", "spectral", "verify", "cli")


def _relative_imports(node):
    if isinstance(node, ast.ImportFrom) and node.level > 0:
        return [node.module] if node.module else [a.name for a in node.names]
    return []


def test_sources_parse_at_the_declared_python_floor():
    """Every module parses under the oldest grammar that pyproject.toml's
    requires-python admits, so newer syntax fails here, not on install."""
    floor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$',
                      (SRC.parent / "pyproject.toml").read_text(), re.M)
    version = tuple(map(int, floor.groups()))
    for path in SOURCES:
        ast.parse(path.read_text(), str(path), feature_version=version)


def test_modules_import_only_earlier_layers():
    modules = [path for path in SOURCES if path.stem != "__init__"]
    assert sorted(path.stem for path in modules) == sorted(LAYERS)
    problems = []
    for path in modules:
        earlier = LAYERS[:LAYERS.index(path.stem)]
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            problems.extend(
                f"{path.name}:{node.lineno}: imports {name}"
                for name in _relative_imports(node)
                if name.split(".")[0] not in earlier)
    assert problems == []


# graph-side modules: they work on any graph and know no semigroup
GRAPH_SIDE = ("graphs", "skeletal", "spectral")
SEMIGROUP_SIDE = ("semigroups", "families", "green", "pig")


def test_graph_side_modules_import_no_semigroup_module():
    problems = []
    for path in SOURCES:
        if path.stem not in GRAPH_SIDE:
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            problems.extend(
                f"{path.name}:{node.lineno}: imports {name}"
                for name in _relative_imports(node)
                if name.split(".")[0] in SEMIGROUP_SIDE)
    assert problems == []


# the front ends: they reach the layers only through their public names
FRONT_ENDS = ("verify", "cli")


def test_only_the_front_ends_import_the_families():
    """The families are inputs: a layer takes a semigroup it is given and
    never builds one of its own."""
    importers = sorted({path.stem for path in SOURCES
                        for node in ast.walk(ast.parse(path.read_text()))
                        if "families" in _relative_imports(node)})
    assert importers == sorted(FRONT_ENDS)


def _private_reaches(tree):
    """`from .x import _y` names, and `m._y` on a module m got by
    `from . import m`."""
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level > 0
               and node.module is None for alias in node.names}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            yield from (f"{node.lineno}: imports {alias.name}"
                        for alias in node.names
                        if alias.name.startswith("_"))
        elif (isinstance(node, ast.Attribute) and node.attr.startswith("_")
              and isinstance(node.value, ast.Name)
              and node.value.id in modules):
            yield f"{node.lineno}: reads {node.value.id}.{node.attr}"


def test_front_ends_use_only_public_names():
    problems = [f"{stem}.py:{problem}" for stem in FRONT_ENDS
                for problem in _private_reaches(ast.parse(
                    (SRC / "pigraphs" / f"{stem}.py").read_text()))]
    assert problems == []


def test_verify_report_is_the_same_under_python_O():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    argv = ["-m", "pigraphs.cli", "verify", "--suite", "all", "--n", "3"]
    plain, optimized = (
        subprocess.run([sys.executable, *flags, *argv], env=env,
                       capture_output=True, timeout=120)
        for flags in ([], ["-O"]))
    assert plain.returncode == optimized.returncode == 0, optimized.stderr
    assert optimized.stdout == plain.stdout != b""


TRACED_RUN = """
import json, sys
from pigraphs import cli
from spans import SpanRecorder
recorder = SpanRecorder()
recorder.install()
out = sys.argv[1]
codes = [cli.main(argv) for argv in (
    ["verify", "--suite", "isn", "--n", "2"],
    ["build", "--family", "cyclic", "--n", "3", "--adjoin-zero",
     "--out", out],
    ["graph", "--input", out],
    ["graph", "--input", out, "--variant", "spig"])]
print(json.dumps({"codes": codes, "metrics": recorder.layer_metrics()}))
"""


def test_benchmark_span_recorder_installs_over_the_package(tmp_path):
    """The benchmark's --trace mode wraps the layer modules from outside;
    a module, Graph.__post_init__ or Semigroup.checked that it relies on
    must not go missing silently."""
    bench = SRC.parent / "perfbench"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(bench)])}
    run = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(tmp_path / "cyclic.json")],
        env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0, 0, 0]
    metrics = result["metrics"]
    for name in ("pig.graph_builds", "pig.quotient_s",
                 "skeletal.verify_calls", "semigroups.assoc_triples"):
        assert metrics[name] > 0, name


# span names that perfbench/spans.py still reads although their functions
# are gone, so their metrics read 0: its next revision drops them
STALE_SPANS = {"pig.isn_left_pig", "graphs.verify_isomorphism"}


def _span_names():
    """Each package function perfbench/spans.py names by string, by where
    it names it: GRAPH_BUILDERS, the keys of SIZERS, and the arguments of
    self_of(...), self.calls[...] and self.nested[...]."""
    tree = ast.parse((SRC.parent / "perfbench" / "spans.py").read_text())
    found = {}

    def add(kind, node):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.setdefault(kind, set()).add(node.value)
        elif isinstance(node, ast.Tuple):
            for item in node.elts:
                add(kind, item)

    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and isinstance(node.targets[0],
                                                       ast.Name):
            target = node.targets[0].id
            if target == "GRAPH_BUILDERS":
                add(target, node.value)
            elif target == "SIZERS":
                for key in node.value.keys:
                    add(target, key)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "self_of"):
            for arg in node.args:
                add("self_of", arg)
        elif (isinstance(node, ast.Subscript)
                and isinstance(node.value, ast.Attribute)
                and node.value.attr in ("calls", "nested")):
            add(node.value.attr, node.slice)
    return found


def test_every_span_name_the_benchmark_reads_exists():
    """A span name whose function was deleted or renamed makes its metric
    read 0 without any error; each must resolve as pigraphs.<layer> and
    then attributes, apart from the known stale ones."""
    found = _span_names()
    assert found.keys() == {"GRAPH_BUILDERS", "SIZERS", "self_of", "calls",
                            "nested"}
    names = set().union(*found.values())
    assert len(names) == 22

    def resolves(name):
        layer, *attrs = name.split(".")
        obj = importlib.import_module(f"pigraphs.{layer}")
        for attr in attrs:
            obj = getattr(obj, attr, None)
        return obj is not None

    assert {name for name in names if not resolves(name)} <= STALE_SPANS


def _names(tree):
    """Every identifier a tree reads, imports or reaches as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def _unused_definitions(private):
    """Top-level functions and classes, private or public as asked, that
    no code of the package names outside their own bodies."""
    trees = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    used = Counter(name for tree in trees.values() for name in _names(tree))
    return [f"{stem}.{node.name}" for stem, tree in trees.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") == private
            and used[node.name] == list(_names(node)).count(node.name)]


def test_every_public_definition_is_used_in_the_package():
    """A top-level public function or class that no other code of the
    package names, outside its own body, is dead API."""
    assert _unused_definitions(private=False) == []


def test_every_private_helper_is_used_in_the_package():
    """A top-level _helper that no other code of the package names is
    left behind by the code that once called it."""
    assert _unused_definitions(private=True) == []


def _unused_imports(tree):
    """Each name an import binds that its module never reads."""
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    yield f"{node.lineno}: {name}"


def test_every_imported_name_is_used_in_its_module():
    """An imported name that its module never reads is left behind by the
    code that once used it."""
    assert list(_unused_imports(ast.parse(
        "from .graphs import Graph, bits\nGraph(())"))) == ["1: bits"]
    problems = [f"{path.name}:{problem}" for path in SOURCES
                for problem in _unused_imports(ast.parse(path.read_text()))]
    assert problems == []


def _floating_point(tree):
    """Each float constant, true division and use of float, round or math."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            yield f"{node.lineno}: float constant"
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
                node.op, ast.Div):
            yield f"{node.lineno}: true division"
        elif isinstance(node, ast.Name) and node.id in ("float", "round",
                                                          "math"):
            yield f"{node.lineno}: {node.id}"
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and "math" in (
                [a.name for a in node.names] + [getattr(node, "module", "")]):
            yield f"{node.lineno}: imports math"


def test_spectral_uses_no_floating_point():
    """Every rank and the modular proof in spectral.py stay in integers,
    as the README's "no floating point anywhere" promises."""
    assert sorted(_floating_point(ast.parse(
        "import math\nx = 1 / 2\nx /= 2\ny = 0.5 // 1\nround(float(x))\n"
        "from math import isqrt\nz = 7 // 2 % 3"))) == [
            "1: imports math", "2: true division", "3: true division",
            "4: float constant", "5: float", "5: round", "6: imports math"]
    spectral = SRC / "pigraphs" / "spectral.py"
    assert list(_floating_point(ast.parse(spectral.read_text()))) == []
