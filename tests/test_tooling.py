"""Checks on the repository itself: with warnings as errors, a failing
Hypothesis test is still reported as one failure of a finished session,
every module reaches every other one only through its public names, only
the catalog and the engine call ``hom_degrees``, ``regions`` finds its
slots only through the plan's slot map, every exception handler of the
engine ends in a raise, no module raises ``RuntimeError``, and the only
process-wide caches are point-independent tables."""

import ast
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_a_failing_hypothesis_test_is_reported(tmp_path):
    test = tmp_path / "test_fails.py"
    test.write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(n):\n"
        "    assert n < 0\n"
    )
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", os.path.join(ROOT, "pyproject.toml"), str(test)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    report = out.stdout + out.stderr
    assert out.returncode == 1, report
    assert "INTERNALERROR" not in report
    assert "1 failed" in report


def _package_modules():
    pkg = os.path.join(ROOT, "src", "stabq")
    return {f[:-3]: os.path.join(pkg, f)
            for f in sorted(os.listdir(pkg)) if f.endswith(".py")}


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def test_no_module_reads_a_private_name_of_another():
    """Every module of the package reaches every other one through its
    public names only: it reads no ``X._name`` of a package module X it
    imports, and imports no private name from one.  So ``regions`` keeps
    its per-family answers and tail exclusions to itself, and every
    module reaches the engine through its public functions and the
    analysis object."""
    modules = _package_modules()
    private, read = [], {}
    for mod, path in modules.items():
        with open(path) as f:
            tree = ast.parse(f.read(), path)
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                source = (node.module or "").rpartition(".")[2]
                package = node.level == 1 and node.module is None or (
                    node.module == "stabq")
                for a in node.names:
                    if package and a.name in modules:
                        aliases[a.asname or a.name] = a.name
                    elif source in modules and _is_private(a.name):
                        private.append("%s: from %s import %s (line %d)"
                                       % (mod, source, a.name, node.lineno))
            elif isinstance(node, ast.Import):
                for a in node.names:
                    head, _, tail = a.name.partition(".")
                    if head == "stabq" and tail in modules and a.asname:
                        aliases[a.asname] = tail
        read[mod] = set()
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases):
                other = aliases[node.value.id]
                read[mod].add("%s.%s" % (other, node.attr))
                if _is_private(node.attr):
                    private.append("%s: %s.%s (line %d)"
                                   % (mod, other, node.attr, node.lineno))
    assert private == []
    # the check sees every module, and the names its readers read
    assert {"regions", "harness", "cli", "__init__", "engine"} <= set(read)
    assert "engine.lookup" in read["regions"]
    assert "regions.in_cells_union" in read["harness"]
    assert "engine.semistable" in read["harness"] & read["cli"]


def test_only_catalog_and_engine_call_hom_degrees():
    """No module of the package but ``catalog`` and ``engine`` calls
    ``hom_degrees``: every hom bracket is the engine's one fold over a
    plan row, so no second bracket route (such as a tail bracket of
    ``regions`` on degrees of its own) can come back."""
    pkg = os.path.join(ROOT, "src", "stabq")
    calls = {}
    for fname in sorted(os.listdir(pkg)):
        if not fname.endswith(".py"):
            continue
        path = os.path.join(pkg, fname)
        with open(path) as f:
            tree = ast.parse(f.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _decorator_name(node) == "hom_degrees":
                calls.setdefault(fname, []).append(node.lineno)
    assert set(calls) <= {"catalog.py", "engine.py"}, calls
    assert "engine.py" in calls  # the check sees the calls there are


def test_regions_reads_a_plan_only_through_its_slot_map():
    """``regions`` reads no attribute of a rule plan but ``slot`` and
    ``columns``: the engine's plan is the only module that knows where an
    object sits among the slots, so ``regions`` can compute no slot of
    its own from the plan's layout (its chain lengths, its universe)."""
    path = os.path.join(ROOT, "src", "stabq", "regions.py")
    with open(path) as f:
        tree = ast.parse(f.read(), path)
    parents = {child: node for node in ast.walk(tree)
               for child in ast.iter_child_nodes(node)}
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ("plan", "_plan"):
            up = parents[node]
            reads.append(up.attr if isinstance(up, ast.Attribute) else None)
    assert set(reads) <= {"slot", "columns"}, reads
    assert {"slot", "columns"} <= set(reads)  # the check sees the reads there are


def test_every_engine_handler_ends_in_a_raise():
    """Every ``except`` handler in ``stabq/engine.py`` ends in a
    ``raise``: an exact error inside a rule is a rule inconsistency or a
    bad input, never a reason to skip the rule, so no verdict can rest on
    a rule that silently did not fire."""
    path = os.path.join(ROOT, "src", "stabq", "engine.py")
    with open(path) as f:
        tree = ast.parse(f.read(), path)
    handlers = [n for n in ast.walk(tree) if isinstance(n, ast.ExceptHandler)]
    assert [h.lineno for h in handlers if not isinstance(h.body[-1], ast.Raise)] == []
    assert len(handlers) >= 3  # the check sees the handlers there are


def test_no_module_raises_runtime_error():
    """No module of the package raises ``RuntimeError``: a check that two
    routes to one answer agree belongs in a test, not in a run-time
    cross-check that every caller pays for."""
    raised = []
    for mod, path in _package_modules().items():
        with open(path) as f:
            tree = ast.parse(f.read(), path)
        raised += [(mod, node.lineno, _decorator_name(node.exc))
                   for node in ast.walk(tree) if isinstance(node, ast.Raise)]
    assert [r for r in raised if r[2] == "RuntimeError"] == []
    assert len(raised) >= 1  # the check sees the raises there are


def test_readme_names_resolve():
    """Every backticked ``module.name`` that README.md cites for a module
    of the package (``engine.lookup``, ``stabq.regions``) names an
    attribute of that module, so a rename cannot leave the README
    pointing at nothing."""
    import importlib.util
    import re

    def resolves(m, n):
        if m == "stabq":  # a module of the package
            return importlib.util.find_spec("stabq." + n) is not None
        return hasattr(importlib.import_module("stabq." + m), n)

    pkg = os.path.join(ROOT, "src", "stabq")
    modules = {f[:-3] for f in os.listdir(pkg) if f.endswith(".py")} - {"__init__"}
    with open(os.path.join(ROOT, "README.md")) as f:
        cited = re.findall(r"`(\w+)\.(\w+)`", f.read())
    cited = [(m, n) for m, n in cited if m in modules or m == "stabq"]
    assert [m + "." + n for m, n in cited if not resolves(m, n)] == []
    # the module table's ten rows and the names the prose cites
    assert len(cited) >= 21


# the point-independent tables that may be memoised process-wide
_CACHED = {
    "catalog._dim_vector",
    "triples.family_triple",
    "triples.alpha_beta_gamma",
    "triples.theta_bounds",
    "engine._plan",
    "ff._subspace_table",
    "harness._heart_test_objects",
}


def _decorator_name(node):
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def test_only_point_independent_tables_are_cached():
    """No function of the package is decorated with ``lru_cache`` or
    ``cache`` but the tables in _CACHED, none of which holds anything of
    a point: what is derived for a point lives on its ``engine.Analysis``
    and is freed with it."""
    pkg = os.path.join(ROOT, "src", "stabq")
    cached = set()
    for fname in sorted(os.listdir(pkg)):
        if not fname.endswith(".py"):
            continue
        path = os.path.join(pkg, fname)
        with open(path) as f:
            tree = ast.parse(f.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                _decorator_name(d) in ("lru_cache", "cache")
                for d in node.decorator_list
            ):
                cached.add("%s.%s" % (fname[:-3], node.name))
    assert cached == _CACHED


# the value types built on every lookup, by module
_SLOTTED = {
    "exact": {"Gaussian", "Phase"},
    "catalog": {"ExcObject"},
    "triples": {"ExcTriple"},
}


def test_value_types_keep_their_hand_written_init():
    """Gaussian, Phase, ExcObject and ExcTriple are declared
    ``@dataclass(..., slots=True, init=False)`` and define no
    ``__post_init__``: their own ``__init__`` runs the checks and writes
    the slots, so an edit cannot quietly bring back the generated one
    (which writes every field through ``object.__setattr__``)."""
    found = {}
    for mod, names in _SLOTTED.items():
        path = os.path.join(ROOT, "src", "stabq", mod + ".py")
        with open(path) as f:
            tree = ast.parse(f.read(), path)
        for node in tree.body:
            if not (isinstance(node, ast.ClassDef) and node.name in names):
                continue
            flags = {kw.arg: kw.value.value
                     for d in node.decorator_list
                     if isinstance(d, ast.Call) and _decorator_name(d) == "dataclass"
                     for kw in d.keywords if isinstance(kw.value, ast.Constant)}
            methods = {n.name for n in node.body if isinstance(n, ast.FunctionDef)}
            found[node.name] = (flags.get("frozen"), flags.get("slots"),
                                flags.get("init"), "__init__" in methods,
                                "__post_init__" in methods)
    assert found == {name: (True, True, False, True, False)
                     for names in _SLOTTED.values() for name in names}
