"""Checks on the repository itself: with warnings as errors, a failing
Hypothesis test is still reported as one failure of a finished session,
and every other module reaches the engine only through its public names."""

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


def test_regions_reads_no_private_engine_name():
    """Every module of the package but ``engine`` itself (``regions``,
    ``harness``, ``cli`` and the rest) reaches the engine through its
    public functions and the analysis object only: it reads no
    ``engine._*`` attribute and imports no private name from it."""
    pkg = os.path.join(ROOT, "src", "stabq")
    private, read = [], {}
    for fname in sorted(os.listdir(pkg)):
        if not fname.endswith(".py") or fname == "engine.py":
            continue
        path = os.path.join(pkg, fname)
        with open(path) as f:
            tree = ast.parse(f.read(), path)
        read[fname] = set()
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "engine"):
                read[fname].add(node.attr)
                if node.attr.startswith("_"):
                    private.append("%s: engine.%s (line %d)"
                                   % (fname, node.attr, node.lineno))
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("engine"):
                private += ["%s: import %s (line %d)" % (fname, a.name, node.lineno)
                            for a in node.names if a.name.startswith("_")]
    assert private == []
    # the check sees every module, and the names the engine's readers read
    assert {"regions.py", "harness.py", "cli.py", "__init__.py"} <= set(read)
    assert "lookup" in read["regions.py"]
    assert "semistable" in read["harness.py"] and "semistable" in read["cli.py"]
