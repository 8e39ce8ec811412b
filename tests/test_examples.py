"""Sanity checks over the example scripts.

The examples are exercised for real by running them (they are plain
scripts); here we keep cheap guarantees: every example compiles, has a
module docstring with a "Run:" line, defines ``main``, and the two
fastest ones actually execute end to end.
"""

import ast
import pathlib
import re
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"
SCRIPTS = sorted(EXAMPLES_DIR.glob("*.py"))


def test_expected_examples_present():
    names = {script.name for script in SCRIPTS}
    assert {"quickstart.py", "mitigation_comparison.py",
            "attack_analysis.py", "storage_explorer.py",
            "trace_pipeline.py", "bitflip_demo.py"} <= names


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda s: s.name)
def test_example_structure(script):
    tree = ast.parse(script.read_text())
    docstring = ast.get_docstring(tree)
    assert docstring, f"{script.name} needs a module docstring"
    assert "Run:" in docstring, f"{script.name} should say how to run it"
    functions = {node.name for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)}
    assert "main" in functions

    has_guard = any(
        isinstance(node, ast.If)
        and isinstance(node.test, ast.Compare)
        and getattr(node.test.left, "id", "") == "__name__"
        for node in tree.body)
    assert has_guard, f"{script.name} needs an __main__ guard"


def test_storage_explorer_runs_end_to_end():
    # The fastest example (pure analytics) runs as a subprocess.
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / "storage_explorer.py")],
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert "DREAM-C configurations" in result.stdout
    assert "8.0x" in result.stdout or "7.9x" in result.stdout


def test_trace_pipeline_mitigates_end_to_end():
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / "trace_pipeline.py")],
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    protected = re.search(r"^dream-c .*mitigations=(\d+)", result.stdout,
                          re.MULTILINE)
    assert protected, result.stdout
    assert int(protected.group(1)) > 0
