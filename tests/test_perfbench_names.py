"""The lu3q names the benchmark harness in ``perfbench/`` reaches.

The traced benchmark wraps functions and methods it looks up by name, and
its digit-escape reference imports from ``lu3q``; neither runs in this
suite otherwise, so a rename would only show when the benchmark runs.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # tracer imports calib, workloads
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_traced_names_resolve_in_lu3q(monkeypatch):
    tracer = load_tracer(monkeypatch)
    assert tracer.SPANNED and tracer.SPANNED_METHODS and tracer.COUNTED_METHODS
    for mod, attr, _ in tracer.SPANNED:
        assert callable(getattr(importlib.import_module(mod), attr, None)), f"{mod}.{attr}"
    for mod, cls, attr, _ in tracer.SPANNED_METHODS + tracer.COUNTED_METHODS:
        # install() takes the method from the class's own __dict__
        assert attr in vars(getattr(importlib.import_module(mod), cls)), f"{mod}.{cls}.{attr}"


def test_names_perfbench_imports_from_lu3q_resolve():
    imported = set()
    for path in PERFBENCH.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("lu3q"):
                imported.update((node.module, alias.name) for alias in node.names)
    assert ("lu3q.polyfn", "delta_line") in imported  # perfbench/checks.py
    for mod, name in sorted(imported):
        assert hasattr(importlib.import_module(mod), name), f"{mod}.{name}"
