"""The pertlab names the benchmark binds exist.

``bench/trace_layers.py`` wraps functions and methods by name, and
``bench/worker.py`` calls into ``cli`` and ``harness``.  Both files are read
here with ``ast``, without importing the tracer, so a rename fails this
suite with the missing name, not only the traced benchmark run.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

from pertlab.harness import ExperimentReport
from pertlab.rings import RingDescriptor

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _tree(name: str) -> ast.Module:
    return ast.parse((BENCH / name).read_text(encoding="utf-8"))


def _pertlab_modules(tree: ast.Module) -> dict:
    """Local name -> module for every ``from pertlab import ...``."""
    return {alias.asname or alias.name:
            importlib.import_module(f"pertlab.{alias.name}")
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "pertlab"
            for alias in node.names}


def _missing_attributes(tree: ast.Module) -> list[str]:
    """Every ``module.attr`` read of a pertlab module that does not exist."""
    modules = _pertlab_modules(tree)
    return [ast.unparse(node) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id in modules
            and not hasattr(modules[node.value.id], node.attr)]


def _resolve(expr: ast.expr, modules: dict):
    """The object a name such as ``rings.RingDescriptor`` denotes."""
    if isinstance(expr, ast.Name):
        return modules[expr.id]
    return getattr(_resolve(expr.value, modules), expr.attr)


def test_traced_functions_and_methods_exist():
    tree = _tree("trace_layers.py")
    assert not _missing_attributes(tree), \
        f"bench/trace_layers.py reads missing names: {_missing_attributes(tree)}"
    modules = _pertlab_modules(tree)
    found = {"fn": [], "meth": []}
    missing = []
    for node in ast.walk(tree):
        # fn(module, "attr", ...) and meth(cls, "attr", ...); the wrapper's
        # own fn(*args, **kwargs) call names no attribute.
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in found and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)):
            continue
        owner, attr = _resolve(node.args[0], modules), node.args[1].value
        found[node.func.id].append(attr)
        # Functions are looked up on the module, methods in the class dict.
        exists = (callable(getattr(owner, attr, None)) if node.func.id == "fn"
                  else attr in vars(owner))
        if not exists:
            missing.append(f"{ast.unparse(node.args[0])}.{attr}")
    assert not missing, f"bench/trace_layers.py wraps missing names: {missing}"
    # The scan sees every wrapper the tracer installs today.
    assert len(found["fn"]) >= 23 and len(found["meth"]) >= 5


def test_trace_hooks_and_worker_calls_exist():
    # The rebuild hook keys each rebuild by the ring's spec tuple.
    hooks = {node.func.attr for node in ast.walk(_tree("trace_layers.py"))
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)}
    assert "spec_tuple" in hooks
    assert callable(getattr(RingDescriptor, "spec_tuple", None)), \
        "bench/trace_layers.py calls the missing RingDescriptor.spec_tuple"
    worker = _tree("worker.py")
    assert not _missing_attributes(worker), \
        f"bench/worker.py reads missing names: {_missing_attributes(worker)}"
    read = {ast.unparse(node) for node in ast.walk(worker)
            if isinstance(node, ast.Attribute)}
    assert {"cli._resolve_config", "cli.parse_manifest", "cli.run_manifest",
            "cli.emit_csv", "harness.resolve_ring"} <= read
    assert callable(getattr(ExperimentReport, "exit_code", None)), \
        "bench/worker.py calls the missing ExperimentReport.exit_code"
