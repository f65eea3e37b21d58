"""Every ``repro`` name the benchmark suite reaches for still exists.

``benchmarks/suite/`` imports program names inside its drivers and
patches some of them to time each layer. A rename in ``src/`` would only
show when the suite runs; these checks read the suite's source with
``ast`` and resolve each name in-process instead.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

_SUITE = Path(__file__).parent.parent / "benchmarks" / "suite"
_FILES = sorted(_SUITE.glob("*.py"))


def _repro_imports(path):
    """``(local name, module, attribute or None)`` for every ``repro``
    import in one file, function-local imports included."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    out.append((alias.asname or alias.name, alias.name, None))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro":
            for alias in node.names:
                out.append((alias.asname or alias.name, node.module, alias.name))
    return out


def _resolve(module, attr):
    obj = importlib.import_module(module)
    return obj if attr is None else getattr(obj, attr)


@pytest.mark.parametrize("path", _FILES, ids=lambda p: p.name)
def test_suite_imports_resolve(path):
    for _, module, attr in _repro_imports(path):
        try:
            _resolve(module, attr)
        except (ImportError, AttributeError) as exc:
            pytest.fail(f"{path.name}: {module}.{attr or ''} does not resolve: {exc}")


@pytest.mark.parametrize("path", _FILES, ids=lambda p: p.name)
def test_suite_patch_targets_exist(path):
    """Each ``<tracer>.patch(owner, "name", ...)`` names a real attribute."""
    bound = {local: (module, attr) for local, module, attr in _repro_imports(path)}
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "patch"
            and len(node.args) >= 2
            and isinstance(node.args[0], ast.Name)
            and node.args[0].id in bound
            and isinstance(node.args[1], ast.Constant)
        ):
            owner = _resolve(*bound[node.args[0].id])
            assert hasattr(owner, node.args[1].value), (path.name, node.args[0].id, node.args[1].value)


def test_cache_methods_the_tracer_wraps():
    """spans.py wraps both stores' load/store and reads the first four
    positional arguments of ``WorkloadCache.store`` to find the record."""
    from repro.harness.cache import ResultCache
    from repro.harness.workload_cache import WorkloadCache

    for cls in (ResultCache, WorkloadCache):
        for name in ("load", "store", "path_for"):
            assert callable(getattr(cls, name))
    params = list(inspect.signature(WorkloadCache.store).parameters)
    assert params[:5] == ["self", "benchmark", "scale", "seed", "spec"]
    assert list(inspect.signature(WorkloadCache.key_for).parameters) == ["benchmark", "scale", "seed"]
