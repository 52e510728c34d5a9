"""The traced benchmark wraps the program's callables by name
(``bench/trace.py::TARGETS``).  A rename must fail here, in tier-1,
not in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACE_PY = Path(__file__).resolve().parents[1] / "bench" / "trace.py"


def _load_trace():
    spec = importlib.util.spec_from_file_location("bench_trace", _TRACE_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACE = _load_trace()


@pytest.mark.parametrize(
    "module_name, class_name, attribute",
    [target[:3] for target in TRACE.TARGETS],
)
def test_target_resolves(module_name, class_name, attribute):
    module = importlib.import_module(module_name)
    if class_name is None:
        assert callable(getattr(module, attribute))
    else:
        # install() reads vars(owner): inherited attributes do not count.
        assert callable(vars(getattr(module, class_name))[attribute])


def test_engine_calls_go_through_wrappable_bindings():
    """Module-level targets are wrapped in every ``repro`` module that
    imported them by name; the chase must hold such a binding for its
    plan and kernel-compile spans to be recorded."""
    from repro.engine import kernels, planner

    # ``repro.engine.chase`` the attribute is the function, not the module.
    chase = importlib.import_module("repro.engine.chase")
    assert vars(chase)["plan_rule"] is planner.plan_rule
    assert vars(chase)["compile_rule_kernel"] is kernels.compile_rule_kernel


def test_route_table_holds_the_parsers_by_value():
    from repro.serve import protocol, routes

    parsers = {
        getattr(protocol, attribute)
        for module_name, _cls, attribute, _layer, name in TRACE.TARGETS
        if module_name == "repro.serve.protocol" and name == "parse"
    }
    assert parsers <= set(routes.PARSERS.values())
