"""The benchmark's tracer (perfbench/tracing.py) rebinds the functions named
in its TIMED table by name.  A rename or a move would leave a per-layer
metric silently empty, so each name must still be a function defined in
its cartanlab module, or a method of a class there."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _timed_table():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # read only: leave no bytecode cache behind in the benchmark's directory
    prior, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = prior
    return module.TIMED


def test_traced_names_are_functions_of_their_modules():
    table = _timed_table()
    assert table
    for module_name, attrs in table.items():
        module = importlib.import_module(f"cartanlab.{module_name}")
        for attr in attrs:
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(module, cls_name, None)
                assert inspect.isclass(owner), f"{module_name}.{cls_name}"
                assert inspect.isfunction(owner.__dict__.get(method)), f"{module_name}.{attr}"
            else:
                fn = getattr(module, attr, None)
                assert inspect.isfunction(fn), f"{module_name}.{attr}"
                assert fn.__module__ == module.__name__, f"{module_name}.{attr} is imported"
