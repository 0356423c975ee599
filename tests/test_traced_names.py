"""The benchmark's traced names still point at functions of the program.

perfbench/tracing.py wraps each name in its TRACED list, and a name that no
longer resolves stops a traced benchmark run. Resolving them here, with the
same lookup `Tracer.installed` uses, makes a rename or deletion fail the
tests too, and so does a traced generator function changing kind.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def _resolve(target):
    modname, *path = target.split(".")
    owner = importlib.import_module(f"vbplab.{modname}")
    for part in path[:-1]:
        owner = getattr(owner, part)
    return vars(owner)[path[-1]]


@pytest.mark.parametrize("target", _traced_names())
def test_traced_name_resolves_to_a_function(target):
    assert inspect.isfunction(_resolve(target))


def test_the_traced_generator_functions_are_the_enumerations():
    # The tracer times a generator function per resumption. A generator
    # that became a function returning a generator would move its self
    # time into whichever traced function resumes it.
    generators = {t for t in _traced_names() if inspect.isgeneratorfunction(_resolve(t))}
    assert generators == {"generators.all_graphs", "generators.all_connected_graphs"}
