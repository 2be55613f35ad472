"""The benchmark tracer patches glucast from outside: every binding it names
must exist as the owner's own attribute, or ``--trace 1`` fails."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracer", Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py")
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


@pytest.mark.parametrize("module, owner_name, attr", [b[:3] for b in tracer.BINDINGS],
                         ids=[".".join(filter(None, b[:3])) for b in tracer.BINDINGS])
def test_tracer_binding_is_an_own_attribute(module, owner_name, attr):
    owner = importlib.import_module(module)
    if owner_name:
        owner = getattr(owner, owner_name)
    assert attr in owner.__dict__
