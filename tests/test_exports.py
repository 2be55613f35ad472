"""Every public export names something that exists."""

import importlib

import pytest

PACKAGES = ["glucast.kernel", "glucast.models", "glucast.datapipe", "glucast.training",
            "glucast.evalmetrics"]


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_resolves(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{package}.__all__ names {missing}, which do not exist"
