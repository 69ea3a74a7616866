"""Every name a module exports must exist, so a deletion cannot leave a
stale entry behind in some ``__all__``."""

import importlib
import pkgutil

import pytest

import signedflow

MODULES = ["signedflow"] + [
    f"signedflow.{info.name}" for info in pkgutil.iter_modules(signedflow.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), f"{name}.__all__ lists a name twice"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
