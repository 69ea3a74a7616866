"""Every name a module exports must exist, so a deletion cannot leave a
stale entry behind in some ``__all__``."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_import_leaves_multiprocessing_unloaded():
    # only a suite run with workers > 1 needs it, and loading it costs
    # every process that imports the package about 1 MB
    src = str(Path(signedflow.__file__).resolve().parent.parent)
    code = "import sys, signedflow; print('multiprocessing' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"
