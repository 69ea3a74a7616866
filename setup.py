"""Build script for the optional compiled search kernel.

_kernel.pyx holds the two exhaustive searches, integer k-flows and
Z_k-flows; LP pivoting for circular flow numbers stays in simplex.py.

The package is fully functional without the extension; solve.py falls back
to the pure-Python kernel when the import fails.
"""

from setuptools import setup

try:
    from Cython.Build import cythonize

    ext_modules = cythonize(
        ["src/signedflow/_kernel.pyx"],
        language_level="3",
    )
except Exception:  # pragma: no cover - cython missing or source absent
    ext_modules = []

setup(ext_modules=ext_modules)
