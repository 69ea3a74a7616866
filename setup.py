"""Build script for the optional compiled search kernel.

_kernel.pyx holds the two exhaustive searches, integer k-flows and
Z_k-flows; LP pivoting for circular flow numbers stays in simplex.py.
Without Cython the extension is built from the committed _kernel.c,
which tests/test_backends.py checks against the current _kernel.pyx.

The package is fully functional without the extension; solve.py falls back
to the pure-Python kernel when the import fails.
"""

from setuptools import Extension, setup

try:
    from Cython.Build import cythonize
except ImportError:
    ext_modules = [Extension("signedflow._kernel", ["src/signedflow/_kernel.c"])]
else:
    ext_modules = cythonize(["src/signedflow/_kernel.pyx"], language_level="3")

setup(ext_modules=ext_modules)
