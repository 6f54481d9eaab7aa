"""The LAPACK and BLAS routines the factorizations call, from scipy's
compiled f2py modules, loaded without the scipy.linalg package.

`import scipy.linalg` costs about 0.17 s and 23 MB per process; the two
modules behind `scipy.linalg.lapack` and `.blas` load in about 5 ms.
Each is registered in `sys.modules` under its own name, so a later
`import scipy.linalg` reuses it and hands out these very routines, and
one that scipy.linalg loaded first is taken as it is.  Import this
module only where a matrix is factored.
"""

import importlib.util
import os
import sys
from importlib.machinery import PathFinder


def _load(name: str):
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")  # finds scipy without importing it
    spec = PathFinder.find_spec(name, [os.path.join(p, "linalg") for p in scipy.submodule_search_locations])
    if spec is None:  # no extension file, as in an editable scipy build
        return importlib.import_module(name)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


_flapack = _load("scipy.linalg._flapack")
_fblas = _load("scipy.linalg._fblas")
dpotrf, dstebz, dstein = _flapack.dpotrf, _flapack.dstebz, _flapack.dstein
dsyrk, dtrsm = _fblas.dsyrk, _fblas.dtrsm
