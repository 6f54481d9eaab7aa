"""The LAPACK/BLAS loader: scipy's compiled modules without the scipy.linalg package."""

import json
import os
import subprocess
import sys
from pathlib import Path

import sinegap
from sinegap import Discretization

# (partition, weights, r): one sign, mixed signs (two factors, a
# triangular solve and a rank update), and a hard gap (prolate modes)
INPUTS = (
    ((0.0, 1.0), (0.5,), 2.0),
    ((0.0, 0.5, 1.1, 1.7), (0.3, 2.1, 0.6), 10.0),
    ((0.0, 0.5, 1.1, 1.7), (1.5, 0.0, 0.4), 40.0),
)

LOG_DETS = f"""
from sinegap import Discretization
values = [Discretization(x, r, 64).log_det(s) for x, s, r in {INPUTS!r}]
"""


def run_python(script):
    """The last line of stdout of `script` in a fresh interpreter, as JSON."""
    src = str(Path(sinegap.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_scipy_linalg_imported_later_hands_out_the_routines_sinegap_calls():
    script = LOG_DETS + """
import json, sys
from sinegap import _lapack
before = "scipy.linalg" in sys.modules
import scipy.linalg.blas, scipy.linalg.lapack
same = [
    scipy.linalg.lapack.dpotrf is _lapack.dpotrf,
    scipy.linalg.lapack.dstebz is _lapack.dstebz,
    scipy.linalg.lapack.dstein is _lapack.dstein,
    scipy.linalg.blas.dtrsm is _lapack.dtrsm,
    scipy.linalg.blas.dsyrk is _lapack.dsyrk,
    scipy.linalg.lapack._flapack is _lapack._flapack,
    scipy.linalg.blas._fblas is _lapack._fblas,
]
print(json.dumps([before, same]))
"""
    assert run_python(script) == [False, [True] * 7]


def test_loader_takes_the_modules_scipy_linalg_loaded_first():
    script = """
import json
import scipy.linalg.blas, scipy.linalg.lapack
from sinegap import _lapack
print(json.dumps([_lapack._flapack is scipy.linalg.lapack._flapack, _lapack._fblas is scipy.linalg.blas._fblas]))
"""
    assert run_python(script) == [True, True]


def test_loader_without_a_file_spec_imports_the_modules_and_gives_the_same_values():
    # as in an editable scipy build, where no extension file sits in
    # scipy/linalg: the loader falls back to importlib.import_module.  The
    # import system keeps the real PathFinder; importlib.abc, which the
    # fallback imports, looks the stub up by its name
    script = """
import importlib.machinery, json, sys
import sinegap


class PathFinder(importlib.machinery.PathFinder):
    @classmethod
    def find_spec(cls, fullname, path=None, target=None):
        return None


importlib.machinery.PathFinder = PathFinder
""" + LOG_DETS + """
print(json.dumps([values, "scipy.linalg" in sys.modules]))
"""
    values, package_imported = run_python(script)
    assert package_imported  # the fallback branch ran
    assert values == [Discretization(x, r, 64).log_det(s) for x, s, r in INPUTS]
