"""The LAPACK routines of the grid solvers, without the ``scipy.linalg``
package.

``scipy.linalg.lapack`` re-exports the routines of scipy's f2py extension
module ``scipy/linalg/_flapack``.  Importing them through the package runs
``scipy/linalg/__init__.py``, which loads about 290 modules more than the
extension alone and costs a process about 0.2 s and 19 MB more.  This
module loads the extension from its file instead, so the solvers call the
same Fortran routines with the same arguments.  It imports the top-level
``scipy`` package, whose subpackages load lazily, only to find that file.
The solvers import this module when they are called, so ``import robustq``
loads no scipy.
"""

import importlib.machinery
import importlib.util
import os

import scipy


def _load_flapack():
    directory = os.path.join(scipy.__path__[0], "linalg")
    spec = importlib.machinery.PathFinder.find_spec("_flapack", [directory])
    if spec is None:
        raise ImportError(f"scipy's LAPACK extension _flapack is not in "
                          f"{directory}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_flapack = _load_flapack()
# symmetric tridiagonal eigenpairs: bisection, then inverse iteration
dstebz, dstein = _flapack.dstebz, _flapack.dstein
# symmetric positive definite tridiagonal factor and solve
dpttrf, dpttrs = _flapack.dpttrf, _flapack.dpttrs
# general complex tridiagonal factor and solve
zgttrf, zgttrs = _flapack.zgttrf, _flapack.zgttrs
