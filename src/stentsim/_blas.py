"""The four BLAS/LAPACK routines stentsim calls, loaded without running
scipy.linalg's package init.

``from scipy.linalg.blas import daxpy`` first runs
``scipy/linalg/__init__.py``, which imports scipy's array-API layer,
``numpy.f2py``, ``numpy.testing`` and ``numpy.ma``: most of the time of
``import stentsim.cli``.  The routines live in scipy's f2py extension
modules ``scipy/linalg/_fblas`` and ``_flapack``, which need only numpy.
This module finds scipy's directory without importing scipy
(``find_spec("scipy").origin``) and loads those two files directly.  The
calls go to the same library as through ``scipy.linalg.blas`` and
``scipy.linalg.lapack``, so every result is the same bits.

``_fblas`` and ``_flapack`` are private scipy names.  When either file is
not in ``scipy/linalg`` (another layout, a zipped or frozen install), the
public imports are used instead.  The loaded modules are not registered in
``sys.modules``, so a later ``import scipy.linalg`` runs as it would
without stentsim.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys


def _extension(name: str):
    """The loadable spec of the extension file scipy/linalg/<name>, or
    None when scipy's directory or the file cannot be found."""
    scipy = importlib.util.find_spec("scipy")
    if scipy is None or not scipy.origin:
        return None
    folder = os.path.join(os.path.dirname(scipy.origin), "linalg")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(folder, name + suffix)
        if os.path.isfile(path):
            full = "scipy.linalg." + name
            return importlib.util.spec_from_file_location(
                full, path,
                loader=importlib.machinery.ExtensionFileLoader(full, path))
    return None


def _load(spec):
    """The module of ``spec``: scipy's own if scipy.linalg has loaded it,
    else a fresh load that is kept out of ``sys.modules`` (Python registers
    a single-phase extension module there under its name)."""
    if spec.name in sys.modules:
        return sys.modules[spec.name]
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules.pop(spec.name, None)
    return module


def routines():
    """(daxpy, dgbmv, dpttrf, dpttrs), from the extension files when both
    are found and from scipy.linalg.blas/lapack otherwise."""
    specs = [_extension("_fblas"), _extension("_flapack")]
    if not all(specs):
        from scipy.linalg.blas import daxpy, dgbmv
        from scipy.linalg.lapack import dpttrf, dpttrs
        return daxpy, dgbmv, dpttrf, dpttrs
    fblas, flapack = map(_load, specs)
    return fblas.daxpy, fblas.dgbmv, flapack.dpttrf, flapack.dpttrs


daxpy, dgbmv, dpttrf, dpttrs = routines()
