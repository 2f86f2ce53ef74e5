"""stentsim._blas: the four BLAS/LAPACK routines, loaded from scipy's
extension files without scipy.linalg's package init, or from the public
scipy.linalg.blas/lapack when a file is not found."""

import importlib.machinery
import importlib.util
import os
import subprocess
import sys

import scipy.linalg.blas
import scipy.linalg.lapack

from stentsim import _blas
from stentsim.fem import build_operators
from stentsim.params import paper_params
from stentsim.stepping import sharp_dt_limit
from test_cli import src_env

P = paper_params()


def python(code, *args):
    """stdout of ``code`` run in a fresh interpreter on this checkout."""
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          capture_output=True, text=True, env=src_env(),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def hide_scipy(monkeypatch, folder):
    """Make find_spec("scipy") report a package whose directory is folder."""
    fake = importlib.machinery.ModuleSpec(
        "scipy", None, origin=str(folder / "__init__.py"))
    find = importlib.util.find_spec
    monkeypatch.setattr(
        importlib.util, "find_spec",
        lambda name, package=None: fake if name == "scipy"
        else find(name, package))


def test_import_leaves_scipy_unloaded():
    loaded = python("import sys, stentsim.cli; "
                    "print(sorted(m for m in sys.modules "
                    "if m.partition('.')[0] == 'scipy'))")
    assert loaded == "[]\n"


def test_missing_extension_file_falls_back_to_public_routines(
        tmp_path, monkeypatch):
    # a scipy directory that holds _fblas but no _flapack
    fblas = _blas._extension("_fblas").origin
    linalg = tmp_path / "linalg"
    linalg.mkdir()
    (linalg / os.path.basename(fblas)).symlink_to(fblas)
    hide_scipy(monkeypatch, tmp_path)
    assert _blas._extension("_fblas").origin == str(
        linalg / os.path.basename(fblas))
    assert _blas._extension("_flapack") is None
    public = (scipy.linalg.blas.daxpy, scipy.linalg.blas.dgbmv,
              scipy.linalg.lapack.dpttrf, scipy.linalg.lapack.dpttrs)
    assert all(got is want for got, want in zip(_blas.routines(), public))


# simulate and compare-fd on a config given as argv[2], in an interpreter
# where find_spec("scipy") reports the directory argv[1] if it is set;
# prints whether scipy.linalg was imported
RUN = """\
import importlib.machinery, importlib.util, sys
hide, cfg = sys.argv[1:]
if hide:
    fake = importlib.machinery.ModuleSpec("scipy", None,
                                          origin=hide + "/__init__.py")
    find = importlib.util.find_spec
    importlib.util.find_spec = (lambda name, package=None: fake
                                if name == "scipy" else find(name, package))
from stentsim.cli import run
print("scipy.linalg" in sys.modules)
assert run(["simulate", "--config", cfg]) == 0
assert run(["compare-fd", "--config", cfg]) == 0
"""


def test_fallback_gives_the_same_record_bits(tmp_path):
    # 25 alg1 steps on 10/8, every step recorded: the kernel calls all
    # four routines and the finite-difference run calls daxpy
    ops = build_operators(P, 10, 8)
    dt = 0.5 * sharp_dt_limit(P, ops.mesh_s.h, ops.mesh_m.h)
    trees = {}
    for path, hide in (("direct", ""), ("fallback", tmp_path / "empty")):
        out = tmp_path / path
        cfg = tmp_path / f"{path}.yaml"
        cfg.write_text(f"""\
params: paper_defaults
mesh:
  n_s: 10
  n_m: 8
time:
  t_end: {25 * dt!r}
  dt_m: {dt!r}
scheme: alg1
output:
  out_dir: {out}
  snapshot_times: [0.0, {12 * dt!r}, {25 * dt!r}]
""")
        stdout = python(RUN, hide, cfg)
        assert stdout.startswith(f"{path == 'fallback'}\n")
        trees[path] = {f.name: f.read_bytes() for f in out.iterdir()
                       if f.name != "config_echo.yaml"}
    assert sorted(trees["direct"]) == ["fd_comparison.csv", "interface.csv",
                                       "monitors.csv", "snapshots.csv"]
    assert trees["direct"] == trees["fallback"]


def test_scipy_linalg_imports_after_stentsim():
    # scipy.linalg loads its own extension modules as it would without
    # stentsim, and the direct load called the same routines
    out = python("""\
import numpy as np
import stentsim.cli
from stentsim import _blas
import scipy.linalg
from scipy.linalg import _fblas, blas
x, y = np.arange(4.0), np.ones(4)
assert np.array_equal(_blas.daxpy(x, y.copy(), a=0.5),
                      blas.daxpy(x, y.copy(), a=0.5))
print(_fblas.__name__, scipy.linalg._flapack.__name__)
print(scipy.linalg.expm(np.zeros((2, 2))).tolist())
""")
    assert out == ("scipy.linalg._fblas scipy.linalg._flapack\n"
                   "[[1.0, 0.0], [0.0, 1.0]]\n")
