import contextlib
import functools
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chaingeo
from chaingeo import HermitianModel, ProjPoint, TangentVector, VisualMeasure, tangent
from chaingeo.cli import main


@pytest.fixture
def disc():
    return HermitianModel(1)


@pytest.fixture
def plane2():
    return HermitianModel(2)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_boundary(model, rng, n=1):
    pts = VisualMeasure(model).sample_points(n, rng=rng)
    return pts[0] if n == 1 else pts


def random_interior(model, rng, spread=0.8):
    u = rng.normal(size=model.p) + 1j * rng.normal(size=model.p)
    u *= spread * rng.random() / np.linalg.norm(u)
    return ProjPoint(np.concatenate([u, [1.0 + 0j]]), model=model, kind="interior")


def random_tangent(model, rng, x):
    raw = rng.normal(size=model.dim) + 1j * rng.normal(size=model.dim)
    return tangent(model, x, raw)


def apply_tangent(g, model, v):
    """Pushforward of a tangent vector by an isometry.

    The image components are re-expressed at the canonical lift of the
    image base point, so g-norms are preserved exactly.
    """
    X = v.base.lift
    lam = g.form_scale()
    MX = g.matrix @ X
    Mv = g.matrix @ v.components
    # canonical lift of the image divides by sqrt(lam) and a phase; tangent
    # components must follow the same rescaling
    Y = MX / np.sqrt(lam)
    last = Y[-1]
    phase = np.conj(last) / abs(last)
    base = ProjPoint(MX, model=model, kind="interior")
    return TangentVector(base, Mv / np.sqrt(lam) * phase)


def fit_circle(zs):
    """Kasa circle fit; returns (center, radius, max geometric residual)."""
    zs = np.asarray(zs)
    a = np.column_stack([2 * zs.real, 2 * zs.imag, np.ones(len(zs))])
    b = zs.real**2 + zs.imag**2
    sol, *_ = np.linalg.lstsq(a, b, rcond=None)
    cx, cy, c0 = sol
    r = np.sqrt(c0 + cx * cx + cy * cy)
    center = cx + 1j * cy
    resid = float(np.max(np.abs(np.abs(zs - center) - r)))
    return center, r, resid


def run_python(*args):
    """Run ``python *args`` in a fresh interpreter that imports this
    checkout's chaingeo; returns the completed process (stdout as bytes)."""
    src = str(Path(chaingeo.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, check=True, timeout=300
    )


@functools.cache
def cli_run(*argv):
    """(exit code, stdout) of ``chaingeo *argv``, run in process with
    CHAINGEO_SEED unset.  It is cached, so a command that two test modules
    check, such as ``verify --suite <key>``, runs once per pytest run."""
    saved = os.environ.pop("CHAINGEO_SEED", None)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = main(list(argv))
    finally:
        if saved is not None:
            os.environ["CHAINGEO_SEED"] = saved
    return code, out.getvalue()
