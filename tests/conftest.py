"""Shared fixtures and helpers for the test suite.

Seed policy: every randomized test derives its draws from an explicit
integer seed (hypothesis ``@given(st.integers(...))`` with the
``derandomized`` profile below, or a parametrized seed list), never from
global RNG state.  That keeps the suite order-independent and safe under
parallel runners — each test's randomness is a pure function of its own
parameters.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.materials import acoustic, elastic
from repro.core.solver import CoupledSolver, PointSource, ocean_surface_gravity_tagger
from repro.ensemble.retry import RetryPolicy
from repro.mesh.generators import layered_ocean_mesh

try:
    from hypothesis import settings as _hyp_settings
except ImportError:  # pragma: no cover - hypothesis is an optional test dep
    pass
else:
    _hyp_settings.register_profile("repro", derandomize=True, deadline=None)
    _hyp_settings.load_profile("repro")


@pytest.fixture
def rock():
    """Generic crustal rock (cp=6000, cs=3464, rho=2700)."""
    return elastic(2700.0, 6000.0, 3464.0)


@pytest.fixture
def water():
    """Standard ocean water (c=1500, rho=1000)."""
    return acoustic(1000.0, 1500.0)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def shrink(monkeypatch):
    """Lower class constants for one test, e.g. ``shrink(CheckpointManager,
    keep=2)``: the production sizes (3 rotations, 10^6 trace spans) take
    too long to fill in a test."""
    def set_constants(cls, **values):
        for name, value in values.items():
            assert hasattr(cls, name), name
            monkeypatch.setattr(cls, name, value)
    return set_constants


@pytest.fixture
def registry_calls(monkeypatch):
    """Count the calls of every :class:`MetricRegistry` recording entry
    point (by method name) for one test."""
    from collections import Counter

    from repro.obs.metrics import MetricRegistry

    calls = Counter()
    for name in ("add_time", "record", "add_span", "inc", "set_gauge"):
        def spy(self, *args, _fn=getattr(MetricRegistry, name), _name=name,
                **kwargs):
            calls[_name] += 1
            return _fn(self, *args, **kwargs)
        monkeypatch.setattr(MetricRegistry, name, spy)
    return calls


def disabled_step_overhead(solver, sites, one_site, n=50_000):
    """Fraction of a measured ``solver`` step that ``sites`` passes over
    the disabled entry points in ``one_site`` would cost.

    Returns ``(overhead, per_site_seconds)``; the caller asserts the
    < 2 % bar on ``overhead``.
    """
    t0 = time.perf_counter()
    for _ in range(n):
        one_site()
    per_site = (time.perf_counter() - t0) / n

    t0 = time.perf_counter()
    for _ in range(3):
        solver.step()
    per_step = (time.perf_counter() - t0) / 3
    return sites * per_site / per_step, per_site


class FastRetry(RetryPolicy):
    """The ensemble retry ladder with its backoff shortened to 10-20 ms, so
    a test's retries do not sleep."""

    backoff_base = 0.01
    max_delay_s = 0.02


def random_unit_vector(rng):
    """Uniformly random unit vector (face normal / rotation axis)."""
    while True:
        n = rng.normal(size=3)
        norm = np.linalg.norm(n)
        if norm > 1e-6:
            return n / norm


def random_material(rng, kind=None):
    """Random physically-plausible material for property-based tests.

    ``kind`` is ``"elastic"``, ``"acoustic"`` or ``None`` (choose
    randomly).  Densities span soft sediment to mantle rock, cp spans
    water to fast crust, and cs/cp stays inside the physical Poisson
    range.
    """
    if kind is None:
        kind = ("elastic", "acoustic")[int(rng.integers(2))]
    rho = float(rng.uniform(800.0, 4000.0))
    cp = float(rng.uniform(1000.0, 9000.0))
    if kind == "acoustic":
        return acoustic(rho, cp)
    return elastic(rho, cp, float(rng.uniform(0.3, 0.65)) * cp)


def ocean_box_mesh(xs, bottom, seafloor, layers=(2, 1), *, ys=None,
                   earth=None, ocean=None, periodic=False):
    """An untagged box on the ``xs`` x ``ys`` (default ``xs``) columns:
    crust ``earth`` (default rock, cp 6000) from ``bottom`` to
    ``seafloor`` under ocean ``ocean`` (default water, c 1500) up to
    z = 0, in ``layers`` = (crust, ocean) element layers; ``periodic``
    glues the opposite lateral sides."""
    ys = xs if ys is None else ys
    mesh = layered_ocean_mesh(
        xs, ys,
        zs_earth=np.linspace(bottom, seafloor, layers[0] + 1),
        zs_ocean=np.linspace(seafloor, 0.0, layers[1] + 1),
        earth=elastic(2700.0, 6000.0, 3464.0) if earth is None else earth,
        ocean=acoustic(1000.0, 1500.0) if ocean is None else ocean,
    )
    if periodic:
        mesh.glue_periodic(np.array([xs[-1] - xs[0], 0, 0]))
        mesh.glue_periodic(np.array([0, ys[-1] - ys[0], 0]))
    return mesh


def gravity_box_mesh(crust=(2700.0, 4000.0, 2300.0), ocean_cp=1500.0):
    """The test rig's mesh: a 2 km x 2 km box of 3 x 3 columns, two crust
    layers (``crust`` is its ``(rho, cp, cs)``) from -1500 m to -500 m
    under one 500 m ocean layer (sound speed ``ocean_cp``) topped by a
    gravity free surface."""
    mesh = ocean_box_mesh(np.linspace(0.0, 2000.0, 4), -1500.0, -500.0,
                          earth=elastic(*crust),
                          ocean=acoustic(1000.0, ocean_cp))
    mesh.tag_boundary(ocean_surface_gravity_tagger(mesh))
    return mesh


def _ricker(t):
    a = (np.pi * 2.0 * (t - 0.3)) ** 2
    return (1.0 - 2.0 * a) * np.exp(-a)


def gravity_box(order=2, *, source=True, backend="serial", workers=None,
                mesh=None, **mesh_kw):
    """The test rig: a coupled solver on ``mesh`` (default:
    :func:`gravity_box_mesh` of ``mesh_kw``) with, unless ``source`` is
    false, an explosive Ricker point source (2 Hz peak at t = 0.3 s)
    900 m deep under the box centre."""
    solver = CoupledSolver(gravity_box_mesh(**mesh_kw) if mesh is None else mesh,
                           order=order, backend=backend, workers=workers)
    if source:
        solver.add_source(PointSource([1000.0, 1000.0, -900.0], _ricker,
                                      moment=[5e12] * 3 + [0, 0, 0]))
    return solver


def l2_error(solver, exact_fn, t):
    """Global L2 error of a CoupledSolver state against ``exact_fn(x, t)``."""
    ref = solver.op.ref
    mesh = solver.mesh
    pts = mesh.map_points(np.arange(mesh.n_elements), ref.vol_points)
    num = np.einsum("qb,ebn->eqn", ref.V, solver.Q)
    ex = exact_fn(pts.reshape(-1, 3), t).reshape(num.shape)
    return float(
        np.sqrt(np.einsum("e,q,eqn->", mesh.det_jac, ref.vol_weights, (num - ex) ** 2))
    )
