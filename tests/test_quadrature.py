"""Unit and property tests for the simplex quadrature rules."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.quadrature import (
    gauss_jacobi_01,
    gauss_legendre_01,
    tetrahedron_rule,
    triangle_rule,
)


def _monomial_integral_tri(a: int, b: int) -> float:
    """Exact integral of r^a s^b over the unit triangle: a! b! / (a+b+2)!"""
    from math import factorial

    return factorial(a) * factorial(b) / factorial(a + b + 2)


def _monomial_integral_tet(a: int, b: int, c: int) -> float:
    from math import factorial

    return factorial(a) * factorial(b) * factorial(c) / factorial(a + b + c + 3)


class TestGaussJacobi:
    def test_weight_sum_alpha0(self):
        x, w = gauss_jacobi_01(5, 0)
        assert np.isclose(w.sum(), 1.0)

    def test_weight_sum_alpha1(self):
        x, w = gauss_jacobi_01(5, 1)
        assert np.isclose(w.sum(), 0.5)  # int_0^1 (1-x) dx

    def test_weight_sum_alpha2(self):
        x, w = gauss_jacobi_01(5, 2)
        assert np.isclose(w.sum(), 1.0 / 3.0)

    @pytest.mark.parametrize("alpha", [0, 1, 2])
    @pytest.mark.parametrize("n", [1, 2, 4, 7])
    def test_polynomial_exactness(self, alpha, n):
        x, w = gauss_jacobi_01(n, alpha)
        for deg in range(2 * n):
            # int_0^1 x^deg (1-x)^alpha dx = B(deg+1, alpha+1)
            from scipy.special import beta

            exact = beta(deg + 1, alpha + 1)
            assert np.isclose(np.sum(w * x**deg), exact, rtol=1e-12), deg

    @pytest.mark.parametrize("alpha", [0, 1, 2])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_scipy_roots_jacobi(self, alpha, n):
        """The in-repo Golub-Welsch rule against ``scipy.special``.  Nodes
        to 1e-14; weights to 5e-14, because scipy's own weights are off by
        up to 1e-14 (n = 6, alpha = 2) against a 40-digit reference the
        in-repo rule meets to 1e-15."""
        from scipy.special import roots_jacobi

        xs, ws = roots_jacobi(n, alpha, 0.0)
        x, w = gauss_jacobi_01(n, alpha)
        np.testing.assert_allclose(x, 0.5 * (xs + 1.0), rtol=0, atol=1e-14)
        np.testing.assert_allclose(w, ws / 2.0 ** (alpha + 1), rtol=0,
                                   atol=5e-14)

    def test_rejects_zero_points(self):
        with pytest.raises(ValueError):
            gauss_jacobi_01(0, 0)

    def test_nodes_inside(self):
        x, _ = gauss_jacobi_01(8, 1)
        assert np.all((x > 0) & (x < 1))


class TestTriangleRule:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_exactness(self, n):
        pts, w = triangle_rule(n)
        for a in range(2 * n):
            for b in range(2 * n - a):
                val = np.sum(w * pts[:, 0] ** a * pts[:, 1] ** b)
                assert np.isclose(val, _monomial_integral_tri(a, b), rtol=1e-11), (a, b)

    def test_points_inside(self):
        pts, w = triangle_rule(4)
        assert np.all(pts >= 0)
        assert np.all(pts.sum(axis=1) <= 1)
        assert np.all(w > 0)

    def test_area(self):
        _, w = triangle_rule(3)
        assert np.isclose(w.sum(), 0.5)


class TestTetRule:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_exactness(self, n):
        pts, w = tetrahedron_rule(n)
        deg = 2 * n - 1
        for a in range(deg + 1):
            for b in range(deg + 1 - a):
                for c in range(deg + 1 - a - b):
                    val = np.sum(w * pts[:, 0] ** a * pts[:, 1] ** b * pts[:, 2] ** c)
                    assert np.isclose(
                        val, _monomial_integral_tet(a, b, c), rtol=1e-10, atol=1e-15
                    ), (a, b, c)

    def test_volume(self):
        _, w = tetrahedron_rule(3)
        assert np.isclose(w.sum(), 1.0 / 6.0)

    def test_points_inside_positive_weights(self):
        pts, w = tetrahedron_rule(5)
        assert np.all(pts >= 0)
        assert np.all(pts.sum(axis=1) <= 1 + 1e-14)
        assert np.all(w > 0)

    @given(st.integers(min_value=1, max_value=6))
    @settings(max_examples=6, deadline=None)
    def test_rule_size(self, n):
        pts, w = tetrahedron_rule(n)
        assert pts.shape == (n**3, 3)
        assert w.shape == (n**3,)


class TestGaussLegendre01:
    def test_exactness(self):
        x, w = gauss_legendre_01(4)
        for deg in range(8):
            assert np.isclose(np.sum(w * x**deg), 1.0 / (deg + 1))


def test_import_repro_does_not_import_scipy_special(tmp_path):
    """Cold start: ``import repro`` must not pay for ``scipy.special``
    (0.25 s — the rules above are computed in-repo for that reason) nor
    for the observability stack the solver core does not use (everything
    in ``repro.obs`` but the metric registry: the package resolves its
    names lazily, and still resolves them), asking for a
    scenario builder must not load the supervision tree, building the
    quickstart must not load another scenario's module, and a coupled
    member run to its end must not pay for any of SciPy (0.14 s of
    ``scipy.linalg`` on the first gravity step, in every fleet worker —
    the face-ODE propagator exponentiates in-repo for that reason)."""
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = """
import sys, repro
print(sorted(m for m in sys.modules if m.startswith('scipy.special')))
from repro.ensemble.spec import get_builder
build = get_builder('quickstart')
print(sorted(m for m in sys.modules if m in (
    'repro.ensemble.supervisor', 'repro.ensemble.worker', 'multiprocessing')
    or m.startswith('repro.obs.') and m != 'repro.obs.metrics'))
from repro.obs import ObsSession, RunLog, build_bundle
import repro.obs.blackbox
print(ObsSession.__module__, RunLog.__module__, build_bundle.__module__,
      repro.obs.blackbox.build_bundle is build_bundle)
from repro.ensemble import MemberSpec, run_member
spec = MemberSpec('m', builder='quickstart', perturb={'n_x': 4}, t_end=0.05)
print(len(spec.build().solver.gravity) > 0, run_member(spec, sys.argv[1])['status'])
print(sorted(m for m in sys.modules if m.startswith('scipy')))
print(sorted(m for m in sys.modules if m.startswith('repro.scenarios.')))
"""
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          env=env, check=True, capture_output=True, text=True,
                          timeout=120)
    assert proc.stdout.split("\n")[:6] == [
        "[]", "[]",
        "repro.obs.session repro.obs.runlog repro.obs.blackbox True",
        "True completed", "[]", "['repro.scenarios.quickstart']"], proc.stdout
