"""The watchdog's state sweep: one reduction per array on the healthy
path, the per-entry scan (and its messages) only where that reduction is
not finite."""

import tracemalloc

import numpy as np

from repro.core.health import Watchdog

from .conftest import gravity_box


class TestStateSweep:
    def test_healthy_sweep_allocates_no_mask(self):
        """A healthy sweep reads every array once and allocates nothing of
        its size (``np.isfinite`` built a boolean mask of every array)."""
        solver = gravity_box()
        wd = Watchdog(solver)
        assert wd._check_state() == ""
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert wd._check_state() == ""
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < solver.Q.size // 8, peak

    def test_overflowing_sum_of_finite_entries_is_healthy(self):
        """A sum can overflow where no entry is non-finite: the per-entry
        scan decides, and finds nothing."""
        solver = gravity_box()
        solver.Q[0, 0, 0] = solver.Q[1, 0, 0] = 1e308
        with np.errstate(over="ignore"):
            assert not np.isfinite(np.sum(solver.Q))
        assert Watchdog(solver)._check_state() == ""

    def test_nonfinite_entries_are_counted_and_located(self):
        solver = gravity_box()
        solver.Q[3, 2, 1] = np.inf
        solver.Q[5, 0, 0] = np.nan
        assert Watchdog(solver)._check_state() == (
            "Q has 1 NaN / 1 Inf values (first at element 3, Q[3, 2, 1])")
