"""Keep every ``benchmarks/bench_*.py`` entry point runnable.

The figure/table benchmarks are the repo's reproduction artifacts; nothing
else in the suite would notice if one of them drifted out of sync with the
library API (signature changes, renamed helpers, moved configs).  The fast
tier imports each ``bench_*`` file and checks that its ``test_*`` entry
points take no parameters, so pytest runs them as plain tests; the slow
tier calls every entry point under ``REPRO_FAST=1`` (the shared scenario
runs take minutes even then): ``pytest -m slow tests/test_bench_smoke.py``.
"""

import importlib
import inspect
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"
BENCH_MODULES = sorted(p.stem for p in BENCH_DIR.glob("bench_*.py"))


@pytest.fixture(autouse=True)
def _tiny_mesh_mode(monkeypatch, tmp_path):
    # REPRO_FAST is read at benchmarks/_cache.py import time, so it must be
    # in the environment before the bench module (and _cache) are imported
    monkeypatch.setenv("REPRO_FAST", "1")
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    # keep the smoke run from clobbering the committed full-run results in
    # benchmarks/out with tiny-mesh numbers
    import _cache

    monkeypatch.setattr(_cache, "_OUT_DIR", str(tmp_path / "out"))


def entry_points(mod_name):
    mod = importlib.import_module(mod_name)
    entries = [fn for name, fn in sorted(vars(mod).items())
               if name.startswith("test_") and inspect.isfunction(fn)
               and fn.__module__ == mod.__name__]
    assert entries, f"{mod_name} defines no test_* entry point"
    return entries


def test_entry_points_take_no_parameters():
    assert len(BENCH_MODULES) >= 14, BENCH_MODULES
    for mod_name in BENCH_MODULES:
        for fn in entry_points(mod_name):
            params = list(inspect.signature(fn).parameters)
            assert not params, f"{mod_name}.{fn.__name__} takes {params}"


@pytest.mark.slow
@pytest.mark.parametrize("mod_name", BENCH_MODULES)
def test_bench_entry_points_run(mod_name):
    for fn in entry_points(mod_name):
        fn()
