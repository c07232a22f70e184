"""Benchmark-suite configuration.

Each ``bench_*`` file regenerates one table or figure of the paper as a
plain pytest test and prints a paper-vs-measured comparison; ``pytest
benchmarks -s`` runs them all.  Heavy scenario runs are shared through
:mod:`benchmarks._cache`; set ``REPRO_FAST=1`` for a quick smoke pass.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(__file__))


def pytest_configure(config):
    # make the printed comparisons visible by default
    config.option.verbose = max(config.option.verbose, 0)
