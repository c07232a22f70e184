"""Fused modal-state kernels: compiled contraction chains for ADER-DG.

:mod:`repro.kernels.fusion` holds the one kernel path the spatial
operator (:mod:`repro.core.kernels`) executes: contraction chains compiled
at plan time into a short sequence of stacked GEMMs, the way Krenz et al.
(SC 2021) get theirs from a code generator.  The quadrature-form kernels
they were derived from are the test oracle (``tests/reference_kernels.py``).
:mod:`repro.kernels.faces` applies the same plan-time / step-time split to
the face modules the generic surface kernel leaves out (gravity, dynamic
rupture, prescribed motion): a ``FacePlan`` of trace classes, folded
per-face right factors and memoised masked sub-plans.
"""
