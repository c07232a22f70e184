"""Execution backends: serial and partition-parallel kernel drivers.

See :mod:`repro.exec.backend` for the backend interface and
:mod:`repro.exec.partitioned` for the Eq. 28-partitioned thread-pool
implementation.  The namespace is lazy (:mod:`repro._lazy`) so that
:mod:`repro.core.kernels` can import :mod:`repro.exec.plan_cache` without
creating an import cycle through the backend modules.
"""

from .._lazy import lazy_namespace

__all__, __getattr__ = lazy_namespace(__name__, {
    "backend": ("ExecutionBackend", "SerialBackend", "make_backend",
                "available_backends"),
    "partitioned": ("PartitionedBackend",),
    "plan_cache": ("OperatorPlan", "PlanCache", "get_plan_cache",
                   "clear_plan_cache", "mesh_fingerprint", "plan_key"),
})
