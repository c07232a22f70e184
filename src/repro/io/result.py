"""The member result file: the one record of how an ensemble attempt
ended.

A fleet worker publishes ``result.json`` atomically when an attempt ends
(:mod:`repro.ensemble.worker`); the supervisor reads it to settle the
attempt and ``obs-status --check`` (:func:`repro.obs.fleet.check_run_dir`)
to validate a run directory.  Both go through :func:`load_result`, which
lives here, below both of them.
"""

from __future__ import annotations

import json

__all__ = ["RESULT_NAME", "REQUIRED_RESULT_KEYS", "load_result"]

RESULT_NAME = "result.json"

#: keys a result file must carry to count as a valid attempt outcome
REQUIRED_RESULT_KEYS = (
    "member_id", "attempt", "status", "digest", "sim_t", "steps", "wall_s",
)


def load_result(path: str) -> dict | None:
    """Read and validate a member result file; ``None`` when unusable.

    A missing, torn, or garbled file (the corrupt-result fault, a death
    mid-write) yields ``None`` — the supervisor treats that attempt as
    failed and retries.
    """
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, ValueError, UnicodeDecodeError):
        return None
    if not isinstance(data, dict):
        return None
    if any(k not in data for k in REQUIRED_RESULT_KEYS):
        return None
    return data
