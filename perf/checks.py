"""Correctness checks applied to every run of the benchmark.

A pass record carries a ``state`` block (``seams._state_summary``): the
SHA-256 digest of the final solver state plus scalar diagnostics.  The
checks here decide from those, from the supervised/fleet artifacts and
from ``reference.json`` (seed 0 only; written by ``run.py
--update-reference``) whether the program's output is right.  Other seeds
shift the source, so for them only invariants are checked.
"""

from __future__ import annotations

import json
import math
import os

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")
REFERENCE_SEED = 0
#: quantities compared against the reference, and how tightly
REFERENCE_FIELDS = ("energy", "eta_abs_max", "peak_slip_rate", "state_l2")
REFERENCE_RTOL = 1e-6
#: below a nanometre of sea surface or a nm/s of slip a value is round-off
#: (the wave has not arrived yet) and need not repeat across BLAS builds
REFERENCE_ATOL = {"eta_abs_max": 1e-9, "peak_slip_rate": 1e-9}
#: clustered LTS vs GTS on the same mesh and seed: equal to truncation error
LTS_VS_GTS_RTOL = 1e-2


def reference_key(workload: str, t_end: float) -> str:
    return f"{workload}@{t_end:.6g}"


def load_reference() -> dict:
    try:
        with open(REFERENCE_PATH, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return {}


def reference_entry(record: dict) -> dict:
    return {k: record["state"][k] for k in REFERENCE_FIELDS}


def _close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return math.isclose(a, b, rel_tol=rtol, abs_tol=atol)


def check_workload(w, seed: int, t_end: float, passes: list,
                   reference: dict, cross: dict | None = None) -> list:
    """All checks of one workload over the passes of one invocation.

    ``cross`` may carry ``serial_digest`` (palu_lts of the same seed, for
    the partitioned workload) and ``gts_energy`` (palu_gts, for the LTS
    workloads).  Returns ``[{"name", "ok", "detail"}, ...]``.
    """
    cross = cross or {}
    out = []

    def add(name, ok, detail):
        out.append({"name": name, "ok": bool(ok), "detail": detail})

    states = [p["state"] for p in passes]
    first = states[0]
    add("finite", all(s["finite"] for s in states),
        f"every state array finite in {len(states)} pass(es)")
    t_stop = t_end * (1.0 + w.t_warm / w.t_end)  # warm-up, then the window
    add("reached_t_end",
        all(_close(s["sim_t"], t_stop, 1e-9) for s in states),
        f"sim t = {first['sim_t']:.9g}, warm-up + t_end = {t_stop:.9g}")
    add("passes_bitwise_equal",
        len({s["digest"] for s in states}) == 1,
        f"{len(states)} pass(es), digest {first['digest'][:12]}")
    add("energy_positive", first["energy"] > 0.0,
        f"energy = {first['energy']:.6e}")

    ref = reference.get(reference_key(w.name, t_end))
    if ref is None:
        add("reference", True, "no reference at this size: invariants only")
    elif seed == REFERENCE_SEED:
        bad = [f"{k}: {first[k]!r} vs {ref[k]!r}" for k in REFERENCE_FIELDS
               if not _close(first[k], ref[k], REFERENCE_RTOL,
                             REFERENCE_ATOL.get(k, 0.0))]
        add("reference", not bad,
            "; ".join(bad) if bad else
            f"{', '.join(REFERENCE_FIELDS)} within rtol {REFERENCE_RTOL:g}")
    else:
        add("reference", True,
            f"seed {seed} moves the source: invariants only; energy = "
            f"{first['energy'] / ref['energy']:.3f} x the seed-0 energy")

    if "gts_energy" in cross:
        rel = abs(first["energy"] / cross["gts_energy"] - 1.0)
        add("lts_vs_gts_energy", rel <= LTS_VS_GTS_RTOL,
            f"relative difference {rel:.2e} (limit {LTS_VS_GTS_RTOL:g})")
    if "serial_digest" in cross:
        add("partitioned_equals_serial",
            first["digest"] == cross["serial_digest"],
            f"{first['digest'][:12]} vs serial {cross['serial_digest'][:12]}")

    if w.supervised:
        rollbacks = [p["facts"]["core.rollbacks"] for p in passes]
        add("no_rollbacks", not any(rollbacks), f"rollbacks per pass {rollbacks}")
        written = [s["checkpoints"] for s in states]
        add("checkpoints_written", all(n == w.checkpoints for n in written),
            f"{written} of {w.checkpoints} per pass")
        add("newest_checkpoint_restores_bitwise",
            all(s["restore_bitwise"] for s in states),
            "state digest after restore equals the final state")
        add("runlog_validates", not any(s["runlog_errors"] for s in states),
            f"{first['runlog_records']} records, "
            f"{sum(s['runlog_errors'] for s in states)} error(s)")
    if w.members:
        fleets = [p["facts"]["members"] for p in passes]
        add("members_ok",
            all(len(f) == w.members and all(m["status"] == "ok" for m in f)
                for f in fleets),
            ", ".join(f"{m['id']}={m['status']}" for m in fleets[0]))
        add("single_attempts",
            all(m["attempts"] == 1 for f in fleets for m in f),
            f"attempts {[m['attempts'] for m in fleets[0]]}")
        add("member0_equals_bare_run",
            all(f[0]["digest"] == first["digest"] for f in fleets),
            f"{str(fleets[0][0]['digest'])[:12]} vs bare {first['digest'][:12]}")
    return out
