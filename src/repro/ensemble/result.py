"""Ensemble result records: per-member status and the fleet summary.

The driver's contract is *graceful degradation, never a crashed driver*:
whatever the workers did — finished cleanly, died and recovered, or got
quarantined after exhausting their strikes — :meth:`Supervisor.run`
always terminates with a complete :class:`EnsembleResult` accounting for
every member.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field

from ..io.atomic import atomic_open

__all__ = ["MemberResult", "EnsembleResult", "STATUSES"]

#: terminal member states
STATUSES = ("ok", "recovered", "quarantined")


@dataclass
class MemberResult:
    """Terminal record of one ensemble member."""

    member_id: str
    #: ``ok`` (clean first attempt) | ``recovered`` (succeeded after >= 1
    #: process-level retry) | ``quarantined`` (strikes exhausted)
    status: str
    #: total process launches (1 = clean)
    attempts: int = 1
    #: wall-clock seconds from first launch to terminal state
    wall_s: float = 0.0
    #: timestep scale of the successful attempt (1.0 = nominal; < 1 means
    #: the trajectory is *not* comparable bitwise to the unscaled twin)
    dt_scale: float = 1.0
    #: SHA-256 digest of the final solver state (bitwise identity check)
    digest: str | None = None
    #: scenario-level summary metrics from the builder's ``summarize``
    summary: dict = field(default_factory=dict)
    #: chronological failure history: one dict per failed attempt
    #: ({"attempt", "reason", "delay_s", "resume", "dt_scale", "bundle",
    #: "verdict"})
    history: list = field(default_factory=list)
    #: why the member was quarantined (``None`` unless quarantined) — the
    #: black-box classifier verdict plus its leading evidence line
    diagnosis: str | None = None
    #: classifier verdict of the terminal failure (``nan_origin`` |
    #: ``energy_blowup`` | ``cfl_collapse`` | ``worker_death`` |
    #: ``unknown``); ``None`` unless quarantined
    verdict: str | None = None
    #: diagnostic-bundle path of the terminal failure (``None`` unless
    #: quarantined — a recovered member never carries a stale bundle)
    bundle: str | None = None
    #: artifact paths: member dir, per-member run log, result file,
    #: checkpoint dir
    paths: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.status not in STATUSES:
            raise ValueError(
                f"status must be one of {STATUSES}, got {self.status!r}"
            )


@dataclass
class EnsembleResult:
    """Terminal record of a whole supervised ensemble run."""

    members: list  # of MemberResult
    wall_s: float = 0.0
    workers: int = 1
    #: ensemble-level run-log path (supervisor events)
    runlog_path: str | None = None

    # ------------------------------------------------------------------
    def by_status(self, status: str) -> list:
        return [m for m in self.members if m.status == status]

    @property
    def counts(self) -> dict:
        return {s: len(self.by_status(s)) for s in STATUSES}

    @property
    def degraded(self) -> bool:
        """True when at least one member had to be quarantined."""
        return bool(self.by_status("quarantined"))

    def member(self, member_id: str) -> MemberResult:
        for m in self.members:
            if m.member_id == member_id:
                return m
        raise KeyError(f"no member {member_id!r} in ensemble result")

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "members": [asdict(m) for m in self.members],
            "counts": self.counts,
            "wall_s": self.wall_s,
            "workers": self.workers,
            "runlog_path": self.runlog_path,
        }

    def save(self, path: str) -> str:
        """Atomically write the result as JSON; returns the path."""
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with atomic_open(path) as f:
            json.dump(self.to_dict(), f, indent=2, sort_keys=True)
            f.write("\n")
        return path

    @classmethod
    def load(cls, path: str) -> "EnsembleResult":
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
        members = [MemberResult(**m) for m in data["members"]]
        return cls(members=members, wall_s=data.get("wall_s", 0.0),
                   workers=data.get("workers", 1),
                   runlog_path=data.get("runlog_path"))

    def lines(self) -> list[str]:
        """Human-readable summary for CLI output."""
        c = self.counts
        out = [
            f"ensemble: {len(self.members)} member(s) in {self.wall_s:.2f} s "
            f"wall on {self.workers} worker(s) — "
            f"{c['ok']} ok, {c['recovered']} recovered, "
            f"{c['quarantined']} quarantined"
        ]
        for m in self.members:
            line = (f"  {m.member_id}: {m.status} "
                    f"({m.attempts} attempt(s), {m.wall_s:.2f} s")
            if m.dt_scale != 1.0:
                line += f", dt_scale {m.dt_scale:g}"
            line += ")"
            if m.diagnosis:
                line += f" — {m.diagnosis}"
            if m.bundle:
                line += f" [bundle: {m.bundle}]"
            out.append(line)
        return out
