"""Retry policy for failed ensemble members: backoff, escalation, strikes.

A worker death (kill -9, OOM), hang (heartbeat timeout) or corrupt result
is not a reason to lose the member — it is a reason to try again, more
carefully each time.  :class:`RetryPolicy` encodes the escalation ladder;
its rungs are class constants and only ``max_retries`` is set per fleet:

1. **exponential backoff with jitter** — retry delays grow
   ``base * factor**(strike-1)``, each multiplied by a *deterministic*
   jitter drawn from the member's seed (no wall-clock entropy: replaying
   an ensemble replays its schedule), so simultaneous failures do not
   restampede the machine;
2. **checkpoint-resume** — from the first retry on, the member resumes
   from its newest *readable* checkpoint rotation instead of restarting
   from t=0 (:meth:`ResilientRunner.resume` skips corrupt archives; a
   member that has written none yet starts fresh);
3. **dt_scale reduction** — from strike ``dt_scale_after`` on, the
   member's timestep is scaled down by ``dt_backoff`` per further strike,
   the same bounded backoff :class:`ResilientRunner` applies in-process;
4. **quarantine** — after ``max_retries`` strikes the member is retired
   with its full attempt history as a diagnosis, and the rest of the
   fleet keeps running.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

__all__ = ["RetryPolicy", "RetryDecision"]


@dataclass(frozen=True)
class RetryDecision:
    """What the supervisor does about one failed attempt."""

    #: relaunch the member (False = quarantine)
    retry: bool
    #: seconds to wait before the relaunch
    delay_s: float = 0.0
    #: resume from the member's newest readable checkpoint
    resume: bool = False
    #: timestep multiplier for the relaunch (1.0 = nominal)
    dt_scale: float = 1.0


@dataclass
class RetryPolicy:
    """The escalation ladder of the module docstring; ``max_retries`` is a
    field (the CLI's ``--max-retries``), the rungs are class constants."""

    #: retries allowed after the first attempt; strike N+1 quarantines
    max_retries: int = 3
    #: base backoff delay in seconds (strike 1)
    backoff_base = 0.25
    #: growth factor per strike
    backoff_factor = 2.0
    #: relative jitter amplitude: delay *= 1 + jitter * u,  u ~ U[0, 1)
    jitter = 0.25
    #: hard ceiling on any single delay
    max_delay_s = 30.0
    #: strike from which dt is scaled down (1-based)
    dt_scale_after = 2
    #: per-strike timestep multiplier once escalated
    dt_backoff = 0.5
    #: floor for the escalated timestep scale
    min_dt_scale = 0.125

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")

    def decide(self, strikes: int, seed: int = 0) -> RetryDecision:
        """Decision after the ``strikes``-th failure (1-based) of a member.

        ``seed`` (the member's seed) keeps the jitter deterministic per
        (member, strike) pair.
        """
        if strikes < 1:
            raise ValueError("strikes is 1-based")
        if strikes > self.max_retries:
            return RetryDecision(retry=False)
        u = random.Random((int(seed) << 16) ^ strikes).random()
        delay = self.backoff_base * self.backoff_factor ** (strikes - 1)
        delay = min(delay * (1.0 + self.jitter * u), self.max_delay_s)
        n_scaled = max(0, strikes - self.dt_scale_after + 1)
        dt_scale = max(self.min_dt_scale, self.dt_backoff ** n_scaled)
        return RetryDecision(retry=True, delay_s=delay, resume=True,
                             dt_scale=dt_scale)
