"""Compiled step-plan scheduling (paper Sec. 4.4).

The clustered local-time-stepping cadence is *static*: given the number
of clusters, the rate and the cluster adjacency, the sequence of cluster
micro-steps of a macro step — including every neighbor-window consume
and buffer publish — is known before the run starts, and every macro
step repeats it.  This package compiles that sequence into a flat
:class:`StepPlan`, once per :class:`Scheduler`, which replays it through
any execution backend once per macro step, firing :class:`HookBus`
events that observability, resilience and analysis subscribe to.  Global
time stepping is the one-cluster plan, one step per macro step.
"""

from .hooks import HookBus, MicroStepEvent
from .plan import (
    CONSUME_BUFFER,
    CONSUME_TAYLOR,
    StepPlan,
    compile_step_plan,
)
from .scheduler import TERMINATION_TOL, Scheduler, plan_steps

__all__ = [
    "CONSUME_BUFFER",
    "CONSUME_TAYLOR",
    "StepPlan",
    "compile_step_plan",
    "HookBus",
    "MicroStepEvent",
    "Scheduler",
    "plan_steps",
    "TERMINATION_TOL",
]
