"""The Nimblock hypervisor runtime (paper §2.2).

The hypervisor owns the simulated board, drives partial reconfiguration,
manages application data buffers, launches batch items on configured tasks
and delegates policy decisions to a pluggable scheduler. It is the single
execution environment shared by all five evaluated scheduling algorithms.
"""

from repro.hypervisor.application import (
    AppRequest,
    AppRun,
    TaskRun,
    TaskRunState,
)
from repro.hypervisor.queues import PendingQueue
from repro.hypervisor.results import AppResult, single_slot_latency_ms
from repro.hypervisor.hypervisor import Hypervisor, SchedulerContext
from repro.hypervisor.faas import FaaSGateway, FunctionSpec, InvocationOutcome

__all__ = [
    "AppRequest",
    "AppRun",
    "TaskRun",
    "TaskRunState",
    "PendingQueue",
    "AppResult",
    "single_slot_latency_ms",
    "Hypervisor",
    "SchedulerContext",
    "FaaSGateway",
    "FunctionSpec",
    "InvocationOutcome",
]
