"""Policy interface shared by all five scheduling algorithms.

The hypervisor invokes :meth:`SchedulerPolicy.decide` whenever the
configuration port is idle and something changed (arrival, completion,
reconfiguration done, slot fault or repair, periodic interval). The
policy answers with at most one action:

* :class:`ConfigureAction` — load task ``task_id`` of application
  ``app_id`` into free slot ``slot_index`` (starts a partial
  reconfiguration);
* :class:`PreemptAction` — detach the occupant of ``slot_index`` at its
  current batch boundary, freeing the slot (Nimblock only);
* ``None`` — nothing to do right now.

After a preemption the hypervisor asks again in the same pass, so a policy
can preempt and then claim the freed slot. Two behavioural flags also live
on the policy because the hypervisor enforces them mechanically:

* ``pipelined`` — batch items flow through the task graph item-by-item
  (inter-batch pipelining, Figure 2(c)) instead of bulk stage-by-stage;
* ``prefetch`` — tasks may be configured before their predecessors finish,
  hiding reconfiguration latency behind computation (Figure 2(b)).

Contract: ``decide`` must depend only on queue, board and policy state,
never on elapsed time alone. Every change to that state already books a
pass. Work that depends on elapsed time (PREMA and Nimblock token
accumulation) belongs in :meth:`SchedulerPolicy.notify_tick`. The
hypervisor runs the periodic interval only for policies that override
``notify_tick``, or when a fault injector, admission controller or
watchdog is attached, so a tick-free policy never sees an interval pass.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hypervisor.application import AppRun
    from repro.hypervisor.hypervisor import SchedulerContext


@dataclass(frozen=True)
class ConfigureAction:
    """Reconfigure ``slot_index`` to host task ``task_id`` of ``app_id``."""

    app_id: int
    task_id: str
    slot_index: int


@dataclass(frozen=True)
class PreemptAction:
    """Batch-preempt the task occupying ``slot_index``."""

    slot_index: int


Action = Union[ConfigureAction, PreemptAction]


class SchedulerPolicy(ABC):
    """Base class for scheduling algorithms."""

    #: Human-readable policy name used in reports and the registry.
    name: str = "abstract"

    #: Per-item pipelined execution (True only for Nimblock variants).
    pipelined: bool = False

    #: May configure tasks ahead of predecessor completion.
    prefetch: bool = True

    def notify_arrival(self, ctx: "SchedulerContext", app: "AppRun") -> None:
        """An application entered the pending queue."""

    def notify_completion(self, ctx: "SchedulerContext", app: "AppRun") -> None:
        """An application retired."""

    def notify_tick(self, ctx: "SchedulerContext") -> None:
        """The periodic scheduling interval elapsed.

        Override this for work that depends on elapsed time alone; the
        hypervisor schedules the interval for a policy only if it does
        (or a fault injector, admission controller or watchdog is
        attached). ``decide`` itself must read only queue, board and
        policy state.
        """

    def token_gen(self) -> int:
        """Mutation counter of this policy's token accounting (0 if none).

        Token-based policies (Nimblock, PREMA) carry a
        :class:`~repro.core.tokens.TokenAccounting` in ``_tokens`` whose
        ``gen`` counter bumps on every accumulation round; the watchdog
        keys its starvation fast path on it, so any policy that writes
        ``app.token`` outside an accounting must override this.
        """
        tokens = getattr(self, "_tokens", None)
        return tokens.gen if tokens is not None else 0

    @abstractmethod
    def decide(self, ctx: "SchedulerContext") -> Optional[Action]:
        """Return the next action, or None when there is nothing to do."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
