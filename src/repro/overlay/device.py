"""Runtime model of the virtualized FPGA: slots and the configuration port.

Two hardware constraints from the paper shape every scheduler:

* a slot hosts at most one task, and must be partially reconfigured
  (~80 ms) before hosting a different one;
* only one reconfiguration can be in flight at a time, because the device
  has a single configuration access port (CAP).

:class:`FPGADevice` enforces both as state machines on top of the
discrete-event engine; violations raise instead of silently corrupting a
schedule, which the property-based tests rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Deque, List, Optional

from collections import deque

from repro.errors import ReconfigurationError, SlotStateError
from repro.sim.engine import SimulationEngine


class SlotPhase(str, Enum):
    """Lifecycle of one reconfigurable slot."""

    EMPTY = "empty"
    RECONFIGURING = "reconfiguring"
    OCCUPIED = "occupied"


class SlotHealth(str, Enum):
    """Fault status of one reconfigurable slot (see ``repro.faults``).

    * ``HEALTHY`` — fully usable (the only state in a fault-free run);
    * ``FAULTY`` — hit by a transient (SEU-style) fault; unusable until the
      scrub/repair completes, at which point it returns to ``HEALTHY``;
    * ``DEAD`` — permanently failed or blacklisted; never usable again.
    """

    HEALTHY = "healthy"
    FAULTY = "faulty"
    DEAD = "dead"


@dataclass
class Slot:
    """One reconfigurable region at runtime.

    ``occupant`` is an opaque handle owned by the hypervisor (a runtime task
    instance). ``busy`` is True while the hosted logic is processing a batch
    item; an occupied, non-busy slot is "waiting for its next batch", the
    only state in which Nimblock may preempt it.
    """

    index: int
    phase: SlotPhase = SlotPhase.EMPTY
    occupant: Optional[object] = None
    busy: bool = False
    health: SlotHealth = SlotHealth.HEALTHY
    #: Device-installed hook fired on every phase/health transition so the
    #: device can invalidate its availability caches. ``busy`` flips do not
    #: notify — they never change ``is_free``/``is_healthy``.
    on_availability_change: Optional[Callable[[], None]] = field(
        default=None, repr=False, compare=False
    )
    #: Device-owned set of idle-resident slot indices (occupied, not
    #: busy). Maintained inline by every transition below so the launch
    #: loop iterates exactly the slots that could start an item instead
    #: of scanning the whole board each pass. None for a free-standing
    #: slot (unit tests).
    idle_registry: Optional[set] = field(
        default=None, repr=False, compare=False
    )

    def _notify(self) -> None:
        if self.on_availability_change is not None:
            self.on_availability_change()

    def host(self, occupant: object) -> None:
        """Complete a reconfiguration: the slot now hosts ``occupant``."""
        if self.phase != SlotPhase.RECONFIGURING:
            raise SlotStateError(
                f"slot {self.index} cannot host from phase {self.phase}"
            )
        self.phase = SlotPhase.OCCUPIED
        self.occupant = occupant
        self.busy = False
        if self.idle_registry is not None:
            self.idle_registry.add(self.index)
        self._notify()

    def begin_reconfig(self) -> None:
        """Enter the reconfiguring phase (evicting any previous occupant)."""
        if self.phase == SlotPhase.RECONFIGURING:
            raise SlotStateError(f"slot {self.index} is already reconfiguring")
        if self.busy:
            raise SlotStateError(
                f"slot {self.index} cannot be reconfigured while running"
            )
        self.phase = SlotPhase.RECONFIGURING
        self.occupant = None
        if self.idle_registry is not None:
            self.idle_registry.discard(self.index)
        self._notify()

    def clear(self) -> None:
        """Release the slot (task finished or was preempted)."""
        if self.phase != SlotPhase.OCCUPIED:
            raise SlotStateError(
                f"slot {self.index} cannot clear from phase {self.phase}"
            )
        if self.busy:
            raise SlotStateError(
                f"slot {self.index} cannot be cleared while running an item"
            )
        self.phase = SlotPhase.EMPTY
        self.occupant = None
        if self.idle_registry is not None:
            self.idle_registry.discard(self.index)
        self._notify()

    def start_item(self) -> None:
        """Mark the hosted logic as running one batch item."""
        if self.phase != SlotPhase.OCCUPIED:
            raise SlotStateError(
                f"slot {self.index} cannot run items in phase {self.phase}"
            )
        if self.busy:
            raise SlotStateError(f"slot {self.index} is already running an item")
        self.busy = True
        if self.idle_registry is not None:
            self.idle_registry.discard(self.index)

    def finish_item(self) -> None:
        """Mark the current batch item as complete."""
        if not self.busy:
            raise SlotStateError(f"slot {self.index} finished an item it never started")
        # busy implies OCCUPIED (start_item requires it, and no phase
        # transition is legal while busy), so the slot is idle-resident.
        self.busy = False
        if self.idle_registry is not None:
            self.idle_registry.add(self.index)

    def interrupt_item(self) -> None:
        """Abort the in-flight batch item (a fault killed the slot logic).

        The item's partial work is lost; the hypervisor cancels the
        completion event and rolls the task back to its last batch
        boundary before calling this.
        """
        if not self.busy:
            raise SlotStateError(
                f"slot {self.index} has no in-flight item to interrupt"
            )
        self.busy = False
        if self.idle_registry is not None:
            self.idle_registry.add(self.index)

    def abort_reconfig(self) -> None:
        """A partial reconfiguration failed; return the slot to EMPTY."""
        if self.phase != SlotPhase.RECONFIGURING:
            raise SlotStateError(
                f"slot {self.index} cannot abort a reconfiguration from "
                f"phase {self.phase}"
            )
        self.phase = SlotPhase.EMPTY
        self.occupant = None
        self._notify()

    def mark_faulty(self) -> None:
        """A transient fault hit the slot; unusable until repaired."""
        if self.phase == SlotPhase.OCCUPIED:
            raise SlotStateError(
                f"slot {self.index} must be evicted before marking faulty"
            )
        if self.health is SlotHealth.DEAD:
            raise SlotStateError(f"slot {self.index} is already dead")
        self.health = SlotHealth.FAULTY
        self._notify()

    def mark_dead(self) -> None:
        """Permanently fail (blacklist) the slot."""
        if self.phase == SlotPhase.OCCUPIED:
            raise SlotStateError(
                f"slot {self.index} must be evicted before marking dead"
            )
        self.health = SlotHealth.DEAD
        self._notify()

    def repair(self) -> None:
        """Complete the scrub of a transient fault; slot usable again."""
        if self.health is not SlotHealth.FAULTY:
            raise SlotStateError(
                f"slot {self.index} cannot repair from health {self.health}"
            )
        self.health = SlotHealth.HEALTHY
        self._notify()

    @property
    def is_healthy(self) -> bool:
        """True unless a fault has (temporarily or permanently) hit the slot."""
        return self.health is SlotHealth.HEALTHY

    @property
    def is_free(self) -> bool:
        """True if the slot can accept a new reconfiguration immediately."""
        return self.phase == SlotPhase.EMPTY and self.health is SlotHealth.HEALTHY


@dataclass
class _ReconfigRequest:
    slot: Slot
    duration_ms: float
    on_done: Callable[[float], None]


class ReconfigurationPort:
    """The serialized CAP: at most one partial reconfiguration in flight.

    Requests queue FIFO. Each request puts its slot into
    ``RECONFIGURING`` immediately (the slot is unusable while queued, as on
    real hardware where the hypervisor has already decoupled it) and calls
    ``on_done(now)`` once the bits are written.
    """

    def __init__(self, engine: SimulationEngine) -> None:
        self._engine = engine
        self._queue: Deque[_ReconfigRequest] = deque()
        self._active: Optional[_ReconfigRequest] = None
        self.total_reconfigs = 0
        self.busy_ms = 0.0

    @property
    def is_busy(self) -> bool:
        """True while a reconfiguration is in flight."""
        return self._active is not None

    @property
    def queue_depth(self) -> int:
        """Number of requests waiting behind the active one."""
        return len(self._queue)

    def request(
        self,
        slot: Slot,
        duration_ms: float,
        on_done: Callable[[float], None],
    ) -> None:
        """Queue a reconfiguration of ``slot`` taking ``duration_ms``."""
        if duration_ms < 0:
            raise ReconfigurationError(f"negative duration {duration_ms}")
        slot.begin_reconfig()
        self._queue.append(_ReconfigRequest(slot, duration_ms, on_done))
        self._pump()

    def _pump(self) -> None:
        if self._active is not None or not self._queue:
            return
        request = self._queue.popleft()
        self._active = request
        self.total_reconfigs += 1
        self.busy_ms += request.duration_ms
        self._engine.schedule_delay(request.duration_ms, self._complete, -1)

    def _complete(self, now: float) -> None:
        if self._active is None:
            raise ReconfigurationError("CAP completion with no active request")
        request = self._active
        self._active = None
        request.on_done(now)
        self._pump()


class FPGADevice:
    """The virtualized board: uniform slots plus one reconfiguration port."""

    def __init__(self, engine: SimulationEngine, num_slots: int) -> None:
        if num_slots < 1:
            raise SlotStateError(f"num_slots must be >= 1, got {num_slots}")
        self._slots: List[Slot] = [Slot(i) for i in range(num_slots)]
        self.port = ReconfigurationPort(engine)
        # Availability caches, invalidated by the slots' change hook: the
        # schedulers probe for the lowest free slot on every decision-pass
        # iteration, while slot phase/health transitions are far rarer.
        self._free_cache: Optional[List[Slot]] = None
        self._healthy_cache: Optional[List[Slot]] = None
        #: Indices of occupied, non-busy slots (see Slot.idle_registry).
        self.idle_residents: set = set()
        for slot in self._slots:
            slot.on_availability_change = self._invalidate_availability
            slot.idle_registry = self.idle_residents

    def _invalidate_availability(self) -> None:
        self._free_cache = None
        self._healthy_cache = None

    @property
    def num_slots(self) -> int:
        """Number of reconfigurable slots."""
        return len(self._slots)

    @property
    def slots(self) -> List[Slot]:
        """All slots in index order (live objects, not copies)."""
        return self._slots

    def slot(self, index: int) -> Slot:
        """The slot at ``index``."""
        if not 0 <= index < len(self._slots):
            raise SlotStateError(f"slot index {index} out of range")
        return self._slots[index]

    def free_slots(self) -> List[Slot]:
        """Slots that can accept a reconfiguration right now (read-only)."""
        cache = self._free_cache
        if cache is None:
            cache = self._free_cache = [
                slot for slot in self._slots if slot.is_free
            ]
        return cache

    def lowest_free_slot_index(self) -> Optional[int]:
        """Index of the lowest-numbered free slot, or None (cached)."""
        free = self.free_slots()
        return free[0].index if free else None

    def occupied_slots(self) -> List[Slot]:
        """Slots currently hosting a task."""
        return [slot for slot in self._slots if slot.phase == SlotPhase.OCCUPIED]

    def healthy_slots(self) -> List[Slot]:
        """Slots not currently faulted or blacklisted (read-only)."""
        cache = self._healthy_cache
        if cache is None:
            cache = self._healthy_cache = [
                slot for slot in self._slots if slot.is_healthy
            ]
        return cache

    def utilization(self) -> float:
        """Fraction of slots occupied or reconfiguring."""
        used = sum(1 for slot in self._slots if not slot.is_free)
        return used / len(self._slots)
