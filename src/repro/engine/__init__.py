"""``repro.engine`` — the discrete-event core shared by all servers.

See :mod:`repro.engine.core` for the event vocabulary, the documented
``(time, priority, seq)`` tiebreak order, and the engine invariants, and
:mod:`repro.engine.instrument` for the engine-level observability hooks.
"""

from .core import Engine, EngineError, Event, EventKind, Task
from .faults import EngineFaultInjector
from .instrument import EngineInstrumentation

__all__ = [
    "Engine",
    "EngineError",
    "EngineFaultInjector",
    "EngineInstrumentation",
    "Event",
    "EventKind",
    "Task",
]
