"""``repro.engine`` — the discrete-event core shared by all servers.

See :mod:`repro.engine.core` for the event vocabulary, the documented
``(time, priority, seq)`` tiebreak order, and the engine invariants, and
:mod:`repro.engine.faults` for the fault plan's engine-visible effects.
The engine reports what it dispatches through dispatch hooks
(:meth:`Engine.add_dispatch_hook`); a serving run with a metrics registry
attaches one that counts ``engine_events_dispatched_total{kind=...}``.
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "Engine": "core",
    "EngineError": "core",
    "Event": "core",
    "EventKind": "core",
    "Task": "core",
    "EngineFaultInjector": "faults",
})
