"""The run observer list: the one hook point of the engine-trace sanitizer.

An observer has four methods: ``on_engine(engine)`` when an ``Engine`` is
built, ``on_resolve(request, state, faults)`` from ``Request.resolve``,
``on_arena(arena, op, req_id, tokens)`` after each ``KVCacheArena``
mutation and ``on_breaker(breaker, now_s, frm, to)`` on each breaker
transition.  Attaching appends it to :data:`observers`, detaching removes
it; the list is never rebound.  Each emitter tests ``if observers:``
before calling :func:`notify`, so a normal run (no observer) pays one
truth test per site.  No ``repro`` import, so every layer may emit here.
"""

from __future__ import annotations

from typing import Any, List

#: The attached observers, in attach order.
observers: List[Any] = []


def notify(method: str, *args: Any) -> None:
    """Call ``method`` with ``args`` on every attached observer."""
    for observer in list(observers):
        getattr(observer, method)(*args)
