"""The size rule shared by every layer's configuration checks.

A size knob (a batch cap, a stride, a chunk length, a pad multiple) is
an ``int`` of at least 1.  ``True`` is not a size, and neither is a NaN
or a fractional float, which would otherwise slip past a plain ``<= 0``
range test.  No ``repro`` import, so the runtime and the serving layer
both check here without importing each other.
"""

from __future__ import annotations


def check_size(name: str, value: object, optional: bool = False) -> None:
    """Reject a size knob that is not an ``int`` of at least 1 (a
    ``bool`` is not a size); ``optional`` admits ``None`` as well."""
    if value is None and optional:
        return
    if not isinstance(value, int) or isinstance(value, bool):
        allowed = "an int or None" if optional else "an int"
        raise TypeError(f"{name} must be {allowed}, got {value!r}")
    if value <= 0:
        raise ValueError(f"{name} must be positive"
                         f"{' or None' if optional else ''}, got {value}")
