"""Scalar and row operations for the kernel models' float cores.

A float core (``gemm_terms``, ``softmax_terms``, ...) prices one shape
from Python ints.  The generation runtime's cost rows price a block of
consecutive lengths at once: the varying dim is an int64 NumPy array,
and every dim derived from it becomes one too.  The cores' ``+ - * /``
and comparisons already work on both; the few calls that do not are
taken from the ``ops`` namespace the caller passes:

* :data:`SCALAR`, every core's default, *is* :mod:`math` and the
  builtins (``math.ceil``, ``min``, ``bool``, ...), so a scalar caller
  pays no dispatch and gets exactly the builtin ``int``/``float``
  results it always did;
* :data:`ROW` holds the NumPy ufunc performing the same IEEE operation
  elementwise (``np.sqrt`` is correctly rounded like ``math.sqrt``;
  ``ceil`` of a row is an int64 row, like ``math.ceil``'s int), and
  accepts scalars mixed in.

So every element of a row goes through the operations that pricing its
length alone performs, in the same order — the formulas exist once.
Rows are exact while every integer product a core forms stays inside
int64; past that a product wraps negative (rows grow one length at a
time from 1), which the cores' range checks refuse.
"""

from __future__ import annotations

import math
from functools import reduce
from types import SimpleNamespace
from typing import Union

import numpy as np

#: A resolved dim: one int, or an int64 row of them.
Dim = Union[int, np.ndarray]


def _pick(cond, if_true, if_false):
    return if_true if cond else if_false


def _finite_nonneg(*values) -> bool:
    for x in values:
        if not 0.0 <= x < math.inf:
            return False
    return True


def _ceil_row(x) -> np.ndarray:
    return np.ceil(x).astype(np.int64)


def _any_row(cond) -> bool:
    return bool(np.any(cond))


def _finite_nonneg_row(*values) -> bool:
    return all(bool(np.all((0.0 <= x) & (x < math.inf))) for x in values)


#: Ops on Python int/float dims: :mod:`math` and the builtins.
#: ``where(cond, a, b)`` is ``a if cond else b``; ``any_of`` a check's
#: verdict; ``finite_nonneg(*values)`` is ``0 <= x < inf`` for each (NaN
#: fails).
SCALAR = SimpleNamespace(
    ceil=math.ceil, sqrt=math.sqrt, log2=math.log2, minimum=min,
    maximum=max, where=_pick, any_of=bool, finite_nonneg=_finite_nonneg,
)

#: The same ops, elementwise over int64/float64 rows (scalars broadcast).
ROW = SimpleNamespace(
    ceil=_ceil_row, sqrt=np.sqrt, log2=np.log2,
    minimum=lambda *values: reduce(np.minimum, values),
    maximum=lambda *values: reduce(np.maximum, values),
    where=np.where, any_of=_any_row, finite_nonneg=_finite_nonneg_row,
)

#: :data:`SCALAR` or :data:`ROW`.
Ops = SimpleNamespace
