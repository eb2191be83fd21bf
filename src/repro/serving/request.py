"""Requests and batches flowing through the serving framework."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, \
    TypeVar

from .._observers import notify, observers

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.faults import EngineFaultInjector


class RequestNotCompleted(ValueError):
    """Raised when latency is read off a request that never completed."""


class RequestState(enum.Enum):
    """Lifecycle of a request through the (possibly faulty) serving stack.

    ``PENDING`` is the only non-terminal state.  Of the terminal states,
    only ``COMPLETED`` carries a latency; the other three record *why* a
    request produced no response:

    * ``TIMED_OUT`` — its deadline expired before (or while) being served;
    * ``FAILED``    — every allowed attempt hit a fault, retries exhausted;
    * ``SHED``      — dropped by admission control (a full queue).
    """

    PENDING = "pending"
    COMPLETED = "completed"
    TIMED_OUT = "timed_out"
    FAILED = "failed"
    SHED = "shed"

    @property
    def is_terminal(self) -> bool:
        return self is not RequestState.PENDING


@dataclass(slots=True)
class Request:
    """One inference request: a variable-length input arriving at a time.

    ``payload`` is an optional cache key (e.g. token ids).  The serving
    simulation only needs ``seq_len`` and ``arrival_s``.

    Resilience fields: ``deadline_s`` is the client's per-request latency
    budget (``None`` = patient client, never dropped); ``attempt`` counts
    executions so far (0 = first try); ``state`` tracks the lifecycle
    (see :class:`RequestState`).

    Slotted: a request has no per-instance ``__dict__``, so assigning an
    attribute that is not a field raises ``AttributeError``.
    """

    req_id: int
    seq_len: int
    arrival_s: float
    payload: Optional[Tuple[int, ...]] = None
    start_s: Optional[float] = None
    completion_s: Optional[float] = None
    deadline_s: Optional[float] = None
    attempt: int = 0
    state: RequestState = field(default=RequestState.PENDING)

    def __post_init__(self) -> None:
        if self.seq_len <= 0:
            raise ValueError(f"seq_len must be positive, got {self.seq_len}")
        if not 0.0 <= self.arrival_s < math.inf:
            raise ValueError(
                f"arrival_s must be finite and >= 0, got {self.arrival_s}")
        if self.deadline_s is not None and not self.deadline_s > 0:
            raise ValueError(f"deadline_s must be positive, got {self.deadline_s}")
        if self.attempt < 0:
            raise ValueError(f"attempt must be >= 0, got {self.attempt}")

    @property
    def latency_s(self) -> float:
        """Arrival-to-response latency; raises if not completed."""
        if self.completion_s is None:
            raise RequestNotCompleted(
                f"request {self.req_id} has not completed (state={self.state.value})"
            )
        return self.completion_s - self.arrival_s

    @property
    def is_completed(self) -> bool:
        """True when the request produced a response.

        Legacy paths set ``completion_s`` without touching ``state``; a
        non-``COMPLETED`` terminal state never carries a completion.
        """
        return self.completion_s is not None and (
            self.state is RequestState.COMPLETED
            or self.state is RequestState.PENDING
        )

    def expired(self, now_s: float) -> bool:
        """True if the deadline has passed at ``now_s`` (False if none)."""
        return self.deadline_s is not None and now_s - self.arrival_s > self.deadline_s

    def resolve(self, state: RequestState, completion_s: Optional[float] = None,
                faults: Optional["EngineFaultInjector"] = None) -> None:
        """Move to a terminal state (``COMPLETED`` also records the time).

        ``faults`` is the fault injector of the replica that resolved the
        request, if it has one.  Each attached run observer
        (:mod:`repro._observers`) gets ``on_resolve(self, state, faults)``:
        the trace sanitizer checks a completion against that replica's
        crash windows (LIFE603).
        """
        if state is RequestState.PENDING:
            raise ValueError(f"resolve() needs a terminal state, got {state}")
        self.state = state
        if state is RequestState.COMPLETED:
            if completion_s is None:
                raise ValueError("COMPLETED requires a completion time")
            self.completion_s = completion_s
        if observers:
            notify("on_resolve", self, state, faults)


R = TypeVar("R", bound=Request)


def arrival_window(requests: Sequence[R],
                   duration_s: Optional[float]) -> Tuple[List[R], float]:
    """The prologue every serving driver shares: the requests in arrival
    order and the offered-load horizon — ``duration_s``, or the last
    arrival when ``None``."""
    if not requests:
        raise ValueError("need at least one request to simulate")
    arrivals = sorted(requests, key=attrgetter("arrival_s"))
    if duration_s is None:
        duration_s = arrivals[-1].arrival_s
        if duration_s <= 0:
            raise ValueError(
                "duration_s is required when every request arrives at t=0 "
                "(the default horizon is the last arrival)"
            )
    # ``not 0 < x < inf`` rejects NaN too: a NaN horizon would report
    # utilization 1.0 and a NaN throughput, an infinite one an empty window.
    if not 0 < duration_s < math.inf:
        raise ValueError(
            f"duration must be positive and finite, got {duration_s}")
    return arrivals, duration_s


@dataclass(frozen=True)
class Batch:
    """A set of requests executed together, zero-padded to the longest.

    ``cost_override``: execution latency fixed by the scheduler (used by
    padding-free packed batching, whose cost the ``(len, batch)`` tables
    cannot express); ``None`` means price via the cost function.

    Invariant: a batch with ``cost_override`` set is *packed* — requests
    are concatenated along the token dimension, nothing is padded, and the
    override already prices the true concatenated cost.  ``padding_waste``
    is therefore zero for such batches; charging the pad-dim gap on top of
    the override would double-count waste the execution never materializes.
    """

    requests: Tuple[Request, ...]
    padded_len: int
    execution_size: Optional[int] = None  # fixed-size schedulers pad the batch dim too
    cost_override: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.requests:
            raise ValueError("a batch must contain at least one request")
        longest = max(r.seq_len for r in self.requests)
        if self.padded_len < longest:
            raise ValueError(
                f"padded_len {self.padded_len} shorter than longest request {longest}"
            )
        if self.execution_size is not None and self.execution_size < len(self.requests):
            raise ValueError(
                f"execution_size {self.execution_size} < batch of {len(self.requests)}"
            )
        if self.cost_override is not None and self.cost_override <= 0:
            raise ValueError(
                f"cost_override must be positive, got {self.cost_override}"
            )

    @property
    def size(self) -> int:
        """Number of real requests in the batch."""
        return len(self.requests)

    @property
    def cost_batch_size(self) -> int:
        """Batch dimension actually executed (>= size for fixed-size pads)."""
        return self.execution_size if self.execution_size is not None else self.size

    @property
    def padding_waste(self) -> int:
        """Zero-padded tokens: the quantity the DP scheduler trades off.

        Packed batches (``cost_override`` set) concatenate instead of pad
        and report zero — see the class invariant above.
        """
        if self.cost_override is not None:
            return 0
        return sum(self.padded_len - r.seq_len for r in self.requests) + (
            (self.cost_batch_size - self.size) * self.padded_len
        )


def trusted_batch(requests: Tuple[Request, ...], padded_len: int) -> Batch:
    """A :class:`Batch` built without ``__post_init__``'s checks.

    For callers whose batches cannot fail them: ``requests`` is a
    non-empty tuple and ``padded_len`` its longest member's length (the
    DP's contiguous slices of the length-sorted order, padded to their
    last member).  ``Batch(...)`` and :func:`make_batch` keep validating
    everything else.
    """
    batch = object.__new__(Batch)
    attrs = batch.__dict__
    attrs["requests"] = requests
    attrs["padded_len"] = padded_len
    attrs["execution_size"] = None
    attrs["cost_override"] = None
    return batch


def make_batch(requests: List[Request], execution_size: Optional[int] = None,
               padded_len: Optional[int] = None,
               cost_override: Optional[float] = None) -> Batch:
    """Batch a request list, padding to its longest member by default."""
    longest = max(r.seq_len for r in requests)
    return Batch(
        requests=tuple(requests),
        padded_len=padded_len if padded_len is not None else longest,
        execution_size=execution_size,
        cost_override=cost_override,
    )
