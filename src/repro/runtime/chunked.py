"""Chunked prefill: split one prompt pass into token-bounded chunks.

A prefill pass over a ``P``-token prompt is a single GPU occupancy of
``prefill_latency(batch, P)`` seconds — at high arrival rates it is the
dominant head-of-line blocker, stalling every decoding request for the
full pass.  :class:`PrefillChunker` splits the pass into chunks of at
most ``chunk_tokens`` prompt positions so the serving loop can interleave
decode steps between chunks (on a second simulated stream).

Chunk boundaries are **pure bookkeeping**: the KV written is identical,
so generated tokens stay byte-identical to the unchunked path.  Only the
*timing* model changes, and even that conserves cost: chunk ``i``
covering positions ``[s, e)`` is priced as the *incremental* cost

    ``prefill_latency(batch, e) - prefill_latency(batch, s)``

(the first chunk pays ``prefill_latency(batch, e)`` outright, including
the runtime's fixed launch overhead).  The per-chunk costs telescope, so
the sum over a pass equals the unchunked ``prefill_latency(batch, P)``
up to float association — attention-over-prefix cost growth is captured
naturally because later chunks attend over everything already cached.
An optional ``per_chunk_overhead_s`` charges the extra kernel-launch
cost of every chunk after the first (chunking is then strictly slower
serially — the win has to come from overlap).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from .._checks import check_size


@dataclass(frozen=True, slots=True)
class PrefillChunk:
    """One chunk of a prefill pass: prompt positions ``[start, end)``.

    Slotted: a generation replica's round log keeps every round's chunks
    for the run."""

    index: int
    start: int
    tokens: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError(f"chunk index must be >= 0, got {self.index}")
        if self.start < 0:
            raise ValueError(f"chunk start must be >= 0, got {self.start}")
        if self.tokens <= 0:
            raise ValueError(
                f"chunk must cover at least one token, got {self.tokens}"
            )

    @property
    def end(self) -> int:
        return self.start + self.tokens


@dataclass(frozen=True)
class PrefillChunker:
    """Split prompts into chunks of at most ``chunk_tokens`` positions.

    ``per_chunk_overhead_s`` is the launch overhead every chunk after a
    pass's first pays; it must be finite (``inf`` has no meaning here).
    """

    chunk_tokens: int
    per_chunk_overhead_s: float = 0.0

    def __post_init__(self) -> None:
        check_size("chunk_tokens", self.chunk_tokens)
        # Written so that NaN fails too: every later chunk would price NaN.
        if not 0.0 <= self.per_chunk_overhead_s < math.inf:
            raise ValueError(
                f"per_chunk_overhead_s must be finite and >= 0, "
                f"got {self.per_chunk_overhead_s}"
            )

    def chunks(self, prompt_len: int, start: int = 0) -> List[PrefillChunk]:
        """Chunks tiling ``[start, prompt_len)`` in order (last may be short).

        A nonzero ``start`` is the prefix-cache case: positions before it
        are already resident in the KV arena, so the pass covers only the
        uncached suffix (attending over the cached prefix — the pricing
        below accounts for that naturally).
        """
        if prompt_len <= 0:
            raise ValueError(f"prompt_len must be positive, got {prompt_len}")
        if not 0 <= start < prompt_len:
            raise ValueError(
                f"start must be in [0, prompt_len), got {start} of {prompt_len}"
            )
        out: List[PrefillChunk] = []
        while start < prompt_len:
            tokens = min(self.chunk_tokens, prompt_len - start)
            out.append(PrefillChunk(index=len(out), start=start, tokens=tokens))
            start += tokens
        return out

    def chunk_latency(self, runtime, batch: int, chunk: PrefillChunk,
                      pass_start: int = 0) -> float:
        """Incremental cost of one chunk at the given batch width.

        ``pass_start`` marks where this pass's *first* chunk begins: that
        chunk pays the full ``prefill_latency(batch, end)`` (launch
        overhead included) minus the cached prefix's cost, and later
        chunks pay the telescoping difference plus the per-chunk launch
        overhead.
        """
        cost = runtime.prefill_latency(batch, chunk.end)
        if chunk.start > 0:
            # Marginal cost over the already-computed (or cached) prefix.
            # The runtime's fixed overhead cancels in the difference;
            # clamp defensively so a non-monotone cost model can never
            # produce negative time.
            cost = max(0.0, cost - runtime.prefill_latency(batch, chunk.start))
        if chunk.start > pass_start:
            cost += self.per_chunk_overhead_s
        return cost
