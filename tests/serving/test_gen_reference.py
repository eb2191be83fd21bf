"""One continuous replica against the plain generation reference model.

:func:`reference_sim.reference_gen_serve` writes the fault-free,
unchunked, cache-off iteration-level loop with one clock and plain lists.
For random traffic — tied arrivals, prompts an empty arena cannot hold,
arenas small enough that the watermark holds the queue head, with and
without ``max_batch`` — :class:`ContinuousBatchingServer` must give every
request exactly the reference's ``(start_s, first_token_s, completion_s,
generated, state)``.
"""

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.gpusim import RTX_2060
from repro.memory import KVCacheArena, kv_bytes_per_token
from repro.models import build_decode_step_graph, build_prefill_graph, tiny_gpt
from repro.runtime import TURBO_CHARACTERISTICS, GenerationRuntime
from repro.serving import (
    ContinuousBatchingConfig,
    ContinuousBatchingServer,
    GenRequest,
)

from .reference_sim import reference_gen_serve

CONFIG = tiny_gpt()
BPT = kv_bytes_per_token(CONFIG.num_layers, CONFIG.num_heads, CONFIG.head_size)
RUNTIME = GenerationRuntime(build_prefill_graph(CONFIG),
                            build_decode_step_graph(CONFIG),
                            TURBO_CHARACTERISTICS, RTX_2060, stride=1)
PAGE = 8


def arena_of(capacity_tokens: int):
    return lambda: KVCacheArena(capacity_bytes=capacity_tokens * BPT,
                                bytes_per_token=BPT, page_tokens=PAGE)


@st.composite
def traffic(draw):
    # Arrival instants come from a small pool, so several requests often
    # share one instant.
    pool = draw(st.lists(st.floats(0.0, 0.02, allow_nan=False),
                         min_size=1, max_size=4))
    specs = draw(st.lists(
        st.tuples(st.integers(1, 40), st.integers(1, 12),
                  st.sampled_from(pool)),
        min_size=1, max_size=16))
    return [(i, seq_len, new_tokens, arrival)
            for i, (seq_len, new_tokens, arrival) in enumerate(specs)]


def serve(specs, capacity_tokens, max_batch):
    reqs = [GenRequest(req_id=i, seq_len=seq_len, arrival_s=arrival,
                       max_new_tokens=new_tokens)
            for i, seq_len, new_tokens, arrival in specs]
    ContinuousBatchingServer(
        RUNTIME, arena_of(capacity_tokens)(),
        ContinuousBatchingConfig(max_batch=max_batch),
    ).serve(reqs, duration_s=0.05)
    return {r.req_id: (r.start_s, r.first_token_s, r.completion_s,
                       r.generated, r.state) for r in reqs}


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(specs=traffic(), capacity_tokens=st.sampled_from((48, 96, 256)),
       max_batch=st.none() | st.integers(1, 4))
# Three requests tied at t=0 whose worst cases fill a 48-token arena one
# at a time: the watermark holds the head while the first decodes.
@example(specs=[(0, 30, 6, 0.0), (1, 30, 6, 0.0), (2, 5, 2, 0.0),
                (3, 9, 3, 0.004)],
         capacity_tokens=48, max_batch=None)
# A prompt no empty 48-token arena holds is shed at ingest.
@example(specs=[(0, 40, 12, 0.0), (1, 4, 3, 0.0), (2, 4, 3, 0.001)],
         capacity_tokens=48, max_batch=2)
def test_replica_matches_reference(specs, capacity_tokens, max_batch):
    want = reference_gen_serve(specs, RUNTIME, arena_of(capacity_tokens),
                               max_batch)
    assert serve(specs, capacity_tokens, max_batch) == want
