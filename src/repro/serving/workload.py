"""Workload generation for the serving experiments (§6.2).

The paper's BERT service receives requests whose text lengths follow a
normal distribution over [5, 500] (sampled from a chit-chat dataset) with
Poisson inter-arrival times.  Having no access to the dataset, we sample
the same distributions synthetically from a seeded generator — the serving
results depend only on lengths and arrival times, not on text content.
"""

from __future__ import annotations

import math
from typing import Callable, List

import numpy as np

from .continuous import GenRequest
from .request import Request

LengthSampler = Callable[[np.random.Generator, int], np.ndarray]

#: The paper's serving length range.
MIN_LEN, MAX_LEN = 5, 500


def normal_lengths(
    rng: np.random.Generator,
    n: int,
    lo: int = MIN_LEN,
    hi: int = MAX_LEN,
    mean: float | None = None,
    std: float | None = None,
) -> np.ndarray:
    """Truncated-normal integer lengths on [lo, hi].

    Defaults place the mean mid-range with the 3-sigma points at the range
    edges, the natural reading of "a normal distribution from 5 to 500".
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if lo < 1 or hi < lo:
        raise ValueError(f"invalid length range [{lo}, {hi}]")
    mu = mean if mean is not None else (lo + hi) / 2.0
    sigma = std if std is not None else (hi - lo) / 6.0
    lengths = rng.normal(mu, sigma, size=n)
    return np.clip(np.rint(lengths), lo, hi).astype(np.int64)


def uniform_lengths(
    rng: np.random.Generator, n: int, lo: int = MIN_LEN, hi: int = MAX_LEN
) -> np.ndarray:
    """Uniform integer lengths on [lo, hi] (Fig. 10 random sampling)."""
    if lo < 1 or hi < lo:
        raise ValueError(f"invalid length range [{lo}, {hi}]")
    return rng.integers(lo, hi + 1, size=n, dtype=np.int64)


def poisson_arrivals(
    rng: np.random.Generator, rate_per_s: float, duration_s: float
) -> np.ndarray:
    """Arrival timestamps of a Poisson process over [0, duration)."""
    # ``not 0 < x < inf`` rejects NaN too; numpy would fail later on the
    # integer conversion of the draw count.
    if not 0 < rate_per_s < math.inf:
        raise ValueError(f"rate must be positive and finite, got {rate_per_s}")
    if not 0 < duration_s < math.inf:
        raise ValueError(
            f"duration must be positive and finite, got {duration_s}")
    # Draw enough exponential gaps to cover the horizon with margin.
    expected = rate_per_s * duration_s
    n = max(16, int(expected + 6 * np.sqrt(expected) + 16))
    times = np.cumsum(rng.exponential(1.0 / rate_per_s, size=n))
    while times.size and times[-1] < duration_s:
        extra = np.cumsum(rng.exponential(1.0 / rate_per_s, size=n)) + times[-1]
        times = np.concatenate([times, extra])
    return times[times < duration_s]


def generate_requests(
    rate_per_s: float,
    duration_s: float,
    seed: int = 0,
    length_sampler: LengthSampler = normal_lengths,
) -> List[Request]:
    """Full serving workload: Poisson arrivals x sampled lengths."""
    rng = np.random.default_rng(seed)
    arrivals = poisson_arrivals(rng, rate_per_s, duration_s)
    lengths = length_sampler(rng, arrivals.size)
    return [
        Request(req_id=i, seq_len=int(lengths[i]), arrival_s=float(arrivals[i]))
        for i in range(arrivals.size)
    ]


def geometric_output_lengths(
    rng: np.random.Generator, n: int, mean: float, lo: int = 1, hi: int = 512
) -> np.ndarray:
    """Geometric output-token counts clipped to [lo, hi].

    Generation output lengths are heavy-tailed in practice (most replies
    are short, a few run long) — the shape that separates iteration-level
    from request-level batching, because one straggler pins a whole
    request-level batch.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if mean <= 0:
        raise ValueError(f"mean must be positive, got {mean}")
    if lo < 1 or hi < lo:
        raise ValueError(f"invalid output range [{lo}, {hi}]")
    lengths = rng.geometric(min(1.0, 1.0 / mean), size=n)
    return np.clip(lengths, lo, hi).astype(np.int64)


def generate_generation_requests(
    rate_per_s: float,
    duration_s: float,
    seed: int = 0,
    prompt_sampler: LengthSampler = normal_lengths,
    output_sampler: Callable[[np.random.Generator, int], np.ndarray] = None,
) -> List[GenRequest]:
    """Generative-serving workload: Poisson arrivals x (prompt, output) lengths.

    Returns :class:`~repro.serving.continuous.GenRequest` objects whose
    ``seq_len`` is the prompt length and ``max_new_tokens`` the sampled
    output budget.  Deterministic given ``seed``.
    """
    rng = np.random.default_rng(seed)
    arrivals = poisson_arrivals(rng, rate_per_s, duration_s)
    prompts = prompt_sampler(rng, arrivals.size)
    if output_sampler is None:
        outputs = geometric_output_lengths(rng, arrivals.size, mean=16.0)
    else:
        outputs = output_sampler(rng, arrivals.size)
    return [
        GenRequest(
            req_id=i,
            seq_len=int(prompts[i]),
            arrival_s=float(arrivals[i]),
            max_new_tokens=int(outputs[i]),
        )
        for i in range(arrivals.size)
    ]


def generate_prefix_population_requests(
    rate_per_s: float,
    duration_s: float,
    seed: int = 0,
    sharing_ratio: float = 0.5,
    num_tenants: int = 4,
    system_prompt_tokens: int = 64,
    fewshot_tokens: int = 32,
    suffix_lo: int = 4,
    suffix_hi: int = 16,
    vocab: int = 50_000,
    output_sampler: Callable[[np.random.Generator, int], np.ndarray] = None,
) -> List[GenRequest]:
    """Multi-tenant prompt population with shared prefixes (prefix caching).

    Real serving traffic is dominated by templated prompts: one
    deployment-wide *system prompt*, a per-tenant *few-shot template*,
    then a short unique user suffix.  This generator emits actual prompt
    **token ids** (``GenRequest.prompt_ids``) so a prefix cache can match
    them:

    * with probability ``sharing_ratio`` a request is *templated* —
      ``system prompt ‖ tenant template ‖ fresh suffix`` — sharing its
      first ``system_prompt_tokens + fewshot_tokens`` ids with every
      other templated request of the same tenant;
    * otherwise it is fully unique (fresh ids of the same total length,
      so the sharing knob changes *content overlap only*, never the
      length/arrival distributions — cache-on/off comparisons stay
      apples-to-apples).

    ``seq_len`` is ``len(prompt_ids)``; output budgets default to the
    heavy-tailed geometric mix.  Deterministic given ``seed``.
    """
    if not 0.0 <= sharing_ratio <= 1.0:
        raise ValueError(f"sharing_ratio must be in [0, 1], got {sharing_ratio}")
    if num_tenants < 1:
        raise ValueError(f"num_tenants must be >= 1, got {num_tenants}")
    if min(system_prompt_tokens, fewshot_tokens) < 0 or suffix_lo < 1 \
            or suffix_hi < suffix_lo:
        raise ValueError("invalid prompt geometry")
    rng = np.random.default_rng(seed)
    arrivals = poisson_arrivals(rng, rate_per_s, duration_s)
    n = arrivals.size
    system_prompt = rng.integers(0, vocab, size=system_prompt_tokens)
    templates = rng.integers(0, vocab, size=(num_tenants, fewshot_tokens))
    templated = rng.random(n) < sharing_ratio
    tenants = rng.integers(0, num_tenants, size=n)
    suffix_lens = rng.integers(suffix_lo, suffix_hi + 1, size=n)
    if output_sampler is None:
        outputs = geometric_output_lengths(rng, n, mean=16.0)
    else:
        outputs = output_sampler(rng, n)
    requests: List[GenRequest] = []
    for i in range(n):
        suffix = rng.integers(0, vocab, size=int(suffix_lens[i]))
        if templated[i]:
            ids = np.concatenate([system_prompt, templates[tenants[i]], suffix])
        else:
            unique_len = system_prompt_tokens + fewshot_tokens
            ids = np.concatenate(
                [rng.integers(0, vocab, size=unique_len), suffix]
            )
        prompt_ids = tuple(int(t) for t in ids)
        requests.append(GenRequest(
            req_id=i,
            seq_len=len(prompt_ids),
            arrival_s=float(arrivals[i]),
            max_new_tokens=int(outputs[i]),
            prompt_ids=prompt_ids,
        ))
    return requests


def bursty_arrivals(
    rng: np.random.Generator,
    rate_per_s: float,
    duration_s: float,
    on_fraction: float = 0.25,
    cycle_s: float = 1.0,
) -> np.ndarray:
    """On/off (Markov-modulated-style) arrivals averaging ``rate_per_s``.

    Traffic arrives only during the first ``on_fraction`` of each
    ``cycle_s`` window, at rate ``rate_per_s / on_fraction`` — the bursty
    pattern real chat traffic shows, which stresses batching schedulers far
    more than a smooth Poisson stream of the same average rate.
    """
    if not 0.0 < on_fraction <= 1.0:
        raise ValueError(f"on_fraction must be in (0, 1], got {on_fraction}")
    if cycle_s <= 0:
        raise ValueError(f"cycle_s must be positive, got {cycle_s}")
    burst_rate = rate_per_s / on_fraction
    times: List[float] = []
    cycle_start = 0.0
    while cycle_start < duration_s:
        window_end = min(cycle_start + on_fraction * cycle_s, duration_s)
        t = cycle_start
        while True:
            t += float(rng.exponential(1.0 / burst_rate))
            if t >= window_end:
                break
            times.append(t)
        cycle_start += cycle_s
    return np.asarray(times)
