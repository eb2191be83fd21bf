"""Exhaustive optimality oracle for Algorithm 3's batch partition.

Algorithm 3 sorts the queue by length and partitions it contiguously.
That is optimal only by an exchange argument: when a batch's cost is
monotone in its padded length, some optimal partition is contiguous in
sorted order.  :func:`set_partition_optimum` checks the claim without
assuming it.  It enumerates every partition of the requests into
batches of at most ``max_batch``, pads each batch to its longest member
and keeps the cheapest total.
"""

import math


def set_partitions(items, max_batch):
    """Every partition of ``items`` into groups of at most ``max_batch``
    (as lists of lists), each exactly once."""
    groups = []

    def place(i):
        if i == len(items):
            yield [list(g) for g in groups]
            return
        for group in groups:
            if len(group) < max_batch:
                group.append(items[i])
                yield from place(i + 1)
                group.pop()
        groups.append([items[i]])
        yield from place(i + 1)
        groups.pop()

    yield from place(0)


def set_partition_optimum(lengths, cost_fn, max_batch):
    """Cheapest total cost over every partition of ``lengths`` into
    batches of at most ``max_batch``, each padded to its longest member."""
    if len(lengths) > 8:
        raise ValueError("the enumeration is for n <= 8 only")
    best = math.inf
    for partition in set_partitions(list(lengths), max_batch):
        best = min(best, sum(cost_fn(max(g), len(g)) for g in partition))
    return best
