"""KVCacheArena: paged KV regions on the chunked allocator, admission gates."""

import pytest

from repro.memory import KVArenaError, KVCacheArena, kv_bytes_per_token
from repro.observability import MetricsRegistry

BPT = 64  # bytes per token used throughout (arbitrary, small)


def arena(capacity_tokens=256, page_tokens=8, watermark=0.9, **kw):
    return KVCacheArena(capacity_bytes=capacity_tokens * BPT,
                        bytes_per_token=BPT, page_tokens=page_tokens,
                        high_watermark=watermark, **kw)


class TestBytesPerToken:
    def test_formula(self):
        # K and V, per layer, per head, head_size wide.
        assert kv_bytes_per_token(2, 2, 8) == 2 * 2 * 2 * 8 * 4
        assert kv_bytes_per_token(2, 2, 8, dtype_bytes=2) == 2 * 2 * 2 * 8 * 2

    @pytest.mark.parametrize("args", [(0, 2, 8), (2, 0, 8), (2, 2, 0),
                                      (2, 2, 8, 0)])
    def test_validation(self, args):
        with pytest.raises(ValueError):
            kv_bytes_per_token(*args)


class TestAdmission:
    def test_admit_reserves_page_rounded_prompt(self):
        a = arena(page_tokens=8)
        assert a.admit(0, prompt_tokens=9, max_total_tokens=20)
        assert a.used_bytes == 16 * BPT  # 9 tokens -> 2 pages

    def test_watermark_gates_admission(self):
        a = arena(capacity_tokens=100, page_tokens=1, watermark=0.5)
        assert a.admit(0, prompt_tokens=50, max_total_tokens=50)
        # Reserved bytes sit exactly at the watermark: next admit denied.
        assert not a.admit(1, prompt_tokens=1, max_total_tokens=1)
        assert a.denials == 1

    def test_worst_case_bound_gates_admission(self):
        """Admission must leave room for every live request to reach its
        full output budget — otherwise append() could fail mid-decode."""
        a = arena(capacity_tokens=100, page_tokens=1, watermark=0.9)
        # Tiny prompt (passes the watermark gate) but a huge budget.
        assert a.admit(0, prompt_tokens=10, max_total_tokens=95)
        assert not a.admit(1, prompt_tokens=10, max_total_tokens=10)

    def test_no_admission_past_high_watermark(self):
        """Invariant: reserved bytes never exceed the watermark at admit."""
        a = arena(capacity_tokens=128, page_tokens=8, watermark=0.75)
        admitted = 0
        while a.admit(admitted, prompt_tokens=8, max_total_tokens=8):
            assert a.used_bytes <= a.watermark_bytes
            admitted += 1
        assert admitted == 12  # 96 tokens = 0.75 * 128

    def test_fits_at_all(self):
        a = arena(capacity_tokens=64, page_tokens=8)
        assert a.fits_at_all(8, 32)
        assert not a.fits_at_all(8, 1000)

    def test_duplicate_admit_rejected(self):
        a = arena()
        assert a.admit(7, 8, 16)
        with pytest.raises(KVArenaError):
            a.admit(7, 8, 16)


class TestGrowthAndRelease:
    def test_append_within_reserved_page_keeps_bytes(self):
        a = arena(page_tokens=8)
        a.admit(0, prompt_tokens=4, max_total_tokens=16)
        before = a.used_bytes
        a.append(0, 1)  # still inside the first page
        assert a.used_bytes == before

    def test_append_across_page_boundary_grows(self):
        a = arena(page_tokens=8)
        a.admit(0, prompt_tokens=8, max_total_tokens=24)
        a.append(0, 1)  # 9 tokens -> second page
        assert a.used_bytes == 16 * BPT

    def test_append_past_worst_case_raises(self):
        a = arena(page_tokens=1)
        a.admit(0, prompt_tokens=4, max_total_tokens=6)
        a.append(0, 2)
        with pytest.raises(KVArenaError):
            a.append(0, 1)

    def test_append_unknown_request_raises(self):
        with pytest.raises(KVArenaError):
            arena().append(42, 1)

    def test_release_frees_every_byte(self):
        a = arena()
        for i in range(4):
            a.admit(i, prompt_tokens=8, max_total_tokens=24)
        for i in range(4):
            a.release(i)
        assert a.used_bytes == 0
        assert a.live_requests == 0
        assert a.releases == 4

    def test_release_unknown_request_raises(self):
        with pytest.raises(KVArenaError):
            arena().release(42)

    def test_grow_to_budget_never_fails_after_admit(self):
        """The no-overflow invariant, end to end: admit greedily, then
        grow every admitted request to its full budget."""
        a = arena(capacity_tokens=256, page_tokens=8, watermark=0.8)
        live = []
        i = 0
        while a.admit(i, prompt_tokens=8, max_total_tokens=40):
            live.append(i)
            i += 1
        assert live
        for req in live:
            a.append(req, 32)  # to the worst case; must not raise
        assert a.used_bytes <= a.capacity_bytes


class TestPreemptionChurn:
    def test_preempt_frees_bytes_and_reports_dropped_tokens(self):
        a = arena(page_tokens=8)
        a.admit(0, prompt_tokens=8, max_total_tokens=24)
        a.append(0, 9)  # 17 tokens live
        dropped = a.preempt(0)
        assert dropped == 17
        assert a.used_bytes == 0
        assert a.live_requests == 0
        with pytest.raises(KVArenaError):
            a.preempt(0)  # region is gone

    def test_restore_recreates_grown_region(self):
        a = arena(page_tokens=8)
        a.admit(0, prompt_tokens=8, max_total_tokens=32)
        a.append(0, 9)
        a.preempt(0)
        assert a.restore(0, tokens=17, max_total_tokens=32)
        assert a.used_bytes == 24 * BPT  # 17 tokens -> 3 pages
        a.append(0, 15)  # grow to the full budget; must not raise
        with pytest.raises(KVArenaError):
            a.restore(0, tokens=17, max_total_tokens=32)  # already live

    def test_restore_respects_dual_admission_gate(self):
        a = arena(capacity_tokens=100, page_tokens=1, watermark=0.5)
        a.admit(0, prompt_tokens=40, max_total_tokens=45)
        a.admit(1, prompt_tokens=5, max_total_tokens=10)
        a.preempt(1)
        # Watermark gate: restoring at a grown length that would cross
        # 50 tokens reserved is denied and counted.
        denials_before = a.denials
        assert not a.restore(1, tokens=11, max_total_tokens=55)
        assert a.denials == denials_before + 1
        a.release(0)
        assert a.restore(1, tokens=11, max_total_tokens=55)

    def test_churn_cycles_leak_nothing(self):
        """admit -> append -> preempt -> restore cycles preserve both
        admission-gate guarantees and leave zero regions at the end."""
        a = arena(capacity_tokens=256, page_tokens=8, watermark=0.8)
        live = {}
        for i in range(4):
            assert a.admit(i, prompt_tokens=8, max_total_tokens=48)
            live[i] = 8
        for cycle in range(6):
            victim = cycle % 4
            a.append(victim, 4)
            live[victim] += 4
            a.preempt(victim)
            assert a.verify(live_req_ids=[r for r in live if r != victim]) == []
            assert a.restore(victim, tokens=live[victim],
                             max_total_tokens=48)
            assert a.used_bytes <= a.watermark_bytes
            assert a.verify(live_req_ids=list(live)) == []
        # Every survivor can still grow to its full budget (gate held
        # through the churn), then everything releases cleanly.
        for i in live:
            a.append(i, 48 - live[i])
        assert a.used_bytes <= a.capacity_bytes
        for i in live:
            a.release(i)
        assert a.used_bytes == 0
        assert a.verify(live_req_ids=[]) == []
        assert a.stats()["preemptions"] == 6
        assert a.stats()["restores"] == 6

    def test_verify_flags_region_outliving_its_request(self):
        a = arena()
        a.admit(0, 8, 16)
        a.admit(1, 8, 16)
        problems = a.verify(live_req_ids=[0])
        assert any("leak" in p for p in problems)
        assert a.verify(live_req_ids=[0, 1]) == []

    def test_reserved_tokens_is_page_count_times_page_size(self):
        a = arena(page_tokens=8)
        a.admit(0, 9, 40)
        region = a.region_of(0)
        assert region.reserved_tokens == 16
        a.append(0, 8)
        assert region.reserved_tokens == 24 == sum(p.tokens
                                                   for p in region.pages)
        region.page_tokens = 4  # a region whose count drifts from its pages
        problems = a.verify()
        assert any("reserved_tokens 12 diverges from its page sum 24" in p
                   for p in problems)

    def test_restore_unknown_vs_denied_are_distinct(self):
        a = arena(capacity_tokens=16, page_tokens=8)
        a.admit(0, 8, 16)
        with pytest.raises(KVArenaError):
            a.restore(0, tokens=8, max_total_tokens=16)  # still live
        # Denied restore (no capacity) returns False, never raises.
        assert not a.restore(99, tokens=16, max_total_tokens=16)


class TestPlansAndVerify:
    def test_plans_verify_clean_through_lifecycle(self):
        a = arena(capacity_tokens=512, page_tokens=8)
        for i in range(5):
            a.admit(i, prompt_tokens=8 + 8 * i, max_total_tokens=64)
            assert a.verify() == []
        for i in range(5):
            a.append(i, 9)
            assert a.verify() == []
        for i in (0, 2, 4):
            a.release(i)
        assert a.verify() == []

    def test_regions_placed_byte_disjoint(self):
        a = arena(capacity_tokens=512, page_tokens=8)
        for i in range(4):
            a.admit(i, prompt_tokens=16, max_total_tokens=32)
        pages = [p for i in range(4) for p in a.region_of(i).pages]
        slots = [p.slot for p in pages]
        # One slot per page, so the byte ranges slot * page_bytes are
        # disjoint; the pool is exactly as large as the pages it holds.
        assert sorted(slots) == list(range(len(pages)))
        assert a.stats()["footprint_bytes"] == len(pages) * 8 * BPT
        # A released page's slot is reused before the pool grows.
        freed = {p.slot for p in a.region_of(1).pages}
        a.release(1)
        a.admit(4, prompt_tokens=16, max_total_tokens=32)
        assert {p.slot for p in a.region_of(4).pages} == freed
        assert a.slots_high_water == len(pages)
        assert a.verify() == []

    def test_stats_and_metrics_published(self):
        registry = MetricsRegistry()
        a = arena(metrics=registry)
        a.admit(0, 8, 16)
        a.release(0)
        stats = a.stats()
        assert stats["admissions"] == 1
        assert stats["releases"] == 1
        assert stats["live"] == 0
        assert registry.counter("kv_arena_admissions_total").value == 1

    def test_deterministic(self):
        def episode():
            a = arena(capacity_tokens=200, page_tokens=4, watermark=0.85)
            log = []
            for i in range(12):
                log.append(a.admit(i, 4 + (i % 5) * 3, 20 + (i % 7) * 4))
                if i % 3 == 0 and log[-1]:
                    a.append(i, 5)
                if i % 4 == 2:
                    for j in range(i):
                        if j in a._regions:
                            a.release(j)
                            break
            return log, a.stats()

        assert episode() == episode()


class TestValidation:
    @pytest.mark.parametrize("kw", [
        dict(capacity_bytes=0, bytes_per_token=BPT),
        dict(capacity_bytes=1024, bytes_per_token=0),
        dict(capacity_bytes=1024, bytes_per_token=BPT, page_tokens=0),
        dict(capacity_bytes=1024, bytes_per_token=BPT, high_watermark=0.0),
        dict(capacity_bytes=1024, bytes_per_token=BPT, high_watermark=1.5),
    ])
    def test_bad_config_rejected(self, kw):
        with pytest.raises(ValueError):
            KVCacheArena(**kw)

    @pytest.mark.parametrize("value", [float("nan"), 2.5, True],
                             ids=["nan", "fraction", "bool"])
    @pytest.mark.parametrize("name", ["capacity_bytes", "bytes_per_token",
                                      "page_tokens"])
    def test_size_that_is_not_an_int_rejected(self, name, value):
        kw = dict(capacity_bytes=1024, bytes_per_token=BPT, page_tokens=8)
        kw[name] = value
        with pytest.raises(TypeError, match=name):
            KVCacheArena(**kw)

    @pytest.mark.parametrize("args", [(0, 16), (8, 0), (8, 4)])
    def test_bad_admit_rejected(self, args):
        prompt, total = args
        with pytest.raises(ValueError):
            arena().admit(0, prompt, total)


class TestCrashRecoveryEdges:
    """Edge cases the engine-trace sanitizer leans on: crash-evictions of
    already-restored regions, restores denied by each admission gate, and
    the leak audit under interleaved (non-cyclic) preemption churn."""

    def test_restore_then_crash_double_evicts_cleanly(self):
        a = arena(page_tokens=8)
        a.admit(0, prompt_tokens=8, max_total_tokens=48)
        a.append(0, 9)
        first = a.preempt(0)                      # watermark eviction
        assert first == 17
        assert a.restore(0, tokens=17, max_total_tokens=48)
        a.append(0, 7)                            # progress after resume
        second = a.preempt(0)                     # crash evicts it again
        assert second == 24
        assert a.used_bytes == 0
        with pytest.raises(KVArenaError):
            a.preempt(0)                          # already evicted: gone
        assert a.restore(0, tokens=24, max_total_tokens=48)
        a.release(0)
        assert a.verify(live_req_ids=[]) == []
        assert a.stats()["preemptions"] == 2
        assert a.stats()["restores"] == 2

    def test_restore_denied_by_each_admission_gate(self):
        # Gate 1 (watermark): the recompute length itself does not fit
        # under high_watermark * capacity next to the resident request.
        a = arena(capacity_tokens=100, page_tokens=1, watermark=0.5)
        a.admit(0, prompt_tokens=40, max_total_tokens=41)
        a.admit(1, prompt_tokens=8, max_total_tokens=20)
        a.preempt(1)
        assert not a.restore(1, tokens=11, max_total_tokens=20)
        # Gate 2 (worst case): the grown budget cannot fit within raw
        # capacity even though the recompute length is under watermark.
        assert not a.restore(1, tokens=9, max_total_tokens=61)
        assert a.denials == 2
        # A restore respecting both gates still succeeds afterwards.
        assert a.restore(1, tokens=9, max_total_tokens=20)
        assert a.verify(live_req_ids=[0, 1]) == []

    def test_verify_tracks_interleaved_preemption_churn(self):
        a = arena(capacity_tokens=256, page_tokens=8, watermark=0.9)
        for i in range(3):
            a.admit(i, prompt_tokens=16, max_total_tokens=48)
        live = {0, 1, 2}

        def audit():
            assert a.verify(live_req_ids=sorted(live)) == []

        a.preempt(0); live.discard(0); audit()
        a.preempt(1); live.discard(1); audit()
        # A new request admits into the freed space mid-churn.
        a.admit(3, prompt_tokens=16, max_total_tokens=48)
        live.add(3); audit()
        assert a.restore(1, tokens=16, max_total_tokens=48)
        live.add(1); audit()
        a.preempt(3); live.discard(3); audit()
        assert a.restore(0, tokens=16, max_total_tokens=48)
        live.add(0); audit()
        assert a.restore(3, tokens=16, max_total_tokens=48)
        live.add(3); audit()
        # An evicted-but-not-restored region counts as a leak candidate:
        # verify() against the wrong live set must say so.
        a.preempt(2); live.discard(2)
        problems = a.verify(live_req_ids=sorted(live - {0}))
        assert any("leak" in p and "request 0" in p for p in problems)
        audit()
        for i in sorted(live):
            a.release(i)
        assert a.verify(live_req_ids=[]) == []
        assert a.used_bytes == 0
