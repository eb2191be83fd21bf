"""Request and batch semantics."""

import dataclasses

import pytest

from repro.serving import (
    Batch,
    GenRequest,
    Request,
    RequestNotCompleted,
    RequestState,
    make_batch,
)
from repro.serving.request import trusted_batch


def req(req_id, seq_len, arrival=0.0):
    return Request(req_id=req_id, seq_len=seq_len, arrival_s=arrival)


class TestRequest:
    def test_latency(self):
        r = req(0, 10, arrival=1.0)
        r.completion_s = 1.5
        assert r.latency_s == pytest.approx(0.5)

    def test_latency_before_completion_raises(self):
        with pytest.raises(RequestNotCompleted):
            _ = req(0, 10).latency_s
        # The dedicated error stays catchable as the ValueError it replaced.
        with pytest.raises(ValueError):
            _ = req(0, 10).latency_s

    def test_validation(self):
        with pytest.raises(ValueError):
            Request(req_id=0, seq_len=0, arrival_s=0.0)
        with pytest.raises(ValueError):
            Request(req_id=0, seq_len=5, arrival_s=-1.0)
        with pytest.raises(ValueError):
            Request(req_id=0, seq_len=5, arrival_s=0.0, deadline_s=0.0)
        with pytest.raises(ValueError):
            Request(req_id=0, seq_len=5, arrival_s=0.0, attempt=-1)


class TestRequestLifecycle:
    def test_states_terminal(self):
        assert not RequestState.PENDING.is_terminal
        for state in (RequestState.COMPLETED, RequestState.TIMED_OUT,
                      RequestState.FAILED, RequestState.SHED):
            assert state.is_terminal

    def test_resolve_completed_records_time(self):
        r = req(0, 10, arrival=1.0)
        r.resolve(RequestState.COMPLETED, 1.5)
        assert r.is_completed
        assert r.latency_s == pytest.approx(0.5)

    def test_resolve_completed_requires_time(self):
        with pytest.raises(ValueError):
            req(0, 10).resolve(RequestState.COMPLETED)

    def test_resolve_rejects_pending(self):
        with pytest.raises(ValueError):
            req(0, 10).resolve(RequestState.PENDING)

    def test_non_completed_terminal_is_not_completed(self):
        r = req(0, 10)
        r.resolve(RequestState.TIMED_OUT)
        assert not r.is_completed
        with pytest.raises(RequestNotCompleted):
            _ = r.latency_s

    def test_legacy_completion_without_state_counts(self):
        r = req(0, 10)
        r.completion_s = 0.5  # pre-resilience code path
        assert r.is_completed

    def test_expired(self):
        r = Request(req_id=0, seq_len=10, arrival_s=1.0, deadline_s=0.5)
        assert not r.expired(1.5)
        assert r.expired(1.51)
        assert not req(0, 10).expired(1e9)  # no deadline: never expires


class TestSlots:
    """Requests are slotted dataclasses: no per-instance ``__dict__``, and
    otherwise the same fields, equality and repr."""

    BASE_FIELDS = ["req_id", "seq_len", "arrival_s", "payload", "start_s",
                   "completion_s", "deadline_s", "attempt", "state"]

    def test_unknown_attribute_rejected(self):
        gen = GenRequest(req_id=1, seq_len=4, arrival_s=0.0)
        for r in (req(0, 10), gen):
            assert not hasattr(r, "__dict__")
            with pytest.raises(AttributeError):
                r.not_a_field = 1

    def test_gen_request_keeps_parent_validation(self):
        with pytest.raises(ValueError, match="seq_len must be positive"):
            GenRequest(req_id=0, seq_len=0, arrival_s=0.0)
        with pytest.raises(ValueError, match="max_new_tokens"):
            GenRequest(req_id=0, seq_len=2, arrival_s=0.0, max_new_tokens=0)

    def test_fields_unchanged(self):
        assert [f.name for f in dataclasses.fields(Request)] \
            == self.BASE_FIELDS
        assert [f.name for f in dataclasses.fields(GenRequest)] \
            == self.BASE_FIELDS + ["max_new_tokens", "generated",
                                   "first_token_s", "prompt_ids"]

    def test_equality_and_repr_unchanged(self):
        r = Request(req_id=3, seq_len=16, arrival_s=0.5)
        assert r == Request(req_id=3, seq_len=16, arrival_s=0.5)
        assert r != Request(req_id=3, seq_len=16, arrival_s=0.5,
                            deadline_s=1.0)
        assert repr(r) == (
            "Request(req_id=3, seq_len=16, arrival_s=0.5, payload=None, "
            "start_s=None, completion_s=None, deadline_s=None, "
            "attempt=0, state=<RequestState.PENDING: 'pending'>)")
        g = GenRequest(req_id=4, seq_len=2, arrival_s=0.25,
                       max_new_tokens=3, prompt_ids=(7, 8))
        assert g == dataclasses.replace(g)
        assert g != dataclasses.replace(g, generated=1)
        assert repr(g) == (
            "GenRequest(req_id=4, seq_len=2, arrival_s=0.25, payload=None, "
            "start_s=None, completion_s=None, deadline_s=None, "
            "attempt=0, state=<RequestState.PENDING: 'pending'>, "
            "max_new_tokens=3, generated=0, first_token_s=None, "
            "prompt_ids=(7, 8))")


class TestBatch:
    def test_trusted_batch_equals_validated_batch(self):
        members = (req(0, 17), req(1, 77))
        trusted = trusted_batch(members, 77)
        validated = Batch(members, 77)
        assert trusted == validated
        assert repr(trusted) == repr(validated)
        assert trusted.padding_waste == validated.padding_waste == 60
        assert trusted.cost_batch_size == 2

    def test_pads_to_longest(self):
        batch = make_batch([req(0, 17), req(1, 77)])
        assert batch.padded_len == 77
        assert batch.size == 2
        assert batch.cost_batch_size == 2

    def test_padding_waste(self):
        batch = make_batch([req(0, 17), req(1, 77)])
        assert batch.padding_waste == 60

    def test_fixed_size_execution(self):
        batch = make_batch([req(0, 10)], execution_size=8, padded_len=500)
        assert batch.cost_batch_size == 8
        # 490 wasted on the real request + 7 empty slots of 500
        assert batch.padding_waste == 490 + 7 * 500

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            Batch(requests=(), padded_len=10)

    def test_short_pad_rejected(self):
        with pytest.raises(ValueError):
            make_batch([req(0, 100)], padded_len=50)

    def test_execution_size_below_batch_rejected(self):
        with pytest.raises(ValueError):
            make_batch([req(0, 10), req(1, 20)], execution_size=1)

    def test_packed_batch_reports_zero_waste(self):
        """Regression: a cost_override batch is packed (concatenated, not
        padded) — charging the pad-dim gap on top of the override would
        double-count waste the execution never materializes."""
        batch = make_batch([req(0, 17), req(1, 77)], cost_override=0.004)
        assert batch.padding_waste == 0

    def test_cost_override_validated(self):
        with pytest.raises(ValueError):
            make_batch([req(0, 10)], cost_override=0.0)
