"""Reference decode run: every decode step its own busy window.

:meth:`GenReplica.decode_run` commits the steps that end strictly before
the engine's next live event without yielding, and yields only where
something can happen.  The replicas here keep the plain rule instead —
yield the end of every step, let the engine dispatch whatever is due
inside it, then commit at the clock — so a differential test can check
that the fold changes nothing but the number of WAKE dispatches.
"""

from repro.serving.continuous import (
    GenReplica,
    _RequestLevelReplica,
    _window_overlap,
)


class PerStepDecode:
    """A decode run that yields the end of each step (mix in before a
    :class:`GenReplica` class)."""

    def decode_run(self):
        d = self.driver
        engine = d.engine
        runtime = self.runtime
        b, past = self._decode_shape()
        while True:
            started = engine.now
            step_s = runtime.decode_step_latency(b, past)
            runtime.trace_decode_stride(d.tracer, started, step_s, b, past,
                                        tokens=len(self.active),
                                        tid=self.tid)
            dur, cut = self._window(started, step_s)
            yield started + dur if cut is None else cut
            if cut is not None:
                self._lose(self.active)
                self.active = []
                return
            d.busy_s += _window_overlap(started, dur, d.horizon)
            now = engine.now
            if self._commit_decode(self.active, now):
                self.active = [r for r in self.active
                               if r.generated < r.max_new_tokens]
                self._trace_kv(now)
                if not self.active:
                    return
                b, past = self._decode_shape()
            else:
                self._trace_kv(now)
                past += 1
            if self.queue:
                return


class PerStepGenReplica(PerStepDecode, GenReplica):
    """A continuous-batching replica with one window per decode step."""


class PerStepRequestLevelReplica(PerStepDecode, _RequestLevelReplica):
    """A request-level replica with one window per decode step."""
