"""Determinism linter: RNG/wall-clock/set-order rules and pragmas."""

import textwrap

from repro.analysis import lint_paths, lint_source, parse_pragmas
from repro.analysis.check import default_lint_root, default_lint_roots
from repro.analysis.diagnostics import Severity


def lint(code: str):
    return lint_source(textwrap.dedent(code), file="snippet.py")


def codes(diags):
    return sorted(d.code for d in diags)


class TestUnseededRng:
    def test_global_random_module_flagged(self):
        diags = lint("""
            import random
            x = random.random()
            y = random.randint(0, 3)
        """)
        assert codes(diags) == ["DET401", "DET401"]

    def test_seeded_random_instance_ok(self):
        assert lint("""
            import random
            rng = random.Random(42)
            x = rng.random()
        """) == []

    def test_unseeded_random_instance_flagged(self):
        assert codes(lint("""
            import random
            rng = random.Random()
        """)) == ["DET401"]

    def test_numpy_global_generator_flagged(self):
        diags = lint("""
            import numpy as np
            x = np.random.rand(3)
            np.random.shuffle(x)
        """)
        assert codes(diags) == ["DET401", "DET401"]

    def test_default_rng_needs_seed(self):
        diags = lint("""
            import numpy as np
            good = np.random.default_rng(0)
            bad = np.random.default_rng()
        """)
        assert codes(diags) == ["DET401"]
        assert diags[0].location.line == 4

    def test_from_import_tracked(self):
        assert codes(lint("""
            from random import choice
            x = choice([1, 2])
        """)) == ["DET401"]


class TestWallClock:
    def test_time_module_flagged(self):
        diags = lint("""
            import time
            a = time.time()
            b = time.perf_counter()
            c = time.monotonic_ns()
        """)
        assert codes(diags) == ["DET402", "DET402", "DET402"]

    def test_datetime_now_flagged(self):
        assert codes(lint("""
            from datetime import datetime
            stamp = datetime.now()
        """)) == ["DET402"]

    def test_sleep_is_fine(self):
        assert lint("""
            import time
            time.sleep(0.1)
        """) == []


class TestSetIteration:
    def test_for_over_set_literal_flagged(self):
        diags = lint("""
            for x in {1, 2, 3}:
                print(x)
        """)
        assert codes(diags) == ["DET403"]
        assert diags[0].severity is Severity.WARNING

    def test_comprehension_over_set_call_flagged(self):
        assert codes(lint("""
            out = [x for x in set([3, 1])]
        """)) == ["DET403"]

    def test_list_of_set_flagged(self):
        assert codes(lint("""
            names = list({"b", "a"})
        """)) == ["DET403"]

    def test_sorted_wrapping_ok(self):
        assert lint("""
            for x in sorted({1, 2, 3}):
                print(x)
            names = sorted(set([3, 1]))
        """) == []

    def test_plain_variable_not_flagged(self):
        # Purely syntactic rule: no type inference on variables.
        assert lint("""
            items = build()
            for x in items:
                print(x)
        """) == []


class TestEngineApiMisuse:
    def test_direct_heapq_call_flagged(self):
        assert codes(lint("""
            import heapq
            heap = []
            heapq.heappush(heap, (1.0, 0))
            item = heapq.heappop(heap)
        """)) == ["DET405", "DET405"]

    def test_from_import_heapq_flagged(self):
        assert codes(lint("""
            from heapq import heappush
            heappush([], 1)
        """)) == ["DET405"]

    def test_heapq_alias_flagged(self):
        assert codes(lint("""
            import heapq as hq
            hq.heapify([])
        """)) == ["DET405"]

    def test_advance_to_call_flagged(self):
        assert codes(lint("""
            clock.advance_to(5.0)
        """)) == ["DET406"]

    def test_now_attribute_assignment_flagged(self):
        assert codes(lint("""
            clock._now = 7.5
        """)) == ["DET406"]

    def test_now_augmented_assignment_flagged(self):
        assert codes(lint("""
            self.clock._now += 0.5
        """)) == ["DET406"]

    def test_engine_now_assignment_flagged(self):
        assert codes(lint("""
            engine.now = 7.5
        """)) == ["DET406"]

    def test_local_now_variable_ok(self):
        assert lint("""
            _now = 7.5
        """) == []

    def test_trigger_outside_ensure_trigger_warns(self):
        diags = lint("""
            def schedule_round(engine):
                engine.schedule(1.0, EventKind.TRIGGER, run_round)
        """)
        assert codes(diags) == ["DET407"]
        assert diags[0].severity is Severity.WARNING

    def test_trigger_inside_ensure_trigger_ok(self):
        assert lint("""
            def ensure_trigger(engine, at):
                engine.schedule(at, EventKind.TRIGGER, run_round)
        """) == []

    def test_trigger_in_closure_under_ensure_trigger_ok(self):
        assert lint("""
            def ensure_trigger(engine, at):
                def arm():
                    engine.schedule(at, EventKind.TRIGGER, run_round)
                arm()
        """) == []

    def test_trigger_keyword_argument_flagged(self):
        assert codes(lint("""
            def go(engine):
                engine.schedule(1.0, kind=EventKind.TRIGGER)
        """)) == ["DET407"]

    def test_other_event_kinds_ok(self):
        assert lint("""
            def go(engine):
                engine.schedule(1.0, EventKind.WAKE, cb)
                engine.schedule(2.0, EventKind.ARRIVAL, cb)
        """) == []


class TestPragmas:
    def test_parse_pragmas(self):
        pragmas = parse_pragmas(
            "a = 1  # repro: allow(DET402)\n"
            "b = 2\n"
            "c = 3  # repro: allow(DET401, DET403) because reasons\n"
        )
        assert pragmas == {1: {"DET402"}, 3: {"DET401", "DET403"}}

    def test_same_line_pragma_suppresses(self):
        assert lint("""
            import time
            t = time.time()  # repro: allow(DET402)
        """) == []

    def test_star_pragma_suppresses_everything(self):
        assert lint("""
            import time, random
            t = time.time() + random.random()  # repro: allow(*)
        """) == []

    def test_pragma_for_other_code_does_not_suppress(self):
        assert codes(lint("""
            import time
            t = time.time()  # repro: allow(DET401)
        """)) == ["DET402"]

    def test_unknown_code_in_pragma_is_det404(self):
        # The fixture pragma is assembled at runtime so linting *this*
        # test file does not see a literal unknown-code pragma.
        diags = lint("x = 1  # repro: " + "allow(DET" + "999)")
        assert codes(diags) == ["DET404"]


class TestFiles:
    def test_syntax_error_is_det400(self):
        diags = lint_source("def broken(:\n", file="bad.py")
        assert codes(diags) == ["DET400"]

    def test_repro_source_tree_lints_clean(self):
        # Satellite guarantee: the shipped tree has a clean lint baseline
        # (every legitimate wall-clock use carries an allow pragma).
        diags = lint_paths(default_lint_root())
        assert [d for d in diags if d.severity is Severity.ERROR] == []

    def test_default_roots_cover_tests_and_lint_clean(self):
        # The default sweep also lints the repo tests/ tree (engine-API
        # misuse in test fixtures carries pragmas, not exemptions).
        roots = default_lint_roots()
        assert any(root.name == "tests" for root in roots)
        for root in roots:
            diags = lint_paths(root)
            assert [d for d in diags if d.severity is Severity.ERROR] == [], \
                root
