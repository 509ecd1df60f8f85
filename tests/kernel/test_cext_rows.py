"""The compiled engine's rows and long chains vs the pure-Python reference.

Two oracles, both skipped when the extension is not built:

* the C engine's ``book`` / ``next_fit`` against a
  :class:`~repro.kernel.builder.FlatBuilder` fed the same bookings and
  the scalar :func:`~repro.kernel.builder.row_next_fit`, on seeded
  random booking sequences — frontier appends, mid-row inserts,
  rollbacks, bases 0 and 1e9, and gaps that fit (or miss) a duration by
  ~1 ulp at 1e9 magnitude;
* the long-chain tolerance regression (200 hops at ~1e9) scheduled on
  both backends: bit-identical times, and both pass validation (which
  uses the shared scale-aware ``time_tol``).
"""

import random

import pytest

from repro.core import TaskGraph, validate_schedule
from repro.core.platform import Platform
from repro.heuristics import get_scheduler
from repro.kernel import cext_backend, compile_statics
from repro.kernel.backends import use_backend
from repro.kernel.builder import FlatBuilder, row_next_fit

pytestmark = pytest.mark.skipif(
    not cext_backend.cext_available(), reason="cext extension not built"
)


class _LockstepRow:
    """Row 0 of a C engine and of a FlatBuilder, booked in lockstep."""

    def __init__(self) -> None:
        _cext = cext_backend._cext
        graph = TaskGraph.from_specs([("t", 1.0)], [])
        statics = compile_statics(graph, Platform.homogeneous(1))
        self.eng = _cext.Engine(cext_backend.engine_statics(statics), _cext.MODEL_MACRO)
        self.ref = FlatBuilder(1)

    @property
    def cs(self) -> list:
        return self.ref.rows_s[0]

    @property
    def ce(self) -> list:
        return self.ref.rows_e[0]

    def book(self, start: float, end: float) -> None:
        self.eng.book(0, start, end)
        self.ref.book(0, start, end)

    def assert_same_rows(self) -> None:
        assert self.eng.committed(0) == self.ref.committed(0)

    def assert_fit(self, ready: float, duration: float) -> None:
        assert self.eng.next_fit(0, ready, duration) == row_next_fit(
            self.cs, self.ce, ready, duration
        ), f"drift at ready={ready!r} duration={duration!r}"

    def assert_queries_match(self, rng, base: float, rounds: int = 60) -> None:
        self.assert_same_rows()
        horizon = (self.ce[-1] - base) * 1.1 if self.ce else 10.0
        for _ in range(rounds):
            ready = base + rng.uniform(0.0, horizon)
            duration = rng.choice(
                [0.0, rng.uniform(0.05, 2.0), rng.uniform(2.0, 30.0)]
            )
            self.assert_fit(ready, duration)


def _gappy_row(n: int) -> _LockstepRow:
    """``n`` unit intervals with unit gaps: [2i, 2i+1)."""
    row = _LockstepRow()
    for i in range(n):
        row.book(2.0 * i, 2.0 * i + 1.0)
    return row


class TestEngineRowsOracle:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("base", [0.0, 1e9])
    def test_matches_scalar_on_random_rows(self, seed, base):
        rng = random.Random(seed)
        row = _LockstepRow()
        t = base
        for _ in range(400):
            t += rng.uniform(0.0, 3.0)  # gap (possibly ~0)
            start = t
            t += rng.uniform(0.1, 2.0)  # busy
            row.book(start, t)
        row.assert_same_rows()
        for _ in range(200):
            ready = base + rng.uniform(-1.0, (t - base) * 1.1)
            duration = rng.choice([0.0, rng.uniform(0.0, 4.0)])
            row.assert_fit(ready, duration)

    def test_empty_and_past_the_end(self):
        row = _LockstepRow()
        assert row.eng.next_fit(0, 5.0, 2.0) == 5.0
        row.book(0.0, 1.0)
        assert row.eng.next_fit(0, 5.0, 2.0) == 5.0

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("base", [0.0, 1e9])
    def test_random_booking_sequence(self, seed, base):
        """Grow a long row with a mix of frontier appends and mid-row
        insertions, checking every query against the scalar scan."""
        rng = random.Random(seed)
        row = _LockstepRow()
        t = base
        for step in range(288):
            if rng.random() < 0.8 or not row.ce:
                # frontier append, leaving a gap behind it
                t += rng.uniform(0.2, 2.0)
                dur = rng.uniform(0.1, 1.5)
                row.book(t, t + dur)
                t += dur
            else:
                # fill some interior gap exactly where the scan says
                dur = rng.uniform(0.05, 0.6)
                ready = base + rng.uniform(0.0, (t - base) * 0.9)
                s = row_next_fit(row.cs, row.ce, ready, dur)
                row.book(s, s + dur)
            if step % 16 == 15:
                row.assert_queries_match(rng, base, rounds=12)
        row.assert_queries_match(rng, base)

    def test_mid_row_inserts(self):
        row = _gappy_row(288)
        # over-long requests walk the whole row
        row.assert_fit(0.0, 3.0)
        row.book(21.2, 21.4)  # inside the gap after interval 10
        row.book(9.1, 9.3)
        row.book(41.5, 41.6)
        row.assert_queries_match(random.Random(3), 0.0)
        row.assert_fit(0.0, 3.0)

    def test_frontier_appends_grow_the_row(self):
        n = 192
        row = _gappy_row(n)
        row.assert_fit(0.0, 3.0)
        for i in range(n, n + 56):
            row.book(2.0 * i, 2.0 * i + 1.0)
        row.assert_fit(0.0, 3.0)
        row.assert_queries_match(random.Random(5), 0.0)

    def test_rollback_restores_the_row(self):
        row = _gappy_row(192)
        before = row.eng.committed(0)
        mark = row.eng.mark()
        ref_cursor = row.ref.mark()
        row.book(3.2, 3.4)
        row.book(401.0, 402.0)
        row.eng.rollback(*mark)
        row.ref.rollback(ref_cursor)
        assert row.eng.committed(0) == before
        row.assert_queries_match(random.Random(9), 0.0)

    def test_ulp_tight_gaps_at_1e9(self):
        """Gaps that fit (or miss) the duration by ~1 ulp at 1e9
        magnitude return the scalar scan's float."""
        base = 1e9
        row = _LockstepRow()
        rng = random.Random(13)
        t = base
        for _ in range(288):
            t += rng.choice([3.0, 3.0 + 1e-7, 3.0 - 1e-7])
            row.book(t, t + 1.0)
            t += 1.0
        row.assert_same_rows()
        for _ in range(300):
            ready = base + rng.uniform(0.0, t - base)
            duration = rng.choice([3.0, 3.0 + 1e-7, 3.0 - 1e-7])
            row.assert_fit(ready, duration)


class TestLongChainBackends:
    """The long-chain regression shape (200 hops at ~1e9) on both
    backends: the schedules are bit-identical, and validation passes
    on both."""

    def test_200_hop_chain_identical_across_backends(self):
        platform = Platform.homogeneous(2, cycle_time=1.0, link=1.0)
        hops, scale = 200, 1e7
        tasks = [(f"t{i}", scale) for i in range(hops + 1)]
        edges = [(f"t{i}", f"t{i + 1}", scale / 2) for i in range(hops)]
        graph = TaskGraph.from_specs(tasks, edges, name="chain-200")
        alloc = {f"t{i}": i % 2 for i in range(hops + 1)}
        results = {}
        for backend in ("python", "cext"):
            with use_backend(backend):
                sched = get_scheduler("fixed", alloc=alloc).run(
                    graph, platform, "one-port"
                )
            validate_schedule(sched)
            results[backend] = sched
        a, b = results["python"], results["cext"]
        assert b.state_impl == "flat-cext"
        assert a.makespan() == b.makespan() > 1e9
        for v in graph.tasks():
            assert a.start_of(v) == b.start_of(v)
            assert a.finish_of(v) == b.finish_of(v)
