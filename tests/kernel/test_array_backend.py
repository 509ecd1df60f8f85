"""Array-backend primitives vs their pure-Python references, exactly.

Two oracles:

* :func:`repro.kernel.array_backend.np_row_next_fit` and
  :class:`repro.kernel.array_backend.GapRows` against the scalar
  :func:`repro.kernel.builder.row_next_fit` on seeded random booking
  sequences — including mid-row inserts (dirty-watermark
  invalidation), rollbacks, tail growth (mirror extension), and the
  debt-gated rebuilds;
* the tolerance audit: gap candidates are admitted with a
  magnitude-relative pad (``GAP_PAD_REL``), so at 1e9 time magnitudes
  — where the PR-3 suite showed absolute epsilons break — the index
  still returns the scalar scan's float, bit for bit.
"""

import random

import pytest

from repro.core.platform import Platform
from repro.heuristics import get_scheduler
from repro.kernel.array_backend import (
    GAP_MIN_LEN,
    GAP_TAIL_MAX,
    GapRows,
    np_row_next_fit,
)
from repro.kernel.builder import NO_DIRTY, FlatBuilder, row_next_fit


# ----------------------------------------------------------------------
# np_row_next_fit: the standalone array primitive
# ----------------------------------------------------------------------
class TestNpRowNextFit:
    def _random_row(self, rng, n, base=0.0):
        cs, ce = [], []
        t = base
        for _ in range(n):
            t += rng.uniform(0.0, 3.0)  # gap (possibly ~0)
            start = t
            t += rng.uniform(0.1, 2.0)  # busy
            cs.append(start)
            ce.append(t)
        return cs, ce

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("base", [0.0, 1e9])
    def test_matches_scalar_on_random_rows(self, seed, base):
        rng = random.Random(seed)
        cs, ce = self._random_row(rng, 400, base=base)
        for _ in range(200):
            ready = base + rng.uniform(-1.0, (ce[-1] - base) * 1.1)
            duration = rng.choice([0.0, rng.uniform(0.0, 4.0)])
            assert np_row_next_fit(cs, ce, ready, duration) == row_next_fit(
                cs, ce, ready, duration
            )

    def test_empty_and_past_the_end(self):
        assert np_row_next_fit([], [], 5.0, 2.0) == 5.0
        assert np_row_next_fit([0.0], [1.0], 5.0, 2.0) == 5.0


# ----------------------------------------------------------------------
# GapRows: the builder-attached gap index
# ----------------------------------------------------------------------
def _assert_queries_match(builder, gap, r, rng, base, rounds=60):
    cs, ce = builder.rows_s[r], builder.rows_e[r]
    horizon = (ce[-1] - base) * 1.1 if ce else 10.0
    for _ in range(rounds):
        ready = base + rng.uniform(0.0, horizon)
        duration = rng.choice([0.0, rng.uniform(0.05, 2.0), rng.uniform(2.0, 30.0)])
        assert gap.next_fit(r, ready, duration) == row_next_fit(
            cs, ce, ready, duration
        ), f"drift at ready={ready} duration={duration}"


class TestGapRowsOracle:
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("base", [0.0, 1e9])
    def test_random_booking_sequence(self, seed, base):
        """Grow a row well past the index threshold with a mix of
        frontier appends and mid-row insertions, checking every query
        against the scalar scan."""
        rng = random.Random(seed)
        builder = FlatBuilder(1)
        gap = GapRows(builder)
        t = base
        for step in range(3 * GAP_MIN_LEN):
            if rng.random() < 0.8 or not builder.rows_e[0]:
                # frontier append, leaving a gap behind it
                t += rng.uniform(0.2, 2.0)
                dur = rng.uniform(0.1, 1.5)
                builder.book(0, t, t + dur)
                t += dur
            else:
                # fill some interior gap exactly where the scan says
                dur = rng.uniform(0.05, 0.6)
                ready = base + rng.uniform(0.0, (t - base) * 0.9)
                s = row_next_fit(builder.rows_s[0], builder.rows_e[0], ready, dur)
                builder.book(0, s, s + dur)
            if step % 16 == 15:
                _assert_queries_match(builder, gap, 0, rng, base, rounds=12)
        _assert_queries_match(builder, gap, 0, rng, base)

    def _gappy_row(self, n):
        """``n`` unit intervals with unit gaps: [2i, 2i+1)."""
        builder = FlatBuilder(1)
        for i in range(n):
            builder.book(0, 2.0 * i, 2.0 * i + 1.0)
        return builder

    def test_debt_gated_mirror_and_dirty_watermark(self):
        n = 3 * GAP_MIN_LEN
        builder = self._gappy_row(n)
        gap = GapRows(builder)
        # over-long requests walk the whole row scalar until the debt
        # pays for a mirror
        for _ in range(4):
            assert gap.next_fit(0, 0.0, 3.0) == row_next_fit(
                builder.rows_s[0], builder.rows_e[0], 0.0, 3.0
            )
        assert 0 in gap._rows, "expected the debt gate to build a mirror"
        assert builder.row_dirty[0] == NO_DIRTY
        # a mid-row insert moves the watermark to the insert position...
        builder.book(0, 21.2, 21.4)  # inside the gap after interval 10
        assert builder.row_dirty[0] == 11
        # ...a second, earlier one lowers it; later ones do not raise it
        builder.book(0, 9.1, 9.3)
        assert builder.row_dirty[0] == 5
        builder.book(0, 41.5, 41.6)
        assert builder.row_dirty[0] == 5
        # stale suffix: queries stay exact (trusted prefix + scalar tail)
        rng = random.Random(3)
        _assert_queries_match(builder, gap, 0, rng, 0.0)
        # enough scalar work re-arms the debt gate and re-syncs the row
        for _ in range(6):
            gap.next_fit(0, 0.0, 3.0)
        assert builder.row_dirty[0] == NO_DIRTY

    def test_appends_extend_without_invalidating(self):
        n = 2 * GAP_MIN_LEN
        builder = self._gappy_row(n)
        gap = GapRows(builder)
        for _ in range(4):
            gap.next_fit(0, 0.0, 3.0)
        assert 0 in gap._rows
        nm = gap._rows[0][0]
        # frontier appends never move the watermark; once the tail
        # outgrows GAP_TAIL_MAX a deep query grows the mirror in place
        for i in range(n, n + GAP_TAIL_MAX + 8):
            builder.book(0, 2.0 * i, 2.0 * i + 1.0)
        assert builder.row_dirty[0] == NO_DIRTY
        assert gap.next_fit(0, 0.0, 3.0) == row_next_fit(
            builder.rows_s[0], builder.rows_e[0], 0.0, 3.0
        )
        assert gap._rows[0][0] > nm, "expected the mirror to extend"
        rng = random.Random(5)
        _assert_queries_match(builder, gap, 0, rng, 0.0)

    def test_rollback_resets_watermark_to_zero(self):
        builder = self._gappy_row(2 * GAP_MIN_LEN)
        gap = GapRows(builder)
        for _ in range(4):
            gap.next_fit(0, 0.0, 3.0)
        cursor = builder.mark()
        builder.book(0, 3.2, 3.4)
        builder.rollback(cursor)
        assert builder.row_dirty[0] == 0
        rng = random.Random(9)
        _assert_queries_match(builder, gap, 0, rng, 0.0)

    def test_short_rows_bypass_the_index(self):
        builder = self._gappy_row(GAP_MIN_LEN // 2)
        gap = GapRows(builder)
        for _ in range(50):
            gap.next_fit(0, 0.0, 3.0)
        assert not gap._rows, "short rows must stay scalar"

    def test_ulp_tight_gaps_at_1e9(self):
        """Gaps that fit (or miss) the duration by ~1 ulp at 1e9
        magnitude: the padded candidate admission may cost a wasted
        verification but never changes the returned float."""
        base = 1e9
        builder = FlatBuilder(1)
        rng = random.Random(13)
        t = base
        for _ in range(3 * GAP_MIN_LEN):
            t += rng.choice([3.0, 3.0 + 1e-7, 3.0 - 1e-7])
            builder.book(0, t, t + 1.0)
            t += 1.0
        gap = GapRows(builder)
        cs, ce = builder.rows_s[0], builder.rows_e[0]
        for _ in range(300):
            ready = base + rng.uniform(0.0, t - base)
            duration = rng.choice([3.0, 3.0 + 1e-7, 3.0 - 1e-7])
            assert gap.next_fit(0, ready, duration) == row_next_fit(
                cs, ce, ready, duration
            )


# ----------------------------------------------------------------------
# tolerance regression: long chains at 1e9 magnitude under both backends
# ----------------------------------------------------------------------
class TestLongChainBackends:
    """The PR-3 regression shape (200 hops at ~1e9) scheduled under the
    numpy backend: vectorized reductions must preserve the scale-aware
    semantics — the schedules are bit-identical, and validation (which
    uses the shared ``time_tol``) passes on both."""

    def test_200_hop_chain_identical_across_backends(self):
        from repro.core import TaskGraph, validate_schedule
        from repro.kernel.backends import use_backend

        platform = Platform.homogeneous(2, cycle_time=1.0, link=1.0)
        hops, scale = 200, 1e7
        tasks = [(f"t{i}", scale) for i in range(hops + 1)]
        edges = [(f"t{i}", f"t{i + 1}", scale / 2) for i in range(hops)]
        graph = TaskGraph.from_specs(tasks, edges, name="chain-200")
        alloc = {f"t{i}": i % 2 for i in range(hops + 1)}
        results = {}
        for backend in ("python", "numpy"):
            with use_backend(backend):
                sched = get_scheduler("fixed", alloc=alloc).run(
                    graph, platform, "one-port"
                )
            validate_schedule(sched)
            results[backend] = sched
        a, b = results["python"], results["numpy"]
        assert a.makespan() == b.makespan() > 1e9
        for v in graph.tasks():
            assert a.start_of(v) == b.start_of(v)
            assert a.finish_of(v) == b.finish_of(v)
