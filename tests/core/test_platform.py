"""Unit tests for the Platform substrate, including the paper's constants."""

import math
import random

import numpy as np
import pytest

from repro.core import Platform, PlatformError, platform_to_dict


class TestConstruction:
    def test_scalar_link(self):
        p = Platform([1.0, 2.0], link=3.0)
        assert p.link(0, 1) == 3.0
        assert p.link(1, 0) == 3.0
        assert p.link(0, 0) == 0.0

    def test_matrix_link(self):
        mat = [[0.0, 1.0], [2.0, 0.0]]
        p = Platform([1.0, 1.0], mat)
        assert p.link(0, 1) == 1.0
        assert p.link(1, 0) == 2.0

    def test_empty_rejected(self):
        with pytest.raises(PlatformError):
            Platform([])

    def test_nonpositive_cycle_time_rejected(self):
        with pytest.raises(PlatformError):
            Platform([0.0])
        with pytest.raises(PlatformError):
            Platform([-1.0])

    def test_bad_matrix_shape_rejected(self):
        for bad in (
            [[0.0]],
            [[0.0, 1.0], [1.0]],  # ragged
            [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0]],  # an extra column
            [0.0, 1.0, 1.0, 0.0],  # flat
            None,
            np.int64(3),
        ):
            with pytest.raises(PlatformError):
                Platform([1.0, 1.0], bad)

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(PlatformError):
            Platform([1.0, 1.0], [[1.0, 1.0], [1.0, 0.0]])

    def test_negative_link_rejected(self):
        with pytest.raises(PlatformError):
            Platform([1.0, 1.0], [[0.0, -1.0], [1.0, 0.0]])

    def test_nan_link_rejected_but_inf_is_no_link(self):
        for bad in (
            math.nan,
            [[0.0, math.nan], [1.0, 0.0]],
            [[0.0, None], [1.0, 0.0]],
            [[0.0, "x"], [1.0, 0.0]],
        ):
            with pytest.raises(PlatformError):
                Platform([1.0, 2.0], bad)
        for missing in (math.inf, [[0.0, math.inf], [1.0, 0.0]]):
            assert not Platform([1.0, 2.0], missing).has_link(0, 1)

    def test_homogeneous_constructor(self):
        p = Platform.homogeneous(4, cycle_time=2.0, link=3.0)
        assert p.num_processors == 4
        assert all(t == 2.0 for t in p.cycle_times)

    def test_from_groups(self):
        p = Platform.from_groups([(2, 6), (1, 10)])
        assert p.cycle_times == (6.0, 6.0, 10.0)

    def test_link_matrix_read_only(self):
        p = Platform.homogeneous(2)
        with pytest.raises(ValueError):
            p.link_matrix[0, 1] = 5.0


class TestCosts:
    def test_exec_time(self):
        p = Platform([6.0, 10.0])
        assert p.exec_time(3.0, 0) == 18.0
        assert p.exec_time(3.0, 1) == 30.0

    def test_comm_time_zero_local(self):
        p = Platform.homogeneous(2, link=5.0)
        assert p.comm_time(100.0, 0, 0) == 0.0
        assert p.comm_time(100.0, 0, 1) == 500.0

    def test_comm_time_missing_link_raises(self):
        mat = [[0.0, math.inf], [1.0, 0.0]]
        p = Platform([1.0, 1.0], mat)
        with pytest.raises(PlatformError):
            p.comm_time(1.0, 0, 1)
        assert not p.has_link(0, 1)
        assert p.has_link(1, 0)
        assert not p.is_fully_connected()

    def test_proc_index_validation(self):
        p = Platform.homogeneous(2)
        with pytest.raises(PlatformError):
            p.cycle_time(2)
        with pytest.raises(PlatformError):
            p.link(0, 5)
        # has_link checks its indices as link() does: -1 must not wrap
        # to the last row
        p3 = Platform.homogeneous(3)
        for src, dst in ((-1, 0), (0, 3)):
            with pytest.raises(PlatformError):
                p3.has_link(src, dst)


class TestPaperConstants:
    """Section 5.2's derived values for the 6/10/15 platform."""

    @pytest.fixture
    def paper(self):
        return Platform.from_groups([(5, 6), (3, 10), (2, 15)])

    def test_aggregate_speed(self, paper):
        assert paper.aggregate_speed() == pytest.approx(5 / 6 + 3 / 10 + 2 / 15)

    def test_speedup_bound_is_7_6(self, paper):
        assert paper.speedup_bound() == pytest.approx(7.6)

    def test_perfect_balance_is_38(self, paper):
        assert paper.perfect_balance_count() == 38

    def test_sequential_reference_example(self, paper):
        # "to compute these 38 tasks in a sequential way ... 38 * 6 = 228"
        assert paper.sequential_time(38.0) == pytest.approx(228.0)

    def test_fastest_processor(self, paper):
        assert paper.fastest_processor() == 0
        assert paper.min_cycle_time() == 6.0

    def test_average_cycle_time_is_harmonic_mean(self, paper):
        assert paper.average_cycle_time() == pytest.approx(10 / paper.aggregate_speed())

    def test_average_link_homogeneous(self, paper):
        assert paper.average_link_time() == pytest.approx(1.0)


#: Cycle times whose ``sum(1/t_i)`` rounds differently under a
#: compensated sum than under a plain left-to-right one.
MIXED_CYCLE_TIMES = [6, 2, 7, 0.5, 10, 0.5, 2.5, 5, 6, 6, 1.5, 15]


class TestAverages:
    def test_single_processor_average_link_zero(self):
        assert Platform([1.0]).average_link_time() == 0.0

    def test_average_link_ignores_missing(self):
        mat = np.array([[0.0, 2.0, math.inf], [2.0, 0.0, 4.0], [math.inf, 4.0, 0.0]])
        p = Platform([1.0, 1.0, 1.0], mat)
        assert p.average_link_time() == pytest.approx(3.0)

    def test_perfect_balance_non_integer_raises(self):
        with pytest.raises(PlatformError):
            Platform([1.5, 2.0]).perfect_balance_count()

    def test_identical_processors_balance(self):
        assert Platform.homogeneous(4).perfect_balance_count() == 4

    def test_aggregate_speed_sums_left_to_right(self):
        """``sum(1/t_i)`` is a plain left-to-right float sum from 0.0 on
        every Python version.  Built-in ``sum()`` compensates its
        rounding from 3.12 on and returns ``0x1.a4e04e04e04e0p+2`` here,
        which would move every bottom level on this platform."""
        p = Platform(MIXED_CYCLE_TIMES)
        assert p.aggregate_speed().hex() == "0x1.a4e04e04e04e2p+2"
        assert p.average_cycle_time().hex() == "0x1.d323c6e7b7555p+0"


class TestFrozenPlatform:
    """Regression: compiled statics and flat kernels cache
    platform-derived tables (``link_rows``, flat ``comm_time`` inputs),
    so mutating a platform after building a schedule used to poison the
    caches silently.  Platforms are now frozen at construction."""

    def test_attribute_assignment_raises(self):
        p = Platform.homogeneous(3)
        with pytest.raises(PlatformError, match="frozen"):
            p._cycle_times = (2.0, 2.0, 2.0)
        with pytest.raises(PlatformError, match="frozen"):
            p.new_field = 1

    def test_link_rows_are_immutable_tuples(self):
        p = Platform.homogeneous(3, link=2.0)
        rows = p.link_rows()
        with pytest.raises(TypeError):
            rows[0][1] = 99.0
        with pytest.raises(TypeError):
            rows[0] = (0.0, 0.0, 0.0)

    def test_link_matrix_is_read_only(self):
        p = Platform.homogeneous(3, link=2.0)
        with pytest.raises(ValueError):
            p.link_matrix[0, 1] = 99.0

    def test_mutation_after_schedule_cannot_poison_caches(self):
        from repro.graphs import lu_graph
        from repro.heuristics import get_scheduler

        p = Platform.from_groups([(2, 1.0), (1, 2.0)], link=1.5)
        graph = lu_graph(5)
        before = get_scheduler("heft").run(graph, p, "one-port").makespan()
        for attempt in (
            lambda: setattr(p, "_link_rows", ((0.0,),)),
            lambda: setattr(p, "_cycle_times", (9.0, 9.0, 9.0)),
        ):
            with pytest.raises(PlatformError):
                attempt()
        with pytest.raises(ValueError):
            p.link_matrix[0, 1] = 0.0
        # the cached statics still serve the original tables
        after = get_scheduler("heft").run(graph, p, "one-port").makespan()
        assert after == before


def _random_platforms(rng, count):
    """``(cycle_times, link rows)`` of three corner cases, then ``count``
    random platforms: p from 1 to 16, magnitudes over six decades, some
    or all links missing, some uniform networks."""
    yield [1.0], [[0.0]]
    yield [1.0, 2.0, 3.0], [[0.0 if q == r else math.inf for r in range(3)] for q in range(3)]
    yield [1.0] * 4, [[0.0 if q == r else -0.0 for r in range(4)] for q in range(4)]
    for _ in range(count):
        p = rng.randint(1, 16)
        missing = rng.choice((0.0, 0.0, 0.1, 0.5, 1.0))
        uniform = rng.random() < 0.1
        value = rng.random() * 10.0 ** rng.randint(-3, 3)
        rows = [
            [
                0.0 if q == r
                else math.inf if rng.random() < missing
                else value if uniform
                else rng.random() * 10.0 ** rng.randint(-3, 3)
                for r in range(p)
            ]
            for q in range(p)
        ]
        yield [rng.choice((1.0, 2.0, 6.0, 10.0, 15.0)) for _ in range(p)], rows


def _numpy_platform_dict(cycle_times, mat):
    """``platform_to_dict`` computed from the platform's ndarray."""
    off = mat[~np.eye(len(mat), dtype=bool)]
    if off.size and np.all(off == off[0]) and np.all(np.isfinite(off)):
        link = float(off[0])
    elif not off.size:
        link = 1.0
    else:
        link = [["inf" if not math.isfinite(x) else x for x in row] for row in mat.tolist()]
    return {"cycle_times": list(cycle_times), "link": link}


class TestNumpyOracle:
    """Platform arithmetic equals its NumPy answers bit for bit.

    The suites' link values sum exactly in any order, so only random
    magnitudes can tell summation orders apart.  From p = 12 on, the
    off-diagonal links pass 128 values, where the pairwise sum splits
    in two.
    """

    CASES = 2500

    def test_matches_numpy(self):
        plain_differs = 0
        for case, (cycle_times, rows) in enumerate(
            _random_platforms(random.Random(20021), self.CASES)
        ):
            plat = Platform(cycle_times, rows)
            mat = np.asarray(rows, dtype=float)
            off = mat[~np.eye(len(rows), dtype=bool)]
            finite = off[np.isfinite(off)]
            average = float(np.mean(finite)) if finite.size else 0.0
            assert plat.average_link_time().hex() == average.hex(), case
            assert plat.is_fully_connected() is bool(np.all(np.isfinite(off))), case
            want = _numpy_platform_dict(cycle_times, mat)
            assert repr(platform_to_dict(plat)) == repr(want), case
            assert np.array_equal(plat.link_matrix, mat), case
            running = 0.0
            for x in finite.tolist():
                running += x
            plain_differs += finite.size > 0 and running / finite.size != average
        # the data has teeth: a plain running sum misses on many platforms
        assert plain_differs > self.CASES // 10
