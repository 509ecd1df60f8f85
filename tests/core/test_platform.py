"""Unit tests for the Platform substrate, including the paper's constants."""

import math

import numpy as np
import pytest

from repro.core import Platform, PlatformError


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
        with pytest.raises(PlatformError):
            Platform([1.0, 1.0], [[0.0]])

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(PlatformError):
            Platform([1.0, 1.0], [[1.0, 1.0], [1.0, 0.0]])

    def test_negative_link_rejected(self):
        with pytest.raises(PlatformError):
            Platform([1.0, 1.0], [[0.0, -1.0], [1.0, 0.0]])

    def test_nan_link_rejected_but_inf_is_no_link(self):
        for bad in (math.nan, [[0.0, math.nan], [1.0, 0.0]]):
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
