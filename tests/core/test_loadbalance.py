"""Unit tests for the Section 4.2 load-balancing primitives."""

import itertools

import pytest

from repro.core import (
    ConfigurationError,
    distribution_makespan,
    optimal_distribution,
    perfect_balance_count,
    share_limits,
    weight_shares,
)
from repro.core.loadbalance import (
    ChunkLoadTracker,
    b_candidates,
    is_count_distribution_optimal,
)

PAPER = [6.0] * 5 + [10.0] * 3 + [15.0] * 2


class TestWeightShares:
    def test_sum_to_one(self):
        assert sum(weight_shares(PAPER)) == pytest.approx(1.0)

    def test_proportional_to_speed(self):
        shares = weight_shares([1.0, 2.0])
        assert shares[0] == pytest.approx(2 * shares[1])

    def test_identical_processors(self):
        assert weight_shares([3.0, 3.0, 3.0]) == pytest.approx([1 / 3] * 3)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            weight_shares([])
        with pytest.raises(ConfigurationError):
            weight_shares([1.0, 0.0])

    def test_shares_sum_left_to_right(self):
        """The shares divide by a plain left-to-right sum of ``1/t_i``
        (see ``test_platform``'s ``MIXED_CYCLE_TIMES``), not by built-in
        ``sum()``, which compensates its rounding from Python 3.12 on."""
        shares = weight_shares([6, 2, 7, 0.5, 10, 0.5, 2.5, 5, 6, 6, 1.5, 15])
        assert [c.hex() for c in shares] == [
            "0x1.9f3c3f06dbda1p-6", "0x1.376d2f4524e39p-4", "0x1.63ea7f2a734d3p-6",
            "0x1.376d2f4524e39p-2", "0x1.f2484ba1d49f5p-7", "0x1.376d2f4524e39p-2",
            "0x1.f2484ba1d49f5p-5", "0x1.f2484ba1d49f5p-6", "0x1.9f3c3f06dbda1p-6",
            "0x1.9f3c3f06dbda1p-6", "0x1.9f3c3f06dbda1p-4", "0x1.4c30326be314ep-7",
        ]

    def test_share_limits(self):
        limits = share_limits(100.0, [1.0, 1.0])
        assert limits == pytest.approx([50.0, 50.0])
        with pytest.raises(ConfigurationError):
            share_limits(-1.0, [1.0])


class TestOptimalDistribution:
    def test_paper_example_38_tasks(self):
        """Section 5.2: 5 tasks to each t=6, 3 to each t=10, 2 to each t=15."""
        counts = optimal_distribution(38, PAPER)
        assert counts == [5] * 5 + [3] * 3 + [2] * 2
        assert distribution_makespan(counts, PAPER) == pytest.approx(30.0)

    def test_all_tasks_distributed(self):
        for n in (0, 1, 7, 13, 38, 100):
            assert sum(optimal_distribution(n, PAPER)) == n

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            optimal_distribution(-1, PAPER)

    def test_deterministic_tie_break(self):
        assert optimal_distribution(1, [2.0, 2.0]) == [1, 0]

    def test_exchange_optimality_checker(self):
        assert is_count_distribution_optimal([5] * 5 + [3] * 3 + [2] * 2, PAPER)
        assert not is_count_distribution_optimal([38] + [0] * 9, PAPER)

    @pytest.mark.parametrize("cycle_times", [[1.0, 2.0], [2.0, 3.0, 5.0], [6.0, 10.0, 15.0]])
    @pytest.mark.parametrize("n", [1, 3, 5, 8, 11])
    def test_matches_brute_force(self, cycle_times, n):
        """The greedy algorithm reaches the true min-max over all integer
        distributions (exhaustive check on small instances)."""
        greedy = distribution_makespan(optimal_distribution(n, cycle_times), cycle_times)
        best = min(
            distribution_makespan(counts, cycle_times)
            for counts in itertools.product(range(n + 1), repeat=len(cycle_times))
            if sum(counts) == n
        )
        assert greedy == pytest.approx(best)


class TestPerfectBalance:
    def test_paper_value(self):
        assert perfect_balance_count(PAPER) == 38

    def test_identical(self):
        assert perfect_balance_count([4.0, 4.0]) == 2

    def test_non_integer_rejected(self):
        with pytest.raises(ConfigurationError):
            perfect_balance_count([1.5, 2.0])

    def test_shares_integral_at_balance(self):
        m = perfect_balance_count(PAPER)
        for share in weight_shares(PAPER):
            assert (share * m) == pytest.approx(round(share * m))

    def test_b_candidates_cover_range(self):
        cands = b_candidates(PAPER)
        assert min(cands) == 10  # p
        assert max(cands) == 38  # M
        assert cands == sorted(set(cands))


class TestChunkLoadTracker:
    def test_fits_until_limit(self):
        tracker = ChunkLoadTracker(10.0, [1.0, 1.0])
        assert tracker.fits(0, 5.0)
        tracker.add(0, 5.0)
        assert not tracker.fits(0, 0.1)
        assert tracker.fits(1, 5.0)

    def test_remaining(self):
        tracker = ChunkLoadTracker(12.0, [1.0, 2.0])
        assert tracker.remaining(0) == pytest.approx(8.0)
        assert tracker.remaining(1) == pytest.approx(4.0)
        tracker.add(1, 1.0)
        assert tracker.remaining(1) == pytest.approx(3.0)

    def test_slack_tolerance(self):
        tracker = ChunkLoadTracker(3.0, [1.0, 1.0, 1.0])
        assert tracker.fits(0, 1.0)  # exactly the limit, within slack
