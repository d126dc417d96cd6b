"""Unit + property tests for the subset-sum building blocks."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ssp import SSPSolution, brute_force_ssp, dp_ssp, greedy_ssp


def _numpy_dp_oracle(values: np.ndarray, capacity: int):
    """The row-shifting numpy DP the bitset ``dp_ssp`` replaced.

    ``choice[s]`` is the item that first made sum ``s`` reachable; the
    walk back from the best sum follows first reachers.
    """
    if values.size == 0 or capacity == 0:
        return (), 0.0
    choice = np.full(capacity + 1, -1, dtype=np.int64)
    reachable = np.zeros(capacity + 1, dtype=bool)
    reachable[0] = True
    for idx, v in enumerate(values.tolist()):
        if v == 0 or v > capacity:
            continue
        shifted = np.zeros(capacity + 1, dtype=bool)
        shifted[v:] = reachable[: capacity + 1 - v]
        choice[shifted & ~reachable] = idx
        reachable |= shifted
    s = best = int(np.flatnonzero(reachable)[-1])
    selected: list[int] = []
    while s > 0:
        selected.append(int(choice[s]))
        s -= int(values[selected[-1]])
    return tuple(reversed(selected)), float(best)


class TestDpSsp:
    def test_empty_input(self):
        result = dp_ssp(np.array([], dtype=np.int64), 10)
        assert result.selected == ()
        assert result.total == 0.0

    def test_zero_capacity(self):
        result = dp_ssp(np.array([1, 2, 3]), 0)
        assert result.total == 0.0

    def test_exact_fit(self):
        result = dp_ssp(np.array([3, 5, 7]), 12)
        assert result.total == 12
        assert sorted(result.selected) == [1, 2]

    def test_no_item_fits(self):
        result = dp_ssp(np.array([10, 20]), 5)
        assert result.total == 0.0
        assert result.selected == ()

    def test_selects_best_subset(self):
        # 11 is reachable as 4+7, better than 10 alone.
        result = dp_ssp(np.array([10, 4, 7]), 11)
        assert result.total == 11

    def test_duplicate_values(self):
        result = dp_ssp(np.array([5, 5, 5]), 10)
        assert result.total == 10
        assert len(result.selected) == 2
        assert len(set(result.selected)) == 2

    def test_selected_indices_sum_to_total(self):
        values = np.array([3, 1, 4, 1, 5, 9, 2, 6])
        result = dp_ssp(values, 17)
        assert sum(int(values[i]) for i in result.selected) == result.total

    def test_rejects_float_input(self):
        with pytest.raises(TypeError):
            dp_ssp(np.array([1.5, 2.5]), 3)

    @pytest.mark.parametrize("capacity", [9.5, 9.0, "9", None])
    def test_rejects_non_integer_capacity(self, capacity):
        with pytest.raises(TypeError, match="capacity"):
            dp_ssp(np.array([3, 5, 7]), capacity)

    def test_accepts_numpy_integer_capacity(self):
        assert dp_ssp(np.array([3, 5, 7]), np.int64(12)).total == 12

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            dp_ssp(np.array([-1, 2]), 3)

    def test_rejects_negative_capacity(self):
        with pytest.raises(ValueError):
            dp_ssp(np.array([1, 2]), -1)

    def test_zero_valued_items_ignored(self):
        result = dp_ssp(np.array([0, 0, 5]), 5)
        assert result.total == 5

    @given(
        values=st.lists(st.integers(0, 50), min_size=1, max_size=12),
        capacity=st.integers(0, 200),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force(self, values, capacity):
        arr = np.array(values, dtype=np.int64)
        dp = dp_ssp(arr, capacity)
        brute = brute_force_ssp(arr.astype(float), float(capacity))
        assert dp.total == pytest.approx(brute.total)
        # And the DP's own selection is consistent and feasible.
        assert sum(int(arr[i]) for i in dp.selected) == dp.total
        assert dp.total <= capacity

    @given(
        values=st.lists(st.integers(0, 120), max_size=40),
        capacity=st.integers(0, 300),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_numpy_dp(self, values, capacity):
        """Same first-reacher selection as the numpy DP, item for item."""
        arr = np.array(values, dtype=np.int64)
        dp = dp_ssp(arr, capacity)
        assert (dp.selected, dp.total) == _numpy_dp_oracle(arr, capacity)

    @given(
        seed=st.integers(0, 2**32 - 1),
        num_items=st.integers(1, 400),
        epsilon=st.sampled_from([0.05, 0.1, 0.3]),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_numpy_dp_in_fastssp_regime(
        self, seed, num_items, epsilon
    ):
        """FastSSP's quantized instances: clusters of at least ``3/ε``
        quanta against ``⌊9/ε²⌋``, often far more clusters than fit."""
        rng = np.random.default_rng(seed)
        capacity = int(9 / epsilon**2)
        low = int(np.ceil(3 / epsilon))
        arr = rng.integers(low, 4 * low, num_items)
        dp = dp_ssp(arr, capacity)
        assert (dp.selected, dp.total) == _numpy_dp_oracle(arr, capacity)


class TestGreedySsp:
    def test_takes_largest_first(self):
        result = greedy_ssp(np.array([1.0, 9.0, 5.0]), 10.0)
        assert result.total == pytest.approx(10.0)
        assert set(result.selected) == {1, 0}  # 9 then 1

    def test_respects_capacity(self):
        result = greedy_ssp(np.array([6.0, 5.0, 4.0]), 9.0)
        assert result.total <= 9.0

    def test_empty(self):
        result = greedy_ssp(np.array([]), 5.0)
        assert result.total == 0.0

    def test_residual_gap_below_min_unselected(self):
        """The invariant behind FastSSP's error bound."""
        rng = np.random.default_rng(3)
        values = rng.uniform(0.1, 5.0, size=60)
        capacity = values.sum() * 0.4
        result = greedy_ssp(values, capacity)
        unselected = np.setdiff1d(
            np.arange(values.size), np.array(result.selected, dtype=int)
        )
        if unselected.size:
            gap = capacity - result.total
            assert gap < values[unselected].min() + 1e-9

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            greedy_ssp(np.array([-1.0]), 5.0)

    @given(
        values=st.lists(
            st.floats(0.0, 100.0, allow_nan=False), min_size=0, max_size=30
        ),
        frac=st.floats(0.0, 1.2),
    )
    @settings(max_examples=100, deadline=None)
    def test_feasible_and_indices_valid(self, values, frac):
        arr = np.array(values, dtype=np.float64)
        capacity = float(arr.sum()) * frac
        result = greedy_ssp(arr, capacity)
        assert result.total <= capacity + 1e-6
        assert all(0 <= i < arr.size for i in result.selected)
        assert len(set(result.selected)) == len(result.selected)


class TestBruteForce:
    def test_limit(self):
        with pytest.raises(ValueError):
            brute_force_ssp(np.ones(23), 5.0)

    def test_small_optimal(self):
        result = brute_force_ssp(np.array([2.0, 3.0, 7.0]), 9.0)
        assert result.total == pytest.approx(9.0)


def test_solution_num_selected():
    sol = SSPSolution(selected=(1, 2, 5), total=8.0)
    assert sol.num_selected == 3


class TestMeetInTheMiddle:
    def test_matches_brute_force_small(self):
        from repro.core.ssp import meet_in_the_middle_ssp

        rng = np.random.default_rng(0)
        for _ in range(25):
            values = rng.uniform(0.5, 10.0, size=int(rng.integers(1, 15)))
            capacity = float(values.sum()) * rng.uniform(0.2, 0.9)
            mitm = meet_in_the_middle_ssp(values, capacity)
            brute = brute_force_ssp(values, capacity)
            assert mitm.total == pytest.approx(brute.total)
            assert mitm.total <= capacity + 1e-9
            assert sum(float(values[i]) for i in mitm.selected) == (
                pytest.approx(mitm.total)
            )

    def test_handles_30_items(self):
        from repro.core.ssp import meet_in_the_middle_ssp

        rng = np.random.default_rng(1)
        values = rng.uniform(0.5, 5.0, size=30)
        capacity = float(values.sum()) * 0.5
        result = meet_in_the_middle_ssp(values, capacity)
        assert 0 < result.total <= capacity

    def test_limits(self):
        from repro.core.ssp import meet_in_the_middle_ssp

        with pytest.raises(ValueError):
            meet_in_the_middle_ssp(np.ones(41), 5.0)
        with pytest.raises(ValueError):
            meet_in_the_middle_ssp(np.array([-1.0]), 5.0)

    def test_empty_and_zero_capacity(self):
        from repro.core.ssp import meet_in_the_middle_ssp

        assert meet_in_the_middle_ssp(np.array([]), 5.0).total == 0.0
        assert meet_in_the_middle_ssp(np.array([1.0]), 0.0).total == 0.0

    @given(
        values=st.lists(st.floats(0.0, 30.0, allow_nan=False),
                        min_size=0, max_size=16),
        frac=st.floats(0.0, 1.2),
    )
    @settings(max_examples=60, deadline=None)
    def test_optimality_property(self, values, frac):
        from repro.core.ssp import meet_in_the_middle_ssp

        arr = np.array(values, dtype=np.float64)
        capacity = float(arr.sum()) * frac
        mitm = meet_in_the_middle_ssp(arr, capacity)
        brute = brute_force_ssp(arr, capacity)
        assert mitm.total == pytest.approx(brute.total, abs=1e-9)
