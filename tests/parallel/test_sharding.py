"""Unit tests for shard planning and executor selection."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.parallel import EXECUTOR_KINDS, SerialExecutor, ShardPlan, make_executor


class TestShardPlanConstruction:
    def test_contiguous_partitions_evenly(self):
        plan = ShardPlan.contiguous(10, 4)
        assert plan.n_shards == 4
        assert plan.shard_sizes == [3, 3, 2, 2]
        np.testing.assert_array_equal(plan.assignments[0], [0, 1, 2])
        np.testing.assert_array_equal(plan.assignments[3], [8, 9])

    def test_round_robin_interleaves(self):
        plan = ShardPlan.round_robin(7, 3)
        np.testing.assert_array_equal(plan.assignments[0], [0, 3, 6])
        np.testing.assert_array_equal(plan.assignments[1], [1, 4])
        np.testing.assert_array_equal(plan.assignments[2], [2, 5])

    @pytest.mark.parametrize("strategy", [ShardPlan.contiguous, ShardPlan.round_robin])
    def test_plans_partition_all_streams(self, strategy):
        plan = strategy(23, 5)
        everyone = np.sort(np.concatenate(plan.assignments))
        np.testing.assert_array_equal(everyone, np.arange(23))

    def test_deterministic(self):
        a = ShardPlan.contiguous(100, 7)
        b = ShardPlan.contiguous(100, 7)
        for x, y in zip(a.assignments, b.assignments):
            np.testing.assert_array_equal(x, y)

    def test_more_shards_than_streams_rejected(self):
        with pytest.raises(ConfigurationError):
            ShardPlan.contiguous(3, 4)

    def test_nonpartition_assignments_rejected(self):
        with pytest.raises(ConfigurationError):
            ShardPlan(n_streams=4, assignments=(np.array([0, 1]), np.array([1, 3])))
        with pytest.raises(ConfigurationError):
            ShardPlan(n_streams=4, assignments=(np.array([0, 1, 2]),))

    def test_empty_shard_rejected(self):
        with pytest.raises(ConfigurationError):
            ShardPlan(
                n_streams=2,
                assignments=(np.array([0, 1]), np.array([], dtype=int)),
            )

    def test_shard_of_inverts_assignments(self):
        plan = ShardPlan.round_robin(9, 4)
        owner = plan.shard_of()
        for shard_id, idx in enumerate(plan.assignments):
            assert np.all(owner[idx] == shard_id)


class TestSplitMerge:
    @pytest.mark.parametrize("strategy", [ShardPlan.contiguous, ShardPlan.round_robin])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_merge_inverts_split_bitwise(self, strategy, axis):
        rng = np.random.default_rng(7)
        plan = strategy(12, 5)
        arr = rng.standard_normal((12, 12, 3))
        parts = plan.split(arr, axis=axis)
        np.testing.assert_array_equal(plan.merge(parts, axis=axis), arr)

    def test_split_list_matches_split(self):
        plan = ShardPlan.round_robin(6, 2)
        items = list("abcdef")
        assert plan.split_list(items) == [["a", "c", "e"], ["b", "d", "f"]]

    def test_split_wrong_length_rejected(self):
        plan = ShardPlan.contiguous(4, 2)
        with pytest.raises(ConfigurationError):
            plan.split(np.zeros(5))
        with pytest.raises(ConfigurationError):
            plan.split_list([1, 2, 3])

    def test_merge_wrong_parts_rejected(self):
        plan = ShardPlan.contiguous(4, 2)
        with pytest.raises(ConfigurationError):
            plan.merge([np.zeros(2)])
        with pytest.raises(ConfigurationError):
            plan.merge([np.zeros(3), np.zeros(1)])


class TestExecutors:
    def test_serial_executor_runs_eagerly(self):
        ex = make_executor("serial")
        assert isinstance(ex, SerialExecutor)
        future = ex.submit(lambda a, b: a + b, 2, 3)
        assert future.done() and future.result() == 5

    def test_serial_executor_captures_exceptions(self):
        future = SerialExecutor().submit(lambda: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            future.result()

    @pytest.mark.parametrize("kind", ["greenlet", "thread"])
    def test_unknown_kind_rejected(self, kind):
        with pytest.raises(ConfigurationError, match=kind):
            make_executor(kind)

    def test_kinds_registry(self):
        assert EXECUTOR_KINDS == ("serial", "process")
