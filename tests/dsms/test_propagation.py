"""Tests for precision-bound propagation rules.

Soundness is checked empirically too: for random windows and random
perturbations within the per-element bounds, the aggregate over perturbed
values must stay within the propagated bound of the aggregate over the
originals.
"""

import warnings

import numpy as np
import pytest

from repro.dsms.precision_propagation import (
    add_sub_bound,
    aggregate_bound,
    count_bound,
    extreme_bound,
    linear_map_bound,
    mean_bound,
    product_bound,
    quantile_bound,
    sum_bound,
    variance_bound,
)
from repro.errors import QueryError


class TestClosedForms:
    def test_mean_bound_is_average(self):
        assert mean_bound([1.0, 2.0, 3.0]) == pytest.approx(2.0)

    def test_mean_bound_equal_deltas_gives_delta(self):
        assert mean_bound([0.5] * 10) == pytest.approx(0.5)

    def test_sum_bound_adds(self):
        assert sum_bound([0.5] * 10) == pytest.approx(5.0)

    def test_extreme_bound_is_worst_member(self):
        assert extreme_bound([0.1, 0.9, 0.4]) == pytest.approx(0.9)

    def test_count_bound_zero(self):
        assert count_bound([1.0, 2.0]) == 0.0

    def test_linear_map_scales(self):
        assert linear_map_bound(-3.0, 0.5) == pytest.approx(1.5)

    def test_add_sub_accumulates(self):
        assert add_sub_bound(0.3, 0.4) == pytest.approx(0.7)

    def test_product_bound_formula(self):
        assert product_bound(2.0, 0.1, 5.0, 0.2) == pytest.approx(
            2.0 * 0.2 + 5.0 * 0.1 + 0.02
        )

    def test_negative_bounds_rejected(self):
        with pytest.raises(QueryError):
            mean_bound([-0.1])
        with pytest.raises(QueryError):
            add_sub_bound(-1.0, 0.0)

    def test_unknown_aggregate_rejected(self):
        with pytest.raises(QueryError):
            aggregate_bound("mode", [0.1], [1.0])


class TestEmpiricalSoundness:
    """Propagated bounds must dominate actual worst-case perturbation effects."""

    @pytest.mark.parametrize(
        "name,fn",
        [
            ("mean", np.mean),
            ("sum", np.sum),
            ("min", np.min),
            ("max", np.max),
            ("median", np.median),
            ("q0.8", lambda v: np.quantile(v, 0.8)),
            ("var", np.var),
        ],
    )
    def test_random_perturbations_stay_within_bound(self, name, fn, rng):
        for trial in range(30):
            n = int(rng.integers(2, 40))
            values = rng.normal(0, 10, n)
            bounds = rng.uniform(0, 1.0, n)
            propagated = aggregate_bound(name, list(bounds), list(values))
            exact = fn(values)
            for _ in range(20):
                perturbed = values + rng.uniform(-1, 1, n) * bounds
                assert abs(fn(perturbed) - exact) <= propagated + 1e-9

    def test_variance_bound_uses_values(self):
        values = [0.0, 100.0]
        tight = variance_bound([0.1, 0.1], values)
        loose = variance_bound([1.0, 1.0], values)
        assert loose > tight

    def test_variance_bound_is_never_nan(self):
        # The mean of these values overflows, and inf * 0 would make the
        # first-order term NaN; a bound that cannot be computed is inf.
        values = [0.0, 0.0, 1.348269851146737e308]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert variance_bound([0.0, 0.0, 0.0], values) == float("inf")
            assert aggregate_bound("var", [0.0, 0.5, 0.0], values) == float("inf")

    def test_variance_misaligned_rejected(self):
        with pytest.raises(QueryError):
            variance_bound([0.1], [1.0, 2.0])
