"""Mini continuous-query engine over server-cached streams.

Queries read the *served* (precision-bounded) stream values, never raw
arrivals, and every answer carries a propagated error bound derived from
the per-stream suppression bounds.
"""

from repro.dsms.aggregates import (
    Aggregate,
    CountAggregate,
    MaxAggregate,
    MeanAggregate,
    MinAggregate,
    QuantileAggregate,
    SumAggregate,
    VarianceAggregate,
    make_aggregate,
)
from repro.dsms.operators import (
    MapFn,
    MapLinear,
    MergeJoin,
    Operator,
    Select,
    WindowAggregate,
    replay_aggregate,
)
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
from repro.dsms.precision_assignment import (
    QueryRequirement,
    assign_stream_bounds,
    pipeline_sensitivity,
)
from repro.dsms.query import ContinuousQuery, QueryEngine, QueryResult
from repro.dsms.tuples import StreamTuple
from repro.dsms.windows import SlidingWindow, TumblingWindow

__all__ = [
    "StreamTuple",
    "Aggregate",
    "CountAggregate",
    "SumAggregate",
    "MeanAggregate",
    "VarianceAggregate",
    "MinAggregate",
    "MaxAggregate",
    "QuantileAggregate",
    "make_aggregate",
    "SlidingWindow",
    "TumblingWindow",
    "Operator",
    "Select",
    "MapLinear",
    "MapFn",
    "WindowAggregate",
    "replay_aggregate",
    "MergeJoin",
    "QueryRequirement",
    "assign_stream_bounds",
    "pipeline_sensitivity",
    "ContinuousQuery",
    "QueryEngine",
    "QueryResult",
    "mean_bound",
    "sum_bound",
    "extreme_bound",
    "quantile_bound",
    "count_bound",
    "variance_bound",
    "linear_map_bound",
    "add_sub_bound",
    "product_bound",
    "aggregate_bound",
]
