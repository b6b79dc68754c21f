"""Sharded parallel execution of fleet workloads.

The batch :class:`~repro.core.manager.FleetEngine` made per-tick fleet
math a few BLAS calls; this package spreads those calls across CPU cores
by partitioning the fleet into shards and running each shard's engine in
an executor worker (slower than one batch engine on the 2-core host it
has been timed on, >=4 cores unmeasured — see ``docs/tuning.md``).  Stream filters are mutually independent, so sharding
changes *nothing* about the computed estimates — the sharded backend is
pinned bitwise-equal to the single-engine path by the equivalence suite
(``tests/parallel/``) and differs only in wall-clock.

Entry points:

* :class:`ShardPlan` — deterministic fleet partitioning;
* :class:`ShardedFleetRuntime` — the drop-in parallel engine behind
  ``StreamResourceManager(backend="sharded")``;
* :func:`make_executor` / :class:`SerialExecutor` — process/serial
  execution strategies with one surface.
"""

from repro.parallel.executors import EXECUTOR_KINDS, SerialExecutor, make_executor
from repro.parallel.runtime import (
    TRANSPORT_KINDS,
    ShardHealth,
    ShardedFleetRuntime,
)
from repro.parallel.sharding import ShardPlan

__all__ = [
    "EXECUTOR_KINDS",
    "TRANSPORT_KINDS",
    "SerialExecutor",
    "make_executor",
    "ShardHealth",
    "ShardedFleetRuntime",
    "ShardPlan",
]
