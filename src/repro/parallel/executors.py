"""Executor selection for the sharded fleet runtime.

Two interchangeable ways to run shard tasks, both presenting the
``concurrent.futures`` submit/shutdown surface:

* ``"process"`` — :class:`~concurrent.futures.ProcessPoolExecutor`; the
  main-run choice for CPU-bound fleets (numpy releases the GIL only in
  spots; whole-shard parallelism needs processes).
* ``"serial"`` — an in-process executor that runs each task eagerly at
  submit time; fully deterministic (single thread, defined order), so
  equivalence suites check the full dispatch/merge machinery cheaply on
  every push, and the right default for unit tests and debugging.

Workers are stateless by design — every task carries its shard's engine
state in and out — so both executors produce bit-identical results and
differ only in wall-clock.
"""

from __future__ import annotations

from concurrent.futures import Future, ProcessPoolExecutor

from repro.errors import ConfigurationError

__all__ = ["EXECUTOR_KINDS", "SerialExecutor", "make_executor"]

EXECUTOR_KINDS = ("serial", "process")


class SerialExecutor:
    """Run submitted tasks eagerly on the calling thread.

    Implements just enough of the :class:`concurrent.futures.Executor`
    surface for the runtime: ``submit`` executes immediately and returns
    an already-resolved :class:`~concurrent.futures.Future` (exceptions
    are captured, not raised at submit time, matching pool semantics).
    """

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except BaseException as exc:  # noqa: BLE001 — mirrored into the future
            future.set_exception(exc)
        return future

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        """Nothing to tear down."""


def make_executor(kind: str, max_workers: int | None = None):
    """Build the executor for ``kind`` (see :data:`EXECUTOR_KINDS`)."""
    if kind == "serial":
        return SerialExecutor()
    if kind == "process":
        return ProcessPoolExecutor(max_workers=max_workers)
    raise ConfigurationError(
        f"unknown executor kind {kind!r}; expected one of {EXECUTOR_KINDS}"
    )
