"""The executor service: serial or process scatter-gather.

One idiom, two dispatch modes, chosen by ``jobs``:

* ``serial`` (``jobs=1``) -- run tasks inline, in order.  The
  degenerate case the process mode must match result-for-result.
* ``process`` (``jobs > 1``) -- fan tasks across a
  ``concurrent.futures`` ``ProcessPoolExecutor``.  Right for CPU-bound
  work: each worker escapes the GIL, at the price of pickling the task
  function and its payload both ways.

Every task runs under :func:`call_guarded`, so an ordinary crash travels
back as ``("error", traceback text)`` instead of poisoning the pool --
the coordinator decides per task whether to retry inline (``on_error``)
or raise :class:`TaskError`.  Results always merge in submission order,
whatever order workers finish in.

Process mode is additionally *fault tolerant* at the pool level.  A
worker that dies abruptly (``BrokenProcessPool``) or stalls past the
per-task deadline (``task_timeout``) does not error the gather:

1. the broken pool is discarded (stalled workers terminated) and the
   incomplete slice is retried on a fresh pool, up to ``max_attempts``
   total attempts;
2. if pool attempts keep failing, the service **degrades to serial** --
   the remaining tasks run inline in the coordinator, slower but
   correct -- and records the fact (``last_map_degraded``/``degraded``,
   plus the ``exec.degraded`` counter when a metrics registry is
   attached).

The deterministic failpoints ``exec.worker_kill`` and
``exec.worker_stall`` (:mod:`repro.fault`) fire *inside* pool workers
-- never on the serial path -- so the chaos harness can prove the
retry/degrade ladder end to end.
"""

from __future__ import annotations

import os
import time
import traceback

from repro import fault


def call_guarded(fn, item) -> tuple:
    """Run one task, capturing any crash as data.

    Returns ``("ok", fn(item))`` or ``("error", traceback text)``.
    Exceptions must not escape a pool worker (they would poison the
    whole gather), so they are rendered to text here, where the frames
    still exist, and re-raised -- or retried -- by the coordinator.
    """
    try:
        return ("ok", fn(item))
    except BaseException:
        return ("error", traceback.format_exc())


def _process_entry(payload) -> tuple:
    """Module-level pool entry point (picklable): guarded dispatch.

    The executor failpoints live here, inside the worker process, so
    the coordinator's serial fallback can never fire them: a degraded
    gather completes even while the points stay armed.
    """
    if fault.should_fire("exec.worker_kill"):
        # An abrupt worker death: no teardown, no result, the pool
        # breaks.  os._exit skips atexit/finally, like a SIGKILL.
        os._exit(86)
    if fault.should_fire("exec.worker_stall"):
        time.sleep(fault.STALL_SECONDS)
    fn, item = payload
    return call_guarded(fn, item)


class TaskError(RuntimeError):
    """A task failed and no ``on_error`` hook recovered it.

    Carries the task ``label``, the worker ``mode`` the failing attempt
    ran under, and ``attempts`` -- how many dispatch attempts (pool
    plus serial fallback) the slice consumed -- so a dead pool is never
    an opaque failure: the error names which slice died and where.
    """

    def __init__(self, label, detail: str, mode: str = "serial",
                 attempts: int = 1):
        super().__init__(
            f"executor task {label!r} failed "
            f"(mode {mode}, attempt {attempts}):\n{detail}"
        )
        self.label = label
        self.detail = detail
        self.mode = mode
        self.attempts = attempts


class ExecutorService:
    """Scatter tasks, gather ordered results.

    ``jobs`` bounds worker parallelism and picks the dispatch mode:
    serial for one job, a process pool otherwise.  The pool is created
    lazily on first use and kept for the service's lifetime -- close the
    service (or use it as a context manager) to reap workers.  With more
    than one job the task function must be module-level (picklable), and
    on fork-based platforms workers inherit the coordinator's module
    state as of pool creation.

    ``task_timeout`` (seconds) is the per-task stall deadline;
    ``max_attempts`` bounds pool attempts before the serial fallback;
    ``metrics`` (a MetricsRegistry) receives ``exec.worker_failures`` /
    ``exec.retries`` / ``exec.degraded`` counters.
    """

    def __init__(
        self,
        jobs: int = 1,
        task_timeout: "float | None" = None,
        max_attempts: int = 2,
        metrics=None,
    ):
        self.jobs = max(1, int(jobs))
        self.task_timeout = task_timeout
        self.max_attempts = max(1, int(max_attempts))
        self.metrics = metrics
        self._pool = None
        #: Sticky: some gather since construction fell back to serial.
        self.degraded = False
        #: Whether the most recent :meth:`map` call degraded.
        self.last_map_degraded = False
        #: Human-readable detail of the most recent pool failure.
        self.last_failure: "str | None" = None
        #: Dispatch attempts the most recent map() consumed (1 = clean).
        self.last_attempts = 1

    @property
    def mode(self) -> str:
        """``"serial"`` for one job, ``"process"`` otherwise."""
        return "process" if self.jobs > 1 else "serial"

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Reap the process pool, if one was created.  Idempotent --
        safe to call repeatedly, and safe after pool breakage."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        try:
            pool.shutdown(wait=True)
        except Exception:
            # A broken pool can refuse an orderly shutdown; the workers
            # are already dead or terminated, nothing left to reap.
            pass

    def __enter__(self) -> "ExecutorService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- metrics -------------------------------------------------------------

    def _count(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.inc(name, amount)

    # -- dispatch ------------------------------------------------------------

    def _process_pool(self):
        if self._pool is None:
            from concurrent.futures import ProcessPoolExecutor

            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        return self._pool

    def _discard_pool(self) -> None:
        """Drop a broken/stalled pool, terminating leftover workers."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        workers = getattr(pool, "_processes", None)
        processes = list(workers.values()) if isinstance(workers, dict) else []
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass
        for process in processes:
            try:
                process.terminate()
            except Exception:
                pass

    def _process_round(self, fn, items) -> "tuple[list, str | None]":
        """One pool attempt over *items*.

        Returns ``(outcomes, failure)``: outcomes is item-ordered with
        ``None`` where the pool failed to deliver (worker death or
        stall); ``failure`` describes the pool-level fault, or None.
        """
        from concurrent.futures import BrokenExecutor, CancelledError
        from concurrent.futures import TimeoutError as PoolTimeout

        outcomes: "list[tuple | None]" = [None] * len(items)
        try:
            pool = self._process_pool()
            futures = [
                pool.submit(_process_entry, (fn, item)) for item in items
            ]
        except Exception as exc:
            self._discard_pool()
            return outcomes, f"pool submission failed: {exc!r}"
        failure = None
        for index, future in enumerate(futures):
            try:
                outcomes[index] = future.result(timeout=self.task_timeout)
            except PoolTimeout:
                failure = (
                    f"task {index} exceeded the {self.task_timeout}s "
                    "deadline (worker stalled)"
                )
                break
            except (BrokenExecutor, CancelledError, OSError) as exc:
                failure = f"worker died: {type(exc).__name__}: {exc}"
                break
        if failure is not None:
            self._discard_pool()
        return outcomes, failure

    def _dispatch_process(self, fn, items) -> "list[tuple]":
        """Fault-tolerant process fan-out: retry slices, degrade serial."""
        pending = list(range(len(items)))
        outcomes: "list[tuple | None]" = [None] * len(items)
        for attempt in range(1, self.max_attempts + 1):
            self.last_attempts = attempt
            round_outcomes, failure = self._process_round(
                fn, [items[index] for index in pending]
            )
            still_pending = []
            for index, outcome in zip(pending, round_outcomes):
                if outcome is None:
                    still_pending.append(index)
                else:
                    outcomes[index] = outcome
            pending = still_pending
            if not pending:
                return outcomes
            self.last_failure = failure or "pool delivered no result"
            self._count("exec.worker_failures")
            if attempt < self.max_attempts:
                # The broken pool is gone; the next round builds a
                # fresh one, so the slice retries on fresh workers.
                self._count("exec.retries", len(pending))
        # Repeated pool failure: degrade to serial so the gather still
        # completes -- slower, flagged, but correct.  The executor
        # failpoints fire only inside pool workers, never here.
        self.last_map_degraded = True
        self.degraded = True
        self.last_attempts = self.max_attempts + 1
        self._count("exec.degraded")
        for index in pending:
            outcomes[index] = call_guarded(fn, items[index])
        return outcomes

    def _dispatch(self, fn, items) -> "list[tuple]":
        """Run every task, returning (status, data) pairs in item order."""
        if self.jobs > 1 and len(items) > 1:
            return self._dispatch_process(fn, items)
        return [call_guarded(fn, item) for item in items]

    def map(self, fn, items, labels=None, on_error=None) -> list:
        """Run ``fn`` over ``items``; return results in item order.

        ``labels`` (parallel to ``items``) names tasks in errors.  When
        a task comes back ``("error", detail)``, ``on_error(item, label,
        detail)`` -- running in the coordinating process -- may return a
        recovery result or raise its own error; without the hook the
        service raises :class:`TaskError` carrying the label, the worker
        mode and the attempt count.  The inline-retry idiom::

            def on_error(item, label, detail):
                try:
                    return fn(item)          # retry once, inline
                except Exception as exc:
                    raise TaskError(label, f"{detail}\\nretry: {exc!r}")

        Worker death and stalls in process mode are handled *below*
        this level: slices retry on a fresh pool and degrade to serial
        (see the class docstring); ``on_error``/:class:`TaskError` only
        see faults the task function itself raised.
        """
        items = list(items)
        if labels is None:
            labels = list(range(len(items)))
        self.last_map_degraded = False
        self.last_attempts = 1
        results = []
        for item, label, (status, data) in zip(
            items, labels, self._dispatch(fn, items)
        ):
            if status == "ok":
                results.append(data)
            elif on_error is not None:
                results.append(on_error(item, label, data))
            else:
                mode = self.mode
                if self.last_map_degraded:
                    mode = "process, degraded to serial"
                raise TaskError(
                    label, data, mode=mode, attempts=self.last_attempts
                )
        return results
